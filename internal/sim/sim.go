// Package sim is a small deterministic discrete-event simulation engine.
//
// Simulated threads of execution are modeled as processes, of which exactly
// one executes at any moment. A process advances simulated time with Wait,
// serializes on shared hardware structures with Resource, and blocks on
// state changes with Signal. Events that fire at the same timestamp are
// executed in FIFO scheduling order, so runs are exactly reproducible.
//
// There is one process kind, the stackless step process (step.go): a
// resumable state machine the scheduler advances inline from the event
// loop. A process written as an ordinary blocking function (Env.Go) is a
// step process too, whose Stepper resumes an iter.Pull coroutine running
// the function (coroutine.go). Its blocking primitives queue the same
// micro-op a step process would and execute it on the spot (StepCtx.Drain);
// the coroutine suspends back into the scheduler only when the op really
// blocks, so a wait that elapses inline costs no switch at all.
//
// The event queue is a concrete 4-ary heap over a slice of event values plus
// a FIFO lane for events scheduled at the current instant, which make up
// nearly half of a streaming run's events: they skip the heap entirely and
// pop in scheduling order with no comparisons. Step frames are recycled
// through a free list, so the steady-state per-event path performs no
// allocation.
//
// Time is in nanoseconds (float64), matching the units of the capability
// model in the paper.
package sim

import "fmt"

// Time is simulated time in nanoseconds.
type Time = float64

// event is a scheduled resumption of a process.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for equal timestamps
	proc *Proc
}

// eventLess orders events by (time, scheduling sequence); seq is unique, so
// the order is total and independent of heap shape.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of events plus a same-instant lane. A
// 4-ary layout halves the tree depth of a binary heap and keeps the four
// children of a node in one or two cache lines; the concrete element type
// avoids the interface{} boxing that container/heap imposes on every Push
// and Pop.
//
// The lane holds events scheduled for the instant they were scheduled at
// (a resource hand-off, a Signal wake-up, a spawn at Now). Their order is
// exact without comparisons: the lane's seqs ascend, every lane event is at
// the current instant (the clock only advances once the lane is empty), and
// any heap event at the same instant was scheduled before the clock reached
// it — so it has a lower seq than every lane event and pops first.
type eventQueue struct {
	//knl:nostate empty whenever a machine is digested or reset (Env.Reset panics otherwise)
	h []event
	//knl:nostate empty whenever a machine is digested or reset (Env.Reset panics otherwise)
	lane []event
	//knl:nostate index of the lane's oldest event; zero whenever the lane is empty
	laneHead int
}

func (q *eventQueue) len() int { return len(q.h) + len(q.lane) - q.laneHead }

// pushNow appends an event scheduled at the current instant to the lane.
func (q *eventQueue) pushNow(ev event) {
	q.lane = append(q.lane, ev)
}

// next pops the earliest event: the heap top when it is due at now (it was
// scheduled before any lane event), else the lane head, else the heap top.
func (q *eventQueue) next(now Time) event {
	if q.laneHead == len(q.lane) || (len(q.h) != 0 && q.h[0].at <= now) {
		return q.pop()
	}
	ev := q.lane[q.laneHead]
	q.lane[q.laneHead] = event{} // drop the proc pointer so retired processes collect
	q.laneHead++
	switch {
	case q.laneHead == len(q.lane):
		q.lane = q.lane[:0]
		q.laneHead = 0
	case q.laneHead >= 1024 && 2*q.laneHead >= len(q.lane):
		// A long same-instant burst: slide the live tail down so the
		// lane's backing array stays bounded by its live length.
		n := copy(q.lane, q.lane[q.laneHead:])
		clear(q.lane[n:])
		q.lane = q.lane[:n]
		q.laneHead = 0
	}
	return ev
}

func (q *eventQueue) push(ev event) {
	q.h = append(q.h, ev)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = event{} // drop the proc pointer so retired processes collect
	q.h = q.h[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(q.h[c], q.h[min]) {
				min = c
			}
		}
		if !eventLess(q.h[min], q.h[i]) {
			break
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
	return top
}

// Env is a simulation environment: an event queue, a clock, and the set of
// live processes. An Env must not be shared across goroutines other than
// through its own process mechanism.
type Env struct {
	now Time
	seq uint64
	//knl:nostate drained at every digest/Reset point (Reset panics otherwise)
	events eventQueue
	//knl:nostate recycled step-process frames, deliberately invisible to any digest
	freeStep []*StepProc // recycled frames of retired step processes (see step.go)
	//knl:nostate zero at every quiescent digest/Reset point
	live int // processes spawned and not yet finished
	//knl:nostate zero at every quiescent digest/Reset point
	blocked int // processes waiting on a Signal or Resource (no event queued)

	// OnWait, when non-nil, observes every Proc.Wait before it schedules:
	// the measurement layer's convergence gate records per-pass wait
	// profiles through it (internal/bench). It must not touch the
	// environment. The hook sees relative Waits only — WaitUntil and
	// Signal/Resource wake-ups bypass it — so observers that need complete
	// time accounting must cross-check elapsed time themselves (the bench
	// recorder folds the recorded waits and compares against the clock).
	//knl:nostate observation hook: mechanism, not simulated state
	OnWait func(p *Proc, d Time)
}

// NewEnv returns an empty simulation at time 0.
func NewEnv() *Env { return &Env{} }

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// Seq returns the number of events scheduled so far. Together with Now it
// identifies a point in the simulation's event history: two deterministic
// runs of the same workload must agree on both.
func (e *Env) Seq() uint64 { return e.seq }

// Live returns the number of processes that have been spawned and not yet
// finished.
func (e *Env) Live() int { return e.live }

// Blocked returns the number of processes currently blocked with no pending
// event (waiting on a Signal or a Resource).
func (e *Env) Blocked() int { return e.blocked }

// Proc is a simulated process. All Proc methods must be called from within
// the process's own function.
//
// Every Proc is the identity of a step process: the Proc embedded in its
// StepProc frame (see step.go). Waiter queues, events, and hooks hold *Proc;
// the sp backlink leads the scheduler to the frame it advances.
type Proc struct {
	env  *Env
	name string
	sp   *StepProc
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Go spawns fn as a new process starting at the current simulated time.
// It may be called before Run or from within a running process.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// schedule queues a resumption of p at time at: on the same-instant lane
// when at is the current time, on the heap otherwise.
func (e *Env) schedule(p *Proc, at Time) {
	e.seq++
	if at == e.now {
		e.events.pushNow(event{at: at, seq: e.seq, proc: p})
		return
	}
	e.events.push(event{at: at, seq: e.seq, proc: p})
}

// waitFast consumes a wait of the running process without touching the event
// heap: when the event that schedule would push is strictly the next one to
// pop (every queued event is later; an equal-time event has an earlier seq
// and must run first), pushing and immediately popping it is pure overhead —
// the clock advances and the same process keeps running. The seq increment
// still happens, so Seq-based digests are bit-identical with the slow path.
// Reports false when a queued event is due first — any lane event is (it is
// at the current instant with an earlier seq) — and the caller then
// schedules the event as usual.
//
//knl:hotpath the fused wait of the protocol walks; BenchmarkLoadLineHotPath pins 0 allocs/op
func (e *Env) waitFast(at Time) bool {
	if e.events.laneHead != len(e.events.lane) || (len(e.events.h) != 0 && e.events.h[0].at <= at) {
		return false
	}
	e.seq++
	e.now = at
	return true
}

// Wait advances the process by d nanoseconds of simulated time.
// Negative d panics. Wait(0) yields to other processes scheduled at the
// same instant that were enqueued earlier.
//
//knl:hotpath a blocking process's wait, over the step-op executor every process runs; BenchmarkEngineCoroutineHandoff pins 0 allocs/op
func (p *Proc) Wait(d Time) {
	c := BlockingCtx(p)
	c.Wait(d)
	c.Drain()
}

// WaitUntil advances the process to absolute time t (>= Now).
func (p *Proc) WaitUntil(t Time) {
	c := BlockingCtx(p)
	c.WaitUntil(t)
	c.Drain()
}

// unblock schedules a blocked process to resume at the current time.
func (e *Env) unblock(p *Proc) {
	e.blocked--
	e.schedule(p, e.now)
}

// Run advances processes event by event and returns when the event queue
// drains, with the final simulated time. If processes remain blocked on
// Signals or Resources at that point, Run returns ErrDeadlock (the usual
// cause is a collective algorithm bug: a flag that is polled but never
// set). A panic inside a process body surfaces from Run, on the caller's
// goroutine.
func (e *Env) Run() (Time, error) {
	for e.events.len() > 0 {
		ev := e.events.next(e.now)
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.advance(ev.proc.sp)
	}
	if e.blocked > 0 {
		return e.now, fmt.Errorf("sim: deadlock: %w (%d blocked, %d live)",
			ErrDeadlock, e.blocked, e.live)
	}
	return e.now, nil
}

// Reset returns a drained environment to time zero for reuse by a pooled
// machine: the clock and event counter restart, and recycled step frames
// are dropped: the quiescence check already proves no process is queued or
// running, so the next run starts with an empty step pool rather than
// frames sized by the previous workload. Reset panics if events
// are still queued or processes are live or blocked — it may only run
// between completed Runs.
func (e *Env) Reset() {
	if e.events.len() != 0 || e.live != 0 || e.blocked != 0 {
		panic(fmt.Sprintf("sim: Reset of non-quiescent env (%d events, %d live, %d blocked)",
			e.events.len(), e.live, e.blocked))
	}
	e.now = 0
	e.seq = 0
	e.OnWait = nil
	e.freeStep = nil
}

// ErrDeadlock reports that the event queue drained while processes were
// still blocked.
var ErrDeadlock = errDeadlock{}

type errDeadlock struct{}

func (errDeadlock) Error() string { return "blocked processes remain" }
