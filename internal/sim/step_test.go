package sim

import (
	"fmt"
	"testing"
)

// scriptOp is one primitive of a scripted process body, used to run the
// identical workload as blocking and as step processes.
type scriptOp struct {
	kind byte // 'w' Wait, 'u' Use, 'a' Acquire+Wait (Release next juncture), 's' Signal wait, 'b' Broadcast
	d    Time
	r    *Resource
	sig  *Signal
}

// scriptStep executes a scriptOp sequence one juncture at a time. The same
// Step method drives a spawned step process and (via RunSteps) a blocking
// process, so any engine asymmetry between the kinds shows up as a log
// difference.
type scriptStep struct {
	name string
	ops  []scriptOp
	i    int
	rel  *Resource // held slot to release at the next juncture
	log  *[]string
}

func (s *scriptStep) Step(c *StepCtx) {
	//lint:ignore hotalloc test-only stepper; the formatted log is the point of the script harness
	*s.log = append(*s.log, fmt.Sprintf("%s@%v/%d", s.name, c.Now(), c.Env().Seq()))
	if s.rel != nil {
		s.rel.Release()
		s.rel = nil
	}
	for s.i < len(s.ops) {
		op := s.ops[s.i]
		s.i++
		switch op.kind {
		case 'b':
			op.sig.Broadcast()
			continue // synchronous: stay in this juncture
		case 'w':
			c.Wait(op.d)
		case 'u':
			c.Use(op.r, op.d)
		case 'a':
			c.Acquire(op.r)
			c.Wait(op.d)
			s.rel = op.r
		case 's':
			c.WaitSignal(op.sig)
		}
		return
	}
	c.End()
}

// runScripted runs a fixed contended workload — three processes sharing a
// capacity-1 resource and a signal — spawning each process as a step or
// blocking process according to kinds. It returns the per-juncture log
// (name@time/seq at every juncture start) plus the final seq and end time.
func runScripted(t *testing.T, kinds [3]bool) ([]string, uint64, Time) {
	t.Helper()
	env := NewEnv()
	r := NewResource(env, "r", 1)
	sig := NewSignal(env)
	scripts := [3][]scriptOp{
		{{kind: 'w', d: 5}, {kind: 'u', r: r, d: 10}, {kind: 's', sig: sig}, {kind: 'w', d: 1}},
		{{kind: 'u', r: r, d: 10}, {kind: 'a', r: r, d: 4}, {kind: 'w', d: 2}, {kind: 's', sig: sig}},
		{{kind: 'w', d: 3}, {kind: 'u', r: r, d: 10}, {kind: 'w', d: 30}, {kind: 'b', sig: sig}, {kind: 'w', d: 1}},
	}
	var log []string
	for i, ops := range scripts {
		s := &scriptStep{name: fmt.Sprintf("p%d", i), ops: ops, log: &log}
		if kinds[i] {
			env.GoSteps(s.name, s)
		} else {
			s := s
			env.Go(s.name, func(p *Proc) { RunSteps(p, s) })
		}
	}
	end, err := env.Run()
	if err != nil {
		t.Fatalf("scripted run (kinds %v): %v", kinds, err)
	}
	if env.Live() != 0 {
		t.Fatalf("scripted run (kinds %v): %d live processes after Run", kinds, env.Live())
	}
	return log, env.Seq(), end
}

// TestStepGoroutineScriptEquivalence runs the same contended workload in
// every process-kind combination and asserts the juncture-by-juncture
// timeline — time and event sequence number at every blocking point — is
// identical: a blocking process entering each op on its coroutine and a
// step process queuing it for the scheduler must move the same events.
// (The name predates blocking processes becoming coroutines; the machine
// layer pins the full StateDigest.)
func TestStepGoroutineScriptEquivalence(t *testing.T) {
	refLog, refSeq, refEnd := runScripted(t, [3]bool{false, false, false})
	for _, kinds := range [][3]bool{
		{true, true, true},
		{true, false, true},
		{false, true, false},
		{true, true, false},
	} {
		log, seq, end := runScripted(t, kinds)
		if seq != refSeq || end != refEnd {
			t.Errorf("kinds %v: seq/end = %d/%v, want %d/%v", kinds, seq, end, refSeq, refEnd)
		}
		if len(log) != len(refLog) {
			t.Fatalf("kinds %v: %d junctures, want %d\n got %v\nwant %v",
				kinds, len(log), len(refLog), log, refLog)
		}
		for i := range log {
			if log[i] != refLog[i] {
				t.Errorf("kinds %v: juncture %d = %q, want %q", kinds, i, log[i], refLog[i])
			}
		}
	}
}

func TestStepWaitAdvancesTime(t *testing.T) {
	env := NewEnv()
	var at Time
	done := &scriptStep{name: "a", ops: []scriptOp{{kind: 'w', d: 10}, {kind: 'w', d: 5.5}}}
	var log []string
	done.log = &log
	env.GoSteps("a", done)
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	at = end
	if at != 15.5 {
		t.Errorf("end = %v, want 15.5", at)
	}
}

func TestGoStepsAtAndWaitUntil(t *testing.T) {
	env := NewEnv()
	var times []Time
	env.GoStepsAt(100, "late", stepFunc(func(c *StepCtx) {
		times = append(times, c.Now())
		c.End()
	}))
	first := true
	env.GoSteps("early", stepFunc(func(c *StepCtx) {
		if first {
			first = false
			c.WaitUntil(50)
			return
		}
		times = append(times, c.Now())
		c.End()
	}))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 50 || times[1] != 100 {
		t.Errorf("times = %v, want [50 100]", times)
	}
}

// stepFunc adapts a function to the Stepper interface for small tests.
type stepFunc func(c *StepCtx)

func (f stepFunc) Step(c *StepCtx) { f(c) }

// TestStepResourceFIFOWithGoroutines interleaves step and blocking
// processes on one capacity-1 resource and asserts strict FIFO service in
// arrival order across kinds.
func TestStepResourceFIFOWithGoroutines(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		if i%2 == 0 {
			done := false
			env.GoStepsAt(Time(i), "s", stepFunc(func(c *StepCtx) {
				if !done {
					done = true
					c.Acquire(res)
					c.Wait(100)
					return
				}
				order = append(order, i)
				res.Release()
				c.End()
			}))
		} else {
			env.GoAt(Time(i), "g", func(p *Proc) {
				res.Acquire(p)
				p.Wait(100)
				order = append(order, i)
				res.Release()
			})
		}
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v not FIFO across process kinds", order)
		}
	}
}

// TestSignalZeroWaiterBroadcast: a Broadcast with no waiters must only bump
// the version — before anyone ever waited, and again after all waiters have
// been woken and retired.
func TestSignalZeroWaiterBroadcast(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var woke []Time
	env.Go("driver", func(p *Proc) {
		sig.Broadcast() // no waiters ever: version bump only
		p.Wait(10)
		sig.Broadcast() // waiter present: wakes it
		p.Wait(10)
		sig.Broadcast() // waiter already retired: no-op again
	})
	env.GoSteps("waiter", stepFunc(func(c *StepCtx) {
		if len(woke) == 0 && c.Now() == 0 {
			c.WaitSignal(sig)
			return
		}
		woke = append(woke, c.Now())
		c.End()
	}))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 1 || woke[0] != 10 {
		t.Errorf("woke = %v, want [10]", woke)
	}
	if sig.Version() != 3 {
		t.Errorf("version = %d, want 3", sig.Version())
	}
	if sig.Waiting() != 0 {
		t.Errorf("%d waiters remain", sig.Waiting())
	}
}

// TestSignalWakeAfterWaiterRetired: a step waiter that retires after its
// wake-up must be fully detached — a later Broadcast sees zero waiters, and
// a new step process that recycles the retired frame waits and wakes
// normally.
func TestSignalWakeAfterWaiterRetired(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var wokeA, wokeB Time
	env.GoSteps("a", stepFunc(func(c *StepCtx) {
		if wokeA == 0 && c.Now() == 0 {
			c.WaitSignal(sig)
			return
		}
		wokeA = c.Now()
		c.End() // retires; its frame goes to the step free list
	}))
	env.Go("driver", func(p *Proc) {
		p.Wait(10)
		sig.Broadcast()
		p.Wait(10)
		sig.Broadcast() // a already retired: must wake nobody
		// A new step process recycles a's frame and must wait cleanly.
		env.GoSteps("b", stepFunc(func(c *StepCtx) {
			if wokeB == 0 && c.Now() == 20 {
				c.WaitSignal(sig)
				return
			}
			wokeB = c.Now()
			c.End()
		}))
		p.Wait(10)
		sig.Broadcast()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeA != 10 || wokeB != 30 {
		t.Errorf("wake times a=%v b=%v, want 10/30", wokeA, wokeB)
	}
	if env.Live() != 0 {
		t.Errorf("Live = %d, want 0", env.Live())
	}
}

// TestSignalMixedKindWaiters parks step and blocking waiters on one Signal
// in interleaved arrival order and asserts a single Broadcast wakes all of
// them at the same instant, in arrival order. ci.sh runs this package under
// -race, which doubles as the data-race check of the coroutine switches.
func TestSignalMixedKindWaiters(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var order []int
	var woke []Time
	for i := 0; i < 6; i++ {
		i := i
		if i%2 == 0 {
			waited := false
			env.GoStepsAt(Time(i), "s", stepFunc(func(c *StepCtx) {
				if !waited {
					waited = true
					c.WaitSignal(sig)
					return
				}
				order = append(order, i)
				woke = append(woke, c.Now())
				c.End()
			}))
		} else {
			env.GoAt(Time(i), "g", func(p *Proc) {
				sig.Wait(p)
				order = append(order, i)
				woke = append(woke, env.Now())
			})
		}
	}
	env.GoAt(50, "driver", func(p *Proc) { sig.Broadcast() })
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("woke %d waiters, want 6 (order %v)", len(order), order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order %v not arrival order", order)
		}
		if woke[i] != 50 {
			t.Errorf("waiter %d woke at %v, want 50", v, woke[i])
		}
	}
}

// TestStepRetireKeepsFreeListsSeparate is the Reset/free-list regression
// test: every retired process — blocking or stepper — returns its frame to
// the step free list, and Env.Reset drops the recycled frames.
func TestStepRetireKeepsFreeListsSeparate(t *testing.T) {
	env := NewEnv()
	for i := 0; i < 2; i++ {
		env.Go("g", func(p *Proc) { p.Wait(1) })
	}
	for i := 0; i < 3; i++ {
		env.GoSteps("s", &waitLoop{n: 2})
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(env.freeStep) != 5 {
		t.Errorf("step free list has %d frames, want 5", len(env.freeStep))
	}
	for i, sp := range env.freeStep {
		if sp.yield != nil || sp.fn != nil {
			t.Errorf("freeStep[%d] still references its retired process", i)
		}
	}

	env.Reset()
	if env.freeStep != nil {
		t.Errorf("Reset kept %d step frames, want none", len(env.freeStep))
	}

	// The recycled environment must still run both process kinds.
	env.Go("g", func(p *Proc) { p.Wait(5) })
	env.GoSteps("s", &waitLoop{n: 7})
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 7 {
		t.Errorf("end = %v, want 7", end)
	}
	if env.Live() != 0 || env.Blocked() != 0 {
		t.Errorf("Live/Blocked = %d/%d after Run, want 0/0", env.Live(), env.Blocked())
	}
}

// TestStepFrameRecycled asserts retirement actually feeds the spawn pool:
// sequential step processes reuse one frame instead of allocating.
func TestStepFrameRecycled(t *testing.T) {
	env := NewEnv()
	env.GoSteps("a", &waitLoop{n: 1})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(env.freeStep) != 1 {
		t.Fatalf("step free list has %d frames, want 1", len(env.freeStep))
	}
	recycled := env.freeStep[0]
	p := env.GoSteps("b", &waitLoop{n: 1})
	if p.sp != recycled {
		t.Error("second spawn did not reuse the retired frame")
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStepDeadlockDetection: a step process stuck on a Signal must be
// reported by Run exactly like a blocking process.
func TestStepDeadlockDetection(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	env.GoSteps("stuck", stepFunc(func(c *StepCtx) { c.WaitSignal(sig) }))
	if _, err := env.Run(); err == nil {
		t.Error("Run did not report the stuck step process")
	}
	if env.Blocked() != 1 {
		t.Errorf("Blocked = %d, want 1", env.Blocked())
	}
}

// TestStepNoProgressPanics: a Step call that neither pushes an op, parks,
// nor ends would spin the scheduler forever and must panic instead.
func TestStepNoProgressPanics(t *testing.T) {
	env := NewEnv()
	env.GoSteps("idle", stepFunc(func(c *StepCtx) {}))
	defer func() {
		if recover() == nil {
			t.Error("no-progress step process did not panic")
		}
	}()
	_, _ = env.Run()
}

// TestStepWaitSignalAfterOpsPanics: WaitSignal must be a juncture's only
// primitive — the process becomes a waiter immediately, which cannot be
// sequenced after queued ops.
func TestStepWaitSignalAfterOpsPanics(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	env.GoSteps("bad", stepFunc(func(c *StepCtx) {
		c.Wait(1)
		c.WaitSignal(sig)
	}))
	defer func() {
		if recover() == nil {
			t.Error("WaitSignal after queued ops did not panic")
		}
	}()
	_, _ = env.Run()
}

// TestStepOpOverflowPanics: the fixed op ring must reject a juncture that
// queues more primitives than it holds.
func TestStepOpOverflowPanics(t *testing.T) {
	env := NewEnv()
	env.GoSteps("bad", stepFunc(func(c *StepCtx) {
		for i := 0; i < 9; i++ {
			c.Wait(1)
		}
	}))
	defer func() {
		if recover() == nil {
			t.Error("op-queue overflow did not panic")
		}
	}()
	_, _ = env.Run()
}

// TestStepSpawnFromGoroutineAndBack: processes of each kind spawning the
// other kind mid-run, sharing one resource.
func TestStepSpawnFromGoroutineAndBack(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var finish []Time
	env.Go("parent", func(p *Proc) {
		res.Use(p, 10)
		started := false
		env.GoSteps("child", stepFunc(func(c *StepCtx) {
			if !started {
				started = true
				c.Use(res, 10)
				return
			}
			finish = append(finish, c.Now())
			env.Go("grandchild", func(g *Proc) {
				res.Use(g, 10)
				finish = append(finish, env.Now())
			})
			c.End()
		}))
		res.Use(p, 10)
		finish = append(finish, env.Now())
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// parent holds [0,10) and re-acquires at 10 before the child's first
	// event fires; the child queues and holds [20,30); the grandchild it
	// spawns at 30 holds [30,40).
	want := []Time{20, 30, 40}
	if len(finish) != len(want) {
		t.Fatalf("finish = %v, want %v", finish, want)
	}
	for i, w := range want {
		if finish[i] != w {
			t.Errorf("finish[%d] = %v, want %v", i, finish[i], w)
		}
	}
}

// TestGoPanicSurfacesFromRun: a panic inside a blocking process body
// propagates out of its coroutine into Env.Run, on the caller's goroutine,
// where it can be recovered (a panic on another goroutine could not be).
func TestGoPanicSurfacesFromRun(t *testing.T) {
	env := NewEnv()
	env.GoSteps("bystander", &waitLoop{n: 3})
	env.Go("bad", func(p *Proc) {
		p.Wait(2)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_, _ = env.Run()
	}()
	if got != "boom" {
		t.Errorf("recovered %v from Run, want boom", got)
	}
	if env.Now() != 2 {
		t.Errorf("panicked at %v, want 2", env.Now())
	}
}

// TestBlockedWaitNotReentered is the regression test for re-entering a
// coroutine's in-flight op: a blocking Wait(5) cannot fuse past the step
// process's event at t=1, so it schedules and suspends. The scheduler must
// then return rather than execute the already-entered op again, which
// would complete the wait at t=0 and leave a stale event at t=5 for a
// retired frame.
func TestBlockedWaitNotReentered(t *testing.T) {
	env := NewEnv()
	var woke, stepAt Time = -1, -1
	env.Go("blocking", func(p *Proc) {
		p.Wait(5)
		woke = env.Now()
	})
	env.GoStepsAt(1, "step", stepFunc(func(c *StepCtx) {
		stepAt = c.Now()
		c.End()
	}))
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if woke != 5 || stepAt != 1 || end != 5 {
		t.Errorf("wait returned at %v, step ran at %v, end %v; want 5, 1, 5", woke, stepAt, end)
	}
	// Two spawns and the scheduled wait: three events, none stale.
	if env.Seq() != 3 {
		t.Errorf("Seq = %d, want 3", env.Seq())
	}
	if env.Live() != 0 || env.Blocked() != 0 {
		t.Errorf("Live/Blocked = %d/%d after Run, want 0/0", env.Live(), env.Blocked())
	}
}
