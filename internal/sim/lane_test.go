package sim

import (
	"fmt"
	"testing"
)

// TestEventOrderAgainstReference drives the queue directly with a random mix
// of schedules — at the current instant (the lane), at future instants that
// tie with queued events, and at instants earlier than events already
// queued — and checks that every pop is the minimum (at, seq) of a plain
// reference list of the pending events.
func TestEventOrderAgainstReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		state := seed
		rnd := func(n int) int { // splitmix64
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return int((z ^ z>>31) % uint64(n))
		}
		e := NewEnv()
		procs := make([]Proc, 64)
		var ref []event
		sched := func() {
			at := e.now
			switch rnd(3) {
			case 1: // a small future offset: ties with queued events are common
				at += Time(1 + rnd(4))
			case 2: // far ahead, so later schedules land before it
				at += Time(5 + rnd(40))
			}
			p := &procs[rnd(len(procs))]
			e.schedule(p, at)
			ref = append(ref, event{at: at, seq: e.seq, proc: p})
		}
		for i := 0; i < 8; i++ {
			sched()
		}
		for pops := 0; len(ref) > 0; pops++ {
			if e.events.len() != len(ref) {
				t.Fatalf("seed %d: queue holds %d events, reference %d", seed, e.events.len(), len(ref))
			}
			min := 0
			for i := range ref {
				if eventLess(ref[i], ref[min]) {
					min = i
				}
			}
			want := ref[min]
			ref = append(ref[:min], ref[min+1:]...)
			got := e.events.next(e.now)
			if got != want {
				t.Fatalf("seed %d pop %d: got (at %v, seq %d), want (at %v, seq %d)",
					seed, pops, got.at, got.seq, want.at, want.seq)
			}
			e.now = got.at
			if pops < 3000 {
				for n := rnd(3); n > 0; n-- {
					sched()
				}
			}
		}
	}
}

// TestWaitFastRefusesWithLane: a lane event sits at the current instant
// with an earlier seq, so no wait — not even a zero one — may be fused past
// it; once the lane drains, fusing resumes.
func TestWaitFastRefusesWithLane(t *testing.T) {
	e := NewEnv()
	e.now = 10
	var p Proc
	e.schedule(&p, 10)
	for _, at := range []Time{10, 11, 1e9} {
		if e.waitFast(at) {
			t.Fatalf("waitFast(%v) fused past a queued lane event", at)
		}
	}
	if got := e.events.next(e.now); got.proc != &p || got.at != 10 {
		t.Fatalf("popped %+v, want the lane event", got)
	}
	seq := e.seq
	if !e.waitFast(12) || e.now != 12 || e.seq != seq+1 {
		t.Fatalf("waitFast on an empty queue: now %v seq %d, want 12 and %d", e.now, e.seq, seq+1)
	}
}

// TestResetPanicsOnLaneEvent: the quiescence check counts the lane.
func TestResetPanicsOnLaneEvent(t *testing.T) {
	e := NewEnv()
	var p Proc
	e.schedule(&p, 0)
	if e.events.len() != 1 || len(e.events.h) != 0 {
		t.Fatalf("schedule at Now should use the lane (heap %d, total %d)", len(e.events.h), e.events.len())
	}
	defer func() {
		r := recover()
		if r == nil || fmt.Sprint(r) != "sim: Reset of non-quiescent env (1 events, 0 live, 0 blocked)" {
			t.Fatalf("Reset with a queued lane event: recovered %v", r)
		}
	}()
	e.Reset()
}

// TestLaneCompactsLongBurst: a long same-instant burst keeps the lane's
// live window bounded while every event still pops in seq order.
func TestLaneCompactsLongBurst(t *testing.T) {
	e := NewEnv()
	var p Proc
	const burst = 5000
	for i := 0; i < 2000; i++ {
		e.schedule(&p, 0)
	}
	var last uint64
	for popped := 0; e.events.len() > 0; popped++ {
		ev := e.events.next(e.now)
		if ev.seq <= last {
			t.Fatalf("pop %d: seq %d after %d", popped, ev.seq, last)
		}
		last = ev.seq
		if e.seq < burst {
			e.schedule(&p, 0) // one in, one out: a steady same-instant stream
		}
		if e.events.laneHead > 2*1024 {
			t.Fatalf("pop %d: lane head %d never compacted", popped, e.events.laneHead)
		}
	}
	if last != burst {
		t.Fatalf("last seq %d, want %d", last, burst)
	}
}

// TestResourceLongQueueFIFO queues 300 step processes behind one slot — deep
// enough for the waiter queue to compact its consumed prefix several times
// — interleaved with late arrivals, and checks strict FIFO service, the
// queue length bookkeeping, and that the drained resource can be Reset.
func TestResourceLongQueueFIFO(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var order []int
	const first, late = 300, 50
	for i := 0; i < first+late; i++ {
		at := Time(0)
		if i >= first {
			at = Time(10 * (i - first)) // arrive while the queue drains
		}
		env.GoStepsAt(at, "w", &fifoWorker{res: res, id: i, order: &order})
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != first+late {
		t.Fatalf("served %d, want %d", len(order), first+late)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service %d went to %d: not FIFO", i, v)
		}
	}
	// The queue peaks when the last late worker arrives at 490 ns: four
	// workers have been served by then and a fifth holds the slot.
	if want := first + late - 5; res.QueueLen() != 0 || res.MaxQueue() != want {
		t.Fatalf("QueueLen %d MaxQueue %d, want 0 and %d", res.QueueLen(), res.MaxQueue(), want)
	}
	res.Reset()
}

// fifoWorker acquires res, holds it for 100 ns, records its id and releases.
type fifoWorker struct {
	res   *Resource
	id    int
	order *[]int
	pc    int
}

func (w *fifoWorker) Step(c *StepCtx) {
	switch w.pc {
	case 0:
		w.pc = 1
		c.Acquire(w.res)
		c.Wait(100)
	default:
		*w.order = append(*w.order, w.id)
		w.res.Release()
		c.End()
	}
}
