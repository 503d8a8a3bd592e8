//go:build go1.23

// The build constraint raises this file's language version to the one that
// introduced package iter; the module itself stays at go 1.22.

package sim

import "iter"

// GoAt spawns fn as a new process whose first instruction executes at time
// at (which must be >= Now). The process is a step process whose Stepper
// resumes an iter.Pull coroutine running fn; fn's blocking primitives
// suspend the coroutine only when they really block (see StepCtx.Drain).
func (e *Env) GoAt(at Time, name string, fn func(p *Proc)) *Proc {
	co := &coroutine{}
	p := e.GoStepsAt(at, name, co)
	sp := p.sp
	co.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		sp.yield = yield
		fn(p)
	})
	return p
}

// coroutine is the Stepper of a blocking process. Each Step resumes the
// process function until it suspends in a blocking primitive or returns; a
// panic inside it propagates out of next, and so out of Env.Run.
type coroutine struct {
	next func() (struct{}, bool)
}

func (co *coroutine) Step(c *StepCtx) {
	if _, ok := co.next(); !ok {
		c.End()
	}
}
