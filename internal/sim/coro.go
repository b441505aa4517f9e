//go:build go1.23

// The constraint above raises this file's language version to 1.23 for
// iter.Pull while go.mod stays at go 1.22, the version every module built
// against this one (hostbench among them) declares; see DESIGN.md "Engine
// invariants".

package sim

import (
	"fmt"
	"iter"
)

// Coro is a simulated execution context: real Go code that advances only
// when the engine dispatches it, and returns control whenever it sleeps or
// parks. Exactly one Coro (or the engine loop) is active at any moment, so
// code inside a Coro may freely read and write simulated state without
// synchronization.
//
// Coros are created with Engine.Spawn and begin execution when first
// dispatched (Coro.Start schedules that).
type Coro struct {
	eng  *Engine
	name string
	id   uint64
	fn   func(c *Coro)
	// car runs the coro's body from its first dispatch until it finishes.
	car *carrier

	started bool
	done    bool
	killed  bool
	parked  bool

	// spin, when non-nil, is the suspended SpinUntil emulation this
	// coro's events drive instead of resuming the body (see Engine.fire
	// and Coro.SpinUntil).
	spin *spinState
}

// carrier is a runtime coroutine — an iter.Pull sequence — that runs Coro
// bodies one after another. The engine's dispatch is the sequence's next
// and a coro's yieldToEngine is its yield, so one handoff is one
// runtime.coroswitch rather than a trip through the Go scheduler. A
// carrier whose body has finished yields once more and waits on its
// engine's free list for the next coro to dispatch; Engine.shutdown stops
// the carriers still on the list, so no goroutine outlives Run. next may
// be called from any goroutine, never from two at once: a Sharded worker
// may resume a shard's coros from whichever goroutine runs its window.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	coro  *Coro
}

// newCarrier starts a parked carrier; its first next runs k.coro.
func newCarrier() *carrier {
	k := &carrier{}
	k.next, k.stop = iter.Pull(func(yield func(struct{}) bool) {
		k.yield = yield
		for {
			k.coro.run()
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return k
}

// Spawn creates a Coro that will run fn. The coro does not execute until
// Start (or a manual Unpark) schedules it. The name appears in error
// messages. fn must not call runtime.Goexit (t.FailNow included):
// iter.Pull carries a Goexit out of next, onto the engine's goroutine.
func (e *Engine) Spawn(name string, fn func(c *Coro)) *Coro {
	e.coroSeq++
	c := &Coro{eng: e, name: name, id: e.coroSeq, fn: fn}
	e.live[c] = struct{}{}
	return c
}

// run executes the coro's body on its carrier. A coro killed before its
// first dispatch never enters fn; a panic other than the kill unwind
// fails the run.
func (c *Coro) run() {
	e := c.eng
	defer func() {
		c.done = true
		c.fn = nil
		delete(e.live, c)
		if r := recover(); r != nil && r != errKilled {
			e.fail(fmt.Errorf("sim: coro %q panicked: %v", c.name, r))
		}
		if e.tracer != nil {
			e.trace("coro-done " + c.name)
		}
	}()
	if c.killed {
		panic(errKilled)
	}
	if e.tracer != nil {
		e.trace("coro-start " + c.name)
	}
	c.fn(c)
}

// Start schedules the coro to begin execution after delay d.
func (c *Coro) Start(d Time) {
	if c.started {
		panic(fmt.Sprintf("sim: coro %q started twice", c.name))
	}
	c.started = true
	c.eng.afterCoro(d, c)
}

// Name returns the coro's diagnostic name.
func (c *Coro) Name() string { return c.name }

// ID returns the coro's spawn-order number (1 for the first Spawn on its
// engine). Shutdown unwinds live coros in this order.
func (c *Coro) ID() uint64 { return c.id }

// Done reports whether the coro's function has returned.
func (c *Coro) Done() bool { return c.done }

// Engine returns the engine this coro belongs to.
func (c *Coro) Engine() *Engine { return c.eng }

// Now reports the current virtual time.
func (c *Coro) Now() Time { return c.eng.now }

// yieldToEngine returns control to the engine and blocks until redispatched.
// Must only be called from inside the coro's own body.
func (c *Coro) yieldToEngine() {
	c.car.yield(struct{}{})
	if c.killed {
		panic(errKilled)
	}
}

// Sleep advances the coro's virtual time by d: other events run in the
// interim, exactly as if the coro had scheduled its own wakeup and yielded.
// Negative durations are treated as zero (same-time events still run
// first, in scheduling order).
//
// Fast path: when the wakeup at now+d is strictly earlier than every
// pending event, the engine invariant (one active context, completion-time
// dispatch order) guarantees this coro would be dispatched next with
// nothing running in between — so the engine advances now and seq in place
// (a "virtual dispatch") and the coro keeps running, skipping the heap
// push/pop and the two coroutine switches. Equal wakeup times must take
// the slow path: an already-queued event at the same time holds a smaller
// seq and fires first. Tracer-installed engines also take the slow path so
// the schedule/event stream stays complete, a killed coro must reach
// yieldToEngine to unwind, and RunFor's window bounds inline advancement.
func (c *Coro) Sleep(d Time) {
	e := c.eng
	if d < 0 {
		d = 0
	}
	if !e.noInline && !c.killed {
		if when := e.now + d; e.canInline(when) {
			e.advanceInline(when)
			return
		}
	}
	e.afterCoro(d, c)
	c.yieldToEngine()
}

// Park suspends the coro indefinitely; it resumes only when another
// activity calls Unpark.
func (c *Coro) Park() {
	c.parked = true
	c.yieldToEngine()
}

// Unpark schedules a parked coro to resume after delay d. Calling Unpark on
// a coro that is not parked is a programming error in the layer above and
// panics, because the double dispatch would corrupt the interleaving.
func (c *Coro) Unpark(d Time) {
	if !c.parked {
		panic(fmt.Sprintf("sim: Unpark of non-parked coro %q", c.name))
	}
	c.parked = false
	c.eng.afterCoro(d, c)
}

// Parked reports whether the coro is suspended waiting for Unpark.
func (c *Coro) Parked() bool { return c.parked }
