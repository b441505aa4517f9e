package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrDeadlock is returned by Engine.Run when the event queue drains while
// simulated contexts are still parked: no event can ever wake them again.
var ErrDeadlock = errors.New("sim: deadlock: event queue empty with parked contexts")

// errKilled is the panic value used to unwind a Coro during Engine shutdown.
var errKilled = errors.New("sim: coro killed at engine shutdown")

// event is a scheduled occurrence. Events at equal times fire in
// schedule-time order (at — the virtual instant the event was scheduled),
// then scheduling order (seq breaks the remaining ties), which keeps runs
// deterministic.
//
// On a single engine the (when, at, seq) order is provably identical to
// the old (when, seq) order: the clock never moves backwards, so schedule
// calls see non-decreasing now, and seq increments on every schedule —
// hence at1 < at2 implies seq1 < seq2 and the extra key changes nothing.
// What it buys is sharding: a cross-shard message delivered at a window
// barrier carries the virtual time its send was scheduled at, and the at
// key slots it among the destination's own events exactly where the
// serial engine's global seq would have — see Sharded and DESIGN.md
// "Sharded execution legality".
//
// The common case — waking a sleeping, starting, or unparked Coro — carries
// the coro directly in coro and leaves fn nil, so the schedule-dispatch
// cycle allocates no closure. fn is only used for engine-level callbacks
// (At/After) and barrier-delivered messages.
type event struct {
	when Time
	at   Time
	seq  uint64
	fn   func()
	coro *Coro
}

// less orders events by (when, at, seq); seq is unique, so this is a
// total order and any correct heap pops the exact same sequence.
func (ev *event) less(other *event) bool {
	if ev.when != other.when {
		return ev.when < other.when
	}
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// eventQueue is an index-based 4-ary min-heap over a value slice, ordered
// by (when, at, seq). Storing events by value means pushes reuse the slice's
// spare capacity — the popped slots are the free list — so steady-state
// scheduling is allocation-free, unlike the previous container/heap
// implementation which heap-allocated every *event and boxed it in an
// interface{} on each Push/Pop. The 4-ary layout halves the tree depth of
// a binary heap and keeps each node's children in one cache line.
type eventQueue struct {
	a []event
}

func (q *eventQueue) len() int { return len(q.a) }

// push inserts ev, sifting it up to its (when, at, seq) position.
func (q *eventQueue) push(ev event) {
	a := append(q.a, ev)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !a[i].less(&a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
	q.a = a
}

// pop removes and returns the minimum event. The vacated slot is zeroed so
// the queue holds no stale fn/coro pointers.
func (q *eventQueue) pop() event {
	a := q.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = event{}
	q.a = a[:n]
	q.down(0)
	return top
}

// down sifts a[i] toward the leaves until no child orders before it:
// pop's refill of the root, and the spin set commit's re-stamping of
// queued events, whose keys only ever grow.
func (q *eventQueue) down(i int) {
	a := q.a
	n := len(a)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if a[c].less(&a[min]) {
				min = c
			}
		}
		if !a[min].less(&a[i]) {
			return
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
}

// Engine is the discrete-event core: a virtual clock plus a priority queue
// of pending events. Exactly one simulated activity runs at any moment (the
// engine loop or a single Coro), so simulated state needs no locking and
// every run with the same inputs produces the same history.
type Engine struct {
	now   Time
	seq   uint64
	queue eventQueue

	// live tracks spawned coros that have not finished, for shutdown and
	// deadlock detection.
	live map[*Coro]struct{}
	// coroSeq numbers coros in spawn order so shutdown can unwind them
	// deterministically.
	coroSeq uint64
	// failure records the first panic raised inside a Coro.
	failure error
	// free holds carriers whose coro has finished, ready to run the next
	// coro's body; shutdown stops them.
	free []*carrier

	// noInline disables the self-wakeup fast path (see Coro.Sleep): when a
	// sleeping coro's wakeup would provably be the next event dispatched,
	// the engine advances the clock in place and lets the coro keep running
	// instead of parking it. The zero value keeps the fast path on; tests
	// force it off to prove both paths produce identical histories.
	noInline bool
	// noBatch disables the batched-spin fast path (see Coro.SpinUntil and
	// Engine.SetBatchedSpins): busy-wait loops then charge per iteration
	// through the open-coded slow path.
	noBatch bool
	// spinFastForwards / spinBatchedIters count the spinners a set commit
	// advanced and the iterations it skipped for them (diagnostics; the
	// differential suites use them to prove the fast path engaged).
	spinFastForwards uint64
	spinBatchedIters uint64
	// disturb counts fired events that are not futile spin charges: coro
	// dispatches, callbacks, spin completions and slice boundaries. A spin
	// iteration during which it stays put saw no simulated state change
	// (see Engine.commitSpinSet). steadyGen counts spinners turning steady.
	disturb   uint64
	steadyGen uint64
	// refused/refusedDisturb/refusedGen remember the last refused set
	// commit. Until disturb or steadyGen moves, no spinner can join the
	// set and no event can move the horizon closer, so retries are
	// skipped.
	refused        bool
	refusedDisturb uint64
	refusedGen     uint64
	// spinSet and spinWalk are commitSpinSet's scratch, reused so commits
	// and refusals allocate nothing.
	spinSet  []spinMember
	spinWalk []int
	// limited/limit bound inline time advancement to RunFor's window, so a
	// coro cannot run past the deadline the engine loop would stop at.
	// Sharded window runs reuse the same bound, which is what keeps the
	// spin fast-forward shard-local: a commit can never cross the window
	// barrier.
	limited bool
	limit   Time

	// rank is the engine's shard rank when it runs under a Sharded
	// coordinator, -1 on a standalone serial engine. Used only for
	// diagnostics (deadlock reports name the shard).
	rank int

	running bool
	stopped bool
	tracer  Tracer
	attr    Attribution
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{
		live:    make(map[*Coro]struct{}),
		noBatch: noBatchDefault.Load(),
		rank:    -1,
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetInlineWakeups enables (the default) or disables the self-wakeup fast
// path: a coro whose Sleep wakeup is provably the next dispatch advances
// the clock in place and keeps running, skipping the event heap and the
// coroutine round-trip. Both settings produce byte-identical histories —
// the differential test suite runs every workload both ways — so the only
// reason to turn it off is to exercise or measure the slow path.
func (e *Engine) SetInlineWakeups(on bool) { e.noInline = !on }

// InlineWakeups reports whether the self-wakeup fast path is enabled.
func (e *Engine) InlineWakeups() bool { return !e.noInline }

// canInline reports whether a self-wakeup at when may run inline: no
// tracer observing schedule/event occurrences, the engine not stopping,
// the wakeup strictly earlier than every pending event (equal times must
// go through the heap — an already-queued event at the same time has a
// smaller seq and fires first), and within RunFor's window when one is
// active. Callers have already checked noInline and the coro's own state.
func (e *Engine) canInline(when Time) bool {
	if e.tracer != nil || e.stopped {
		return false
	}
	if e.queue.len() > 0 && when >= e.queue.a[0].when {
		return false
	}
	return !e.limited || when <= e.limit
}

// advanceInline performs the virtual dispatch of an inline self-wakeup:
// the clock and sequence counter move exactly as if the wakeup event had
// been scheduled, popped, and fired, so everything observable downstream
// (Now, tie-break order among later events) is identical to the slow path.
func (e *Engine) advanceInline(when Time) {
	e.seq++
	e.now = when
}

// schedule stamps ev with the (clamped) time, the schedule instant, and
// the next sequence number and pushes it. Scheduling in the past is
// rounded up to the present.
func (e *Engine) schedule(when Time, ev event) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	ev.when, ev.at, ev.seq = when, e.now, e.seq
	e.trace("schedule")
	e.queue.push(ev)
}

// scheduleMessage pushes a barrier-delivered cross-shard message: an
// event whose schedule instant at is the virtual time the *sending*
// shard issued it, not the current clock. The (when, at, seq) order then
// places the message exactly where the serial engine — which would have
// scheduled the same event at the sender's instant — would fire it
// relative to this shard's own events. Only the Sharded coordinator's
// barrier may call this; delivery order across messages is fixed by the
// mailbox merge, which assigns seq in (when, at, src rank, send order).
func (e *Engine) scheduleMessage(when, at Time, fn func()) {
	if e.running {
		panic("sim: scheduleMessage while the engine is running (barrier delivery only)")
	}
	if when < e.now {
		panic(fmt.Sprintf("sim: cross-shard message arrives at %s, before shard %d's clock %s (lookahead violated)",
			when, e.rank, e.now))
	}
	e.seq++
	e.queue.push(event{when: when, at: at, seq: e.seq, fn: fn})
}

// At schedules fn to run at the given absolute virtual time. Scheduling in
// the past is rounded up to the present.
func (e *Engine) At(when Time, fn func()) {
	e.schedule(when, event{fn: fn})
}

// After schedules fn to run d from now. Negative delays fire immediately
// (at the current time, after already-queued events for that time).
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, event{fn: fn})
}

// afterCoro schedules a dispatch of c after d, carrying the coro in the
// event itself. This is the allocation-free fast path under Coro.Start,
// Sleep, and Unpark.
func (e *Engine) afterCoro(d Time, c *Coro) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, event{coro: c})
}

// fire executes one popped event: a direct coro dispatch on the fast path,
// otherwise the scheduled callback. A coro suspended inside a spin
// emulation (Coro.SpinUntil) is not resumed — the event advances its
// state machine engine-side instead, and the body resumes only when
// the whole busy-wait loop completes.
//
// Every firing except a spin charge completion counts as a disturbance;
// runSpin counts the charge completions that end a spin or cross a slice
// boundary itself.
func (e *Engine) fire(ev *event) {
	if c := ev.coro; c != nil {
		if s := c.spin; s != nil && !c.killed {
			if s.wait != spinWaitEvent {
				e.disturb++ // redispatch after preemption
			}
			if e.runSpin(s) {
				e.dispatch(c)
			}
			return
		}
		e.disturb++
		e.dispatch(c)
		return
	}
	e.disturb++
	ev.fn()
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return e.queue.len() }

// Live reports the number of spawned coros that have not yet finished.
func (e *Engine) Live() int { return len(e.live) }

// Run executes events in time order until the queue is empty, Stop is
// called, or a Coro panics. It returns ErrDeadlock if the queue drains
// while coros are still parked, and the recovered error if a Coro fails.
// In every case the engine winds down all remaining coros so no goroutines
// leak.
func (e *Engine) Run() error {
	if e.running {
		return errors.New("sim: Engine.Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for e.queue.len() > 0 && !e.stopped && e.failure == nil {
		ev := e.queue.pop()
		e.now = ev.when
		e.trace("event")
		e.fire(&ev)
	}

	err := e.failure
	if err == nil && !e.stopped && len(e.live) > 0 {
		err = e.deadlockError()
	}
	e.shutdown()
	if e.failure != nil && err == nil {
		err = e.failure
	}
	return err
}

// deadlockError builds the queue-drained-with-parked-coros report. It
// names the parked coros (in spawn order, capped) and — when the engine
// runs as one shard of a Sharded machine — the shard rank, so a stall in
// a sharded run points at the right heap instead of implying one global
// queue. The Sharded coordinator extends this with the mailbox-edge
// summary only it can see.
func (e *Engine) deadlockError() error {
	return fmt.Errorf("%w (%s)", ErrDeadlock, e.parkedReport())
}

// parkedReport lists the live (parked) coros by name in spawn order,
// prefixed with the shard rank when the engine is a shard.
func (e *Engine) parkedReport() string {
	type entry struct {
		id   uint64
		name string
	}
	parked := make([]entry, 0, len(e.live))
	for c := range e.live {
		parked = append(parked, entry{c.id, c.name})
	}
	sort.Slice(parked, func(i, j int) bool { return parked[i].id < parked[j].id })
	const maxNames = 8
	names := make([]string, 0, maxNames+1)
	for i, p := range parked {
		if i == maxNames {
			names = append(names, fmt.Sprintf("… %d more", len(parked)-maxNames))
			break
		}
		names = append(names, p.name)
	}
	where := ""
	if e.rank >= 0 {
		where = fmt.Sprintf("shard %d: ", e.rank)
	}
	return fmt.Sprintf("%s%d parked: %s", where, len(parked), strings.Join(names, ", "))
}

// RunFor runs events until the clock would pass now+d, leaving later events
// queued. It is primarily useful in tests that examine intermediate state.
// Like Run it refuses reentrant calls, honours Stop, and reports deadlock
// (the queue draining inside the window with coros still parked) — but it
// does not wind the coros down, so the caller can inspect state and then
// resume or finish with Run.
func (e *Engine) RunFor(d Time) error {
	if e.running {
		return errors.New("sim: Engine.RunFor called reentrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	deadline := e.now + d
	e.limited, e.limit = true, deadline
	defer func() { e.limited = false }()
	for e.queue.len() > 0 && !e.stopped && e.failure == nil {
		if e.queue.a[0].when > deadline {
			break
		}
		ev := e.queue.pop()
		e.now = ev.when
		e.trace("event")
		e.fire(&ev)
	}

	if e.failure != nil {
		return e.failure
	}
	if e.stopped {
		return nil
	}
	if e.queue.len() == 0 && len(e.live) > 0 {
		return e.deadlockError()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return nil
}

// runWindow executes events strictly before end: the shard-side half of
// one Sharded window. Unlike Run it performs no shutdown and reports no
// deadlock — a drained queue here only means this shard is waiting on
// cross-shard messages, which the coordinator's barrier may yet deliver;
// only the coordinator can see that every queue is dry. Inline
// advancement and spin fast-forwards are bounded to end-1 through the
// same limited/limit mechanism RunFor uses, so no coro can commit time
// at or past the barrier. The clock is left at the last fired event (not
// advanced to end): the next window's start is computed from queue
// heads, and a shard that fired nothing keeps its old clock.
func (e *Engine) runWindow(end Time) error {
	if e.running {
		return errors.New("sim: Engine.runWindow called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	e.limited, e.limit = true, end-1
	defer func() { e.limited = false }()
	for e.queue.len() > 0 && !e.stopped && e.failure == nil {
		if e.queue.a[0].when >= end {
			break
		}
		ev := e.queue.pop()
		e.now = ev.when
		e.trace("event")
		e.fire(&ev)
	}
	return e.failure
}

// nextEventTime reports the earliest pending event's time, or false when
// the queue is empty. The Sharded coordinator uses it between windows
// (never while the engine runs) to pick the next global window start.
func (e *Engine) nextEventTime() (Time, bool) {
	if e.queue.len() == 0 {
		return 0, false
	}
	return e.queue.a[0].when, true
}

// shutdown unwinds any coros that are still parked by resuming them with
// the kill flag set; each panics with errKilled, which its carrier absorbs.
// Coros unwind in spawn order (lowest id first) so kill-path traces and
// panic diagnostics are reproducible run to run — ranging over the live
// map would pick an arbitrary victim each iteration. It then stops the
// idle carriers, so the engine leaves no goroutine behind.
func (e *Engine) shutdown() {
	for len(e.live) > 0 {
		var c *Coro
		//simlint:allow maporder -- min-by-id selection reads every key; the result is iteration-order independent
		for k := range e.live {
			if c == nil || k.id < c.id {
				c = k
			}
		}
		c.killed = true
		e.dispatch(c)
	}
	for _, k := range e.free {
		k.stop()
	}
	e.free = nil
}

// dispatch transfers control to c until it yields, parks, or finishes.
// It must only be called from the engine side (event callbacks or Run).
// A coro's first dispatch binds it to an idle carrier (or a new one); a
// finished coro returns its carrier to the free list.
func (e *Engine) dispatch(c *Coro) {
	if e.attr != nil {
		e.attr.CoroDispatched(e.now)
	}
	k := c.car
	if k == nil {
		if n := len(e.free); n > 0 {
			k, e.free = e.free[n-1], e.free[:n-1]
		} else {
			k = newCarrier()
		}
		k.coro, c.car = c, k
	}
	k.next()
	if c.done {
		k.coro, c.car = nil, nil
		e.free = append(e.free, k)
	}
}

// fail records the first error raised by a Coro and stops the run.
func (e *Engine) fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
	e.stopped = true
}

// Attribution receives engine-mechanism notifications for the virtual-time
// profiler (internal/profile). Unlike the Tracer it does NOT force the
// engine's slow paths: inline wakeups and spin batching stay on while an
// Attribution is installed, so what it observes is mechanism (dispatch and
// fast-forward counts), which is mode-dependent and diagnostic only —
// virtual-time attribution itself happens at the thread layer and is
// identical across modes. Callbacks must not mutate simulated state.
type Attribution interface {
	// CoroDispatched fires on every real coroutine handoff.
	CoroDispatched(at Time)
	// SpinFastForward fires after a batched-spin commit of iters
	// iterations ending at virtual time at.
	SpinFastForward(at Time, iters int64)
}

// SetAttribution installs (or, with nil, removes) the attribution hook.
func (e *Engine) SetAttribution(a Attribution) { e.attr = a }

// Tracer receives one line per engine occurrence when tracing is enabled:
// event scheduling ("schedule"), event dispatch ("event"), and coro
// lifecycle. For debugging simulations; the callback must not mutate
// simulated state. internal/trace adapts its structured tracer to this
// hook via Tracer.EngineHook.
type Tracer func(at Time, what string)

// SetTracer installs (or, with nil, removes) the trace hook.
func (e *Engine) SetTracer(tr Tracer) { e.tracer = tr }

// trace emits one trace line if tracing is enabled.
func (e *Engine) trace(what string) {
	if e.tracer != nil {
		e.tracer(e.now, what)
	}
}
