package sim

import "sync/atomic"

// This file implements batched busy-wait probes: the contention-epoch
// fast path that simulates a spin loop's repeated futile iterations
// without a coroutine round-trip per charge and — inside a provably
// private window of virtual time — arithmetically, many iterations at
// once. The per-iteration slow path is preserved behind
// Engine.SetBatchedSpins(false) and is byte-identical in every simulated
// observable: (now, seq) stream, accessor accrual, module-contention
// accounting, and iteration counts. See DESIGN.md "Engine invariants"
// for the legality argument.

// SpinUnbounded as a SpinSpec.MaxIters means the loop spins until the
// probe succeeds.
const SpinUnbounded int64 = -1

// SpinSpec describes one busy-wait loop shape to Coro.SpinUntil:
//
//	for {
//		charge ProbeCell reference (if any)
//		if Probe() { return ok }
//		if MaxIters reached { return exhausted }
//		charge PauseCost()
//	}
//
// For the batched fast path to be exact the loop must satisfy the
// busy-wait contract:
//
//   - A futile Probe leaves simulated state unchanged (a test-and-set
//     that finds the word held sets no new bits), so re-running it while
//     no other context executes keeps failing with no side effect.
//   - Probe performs at most the one memory reference described by
//     ProbeCell/ProbeAtomic; it reads (and conditionally writes) state
//     via Peek/Poke — the charge has already been applied.
//   - PauseCost depends only on simulated state, so it is constant while
//     no other context runs.
//
// All of the package's locks satisfy the contract by construction; the
// differential spin suites verify the equivalence end to end.
type SpinSpec struct {
	// ProbeCell is the shared word one probe references, nil when the
	// probe inspects plain (uncharged) simulated state.
	ProbeCell *Cell
	// ProbeAtomic charges the probe as a read-modify-write (atomior)
	// instead of a plain reference.
	ProbeAtomic bool
	// Probe evaluates the exit condition at the instant the probe's
	// charge completes, mutating the cell via Peek/Poke if the loop's
	// real probe is a read-modify-write. It reports success.
	Probe func() bool
	// PauseCost is the busy-wait pause charged after each futile probe.
	PauseCost func() Time
	// MaxIters bounds the futile iterations (pauses) before SpinUntil
	// gives up; SpinUnbounded (negative) spins until Probe succeeds, 0
	// probes once and gives up immediately.
	MaxIters int64
	// Label names the loop for virtual-time attribution (e.g.
	// "spin:lock-a"); cthreads.Thread.SpinUntil brackets the loop with a
	// profiler frame when both a label and a profiler are present. Empty
	// means unattributed; the simulation itself never reads it.
	Label string
}

// SpinContext is the accessor-side contract SpinUntil needs beyond plain
// Accessor: splitting one Advance into scheduling-boundary-aware accrual
// steps, so the engine-side spin emulator charges time through exactly
// the same bookkeeping Advance would. cthreads.Thread implements it with
// quantum preemption; simpler accessors report no boundaries.
type SpinContext interface {
	Accessor
	// SpinAccrue books up to d of computation against the context and
	// returns how much was booked along with whether the context hit a
	// scheduling boundary (e.g. its timeslice expired) at the step's end.
	SpinAccrue(d Time) (step Time, boundary bool)
	// SpinBoundary handles a boundary hit by SpinAccrue: either the
	// context is descheduled (true — the caller must suspend until the
	// context is dispatched again) or the boundary is absorbed in place
	// (false).
	SpinBoundary() (descheduled bool)
	// SpinBudget reports how much computation the context can accrue
	// before its next scheduling boundary; MaxTime means no boundary.
	SpinBudget() Time
}

// noBatchDefault is the process-wide default for new engines (false =
// batching on); cmd binaries set it from -no-spin-batch before any
// simulation starts.
var noBatchDefault atomic.Bool

// SetDefaultBatchedSpins sets whether newly created engines batch spin
// probes. Existing engines are unaffected; SetBatchedSpins overrides
// per engine.
func SetDefaultBatchedSpins(on bool) { noBatchDefault.Store(!on) }

// SetBatchedSpins enables (the default) or disables the batched-spin
// fast path on this engine. Both settings produce byte-identical
// simulated histories — the differential spin suites prove it — so the
// only reason to turn it off is to exercise or measure the slow path.
// Tracer-installed engines take the slow path regardless, keeping the
// schedule/event stream complete.
func (e *Engine) SetBatchedSpins(on bool) { e.noBatch = !on }

// BatchedSpins reports whether the batched-spin fast path is enabled.
func (e *Engine) BatchedSpins() bool { return !e.noBatch }

// spinPC is the resume point of a suspended spin emulation.
type spinPC uint8

const (
	spinProbeStart    spinPC = iota // begin an iteration: reserve the probe's access
	spinAccrue                      // book the next accrual step of the current charge
	spinAfterSleep                  // a step's virtual time has elapsed; check the boundary
	spinAfterBoundary               // boundary handled (or none); continue the charge
	spinProbeEval                   // probe charge complete: evaluate the exit condition
	spinIterEnd                     // pause charge complete: an iteration finished
)

// spinWaitKind distinguishes what a suspended spin emulation is waiting
// for, so SpinUntil can set the coro's parked flag correctly.
type spinWait uint8

const (
	spinWaitNone     spinWait = iota
	spinWaitEvent             // a charge-completion event is queued
	spinWaitDispatch          // preempted; the processor will Unpark the coro
)

// spinState is the resumable state of one SpinUntil call. While the
// owning coro's body is suspended, the engine advances this state
// machine directly from fired events — the body is resumed only
// when the whole loop completes (or the coro is killed).
type spinState struct {
	c    *Coro
	ctx  SpinContext
	spec *SpinSpec

	pc   spinPC
	wait spinWait

	iters int64 // futile iterations (pauses) so far
	ok    bool  // probe succeeded (vs MaxIters exhausted)

	inProbe   bool // current charge is the probe's (vs the pause's)
	remaining Time // unbooked remainder of the current charge
	boundary  bool // last accrual step ended on a scheduling boundary

	probeBase Time // fixed access cost of one probe (0 when no cell)
	probeX    Time // atomic surcharge passed to reserveAccess

	// Steady-state detection for the closed-form fast-forward: an
	// iteration is "clean" when no suspension (i.e. no other context)
	// intervened from its probe reservation through its pause; two
	// consecutive clean iterations with equal (module delay, pause)
	// prove the per-iteration profile is fixed until the next event.
	clean                bool
	haveLast             bool
	lastDelay, lastPause Time
	curDelay, curPause   Time
}

// SpinUntil runs the busy-wait loop described by spec until its probe
// succeeds or MaxIters futile iterations have been charged, returning
// the futile-iteration count and whether the probe succeeded. Each
// iteration charges exactly what the open-coded loop would: one
// ProbeCell reference (with module queueing), then — if futile — one
// PauseCost of computation through ctx's accrual, preemption included.
//
// Fast path: the loop runs as an engine-side state machine, so charges
// that cannot accrue inline cost one event but no coroutine handoff, and
// once two consecutive iterations prove a fixed per-iteration profile,
// whole bursts of futile iterations are fast-forwarded arithmetically
// (see Engine.fastForwardSpin). With batching disabled, or with a tracer
// installed, the loop is open-coded per iteration instead; both paths
// produce byte-identical simulated histories.
func (c *Coro) SpinUntil(ctx SpinContext, spec *SpinSpec) (iters int64, ok bool) {
	e := c.eng
	if e.noBatch || e.tracer != nil {
		return c.spinSlow(ctx, spec)
	}
	s := spinState{c: c, ctx: ctx, spec: spec, pc: spinProbeStart}
	if cell := spec.ProbeCell; cell != nil {
		if spec.ProbeAtomic {
			s.probeX = cell.m.cfg.AtomicExtra
		}
		s.probeBase = cell.m.AccessCost(ctx.Node(), cell.node) + s.probeX
	}
	if e.runSpin(&s) {
		return s.iters, s.ok
	}
	// Suspended: move the state to the heap, hand the coro to the
	// engine, and let fired events drive the emulation to completion.
	hs := new(spinState)
	*hs = s
	c.spin = hs
	c.yieldToEngine()
	c.spin = nil
	return hs.iters, hs.ok
}

// spinSlow is the per-iteration open-coded loop: the reference
// implementation the emulator must match byte for byte.
func (c *Coro) spinSlow(ctx SpinContext, spec *SpinSpec) (iters int64, ok bool) {
	//simlint:allow rawspin -- this IS the reference spin loop that SpinUntil and the fast-forward must match
	for {
		if cell := spec.ProbeCell; cell != nil {
			extra := Time(0)
			if spec.ProbeAtomic {
				extra = cell.m.cfg.AtomicExtra
			}
			cell.m.chargeAccess(ctx, cell.node, extra)
		}
		if spec.Probe() {
			return iters, true
		}
		if spec.MaxIters >= 0 && iters >= spec.MaxIters {
			return iters, false
		}
		iters++
		p := spec.PauseCost()
		ctx.Advance(p)
	}
}

// runSpin advances a spin emulation until it completes (true) or must
// suspend awaiting an event or redispatch (false). It is called first
// synchronously from SpinUntil and then from Engine.fire each time one
// of the coro's events pops while c.spin is set.
//
// Each charge is booked through SpinContext.SpinAccrue in
// boundary-bounded steps, each step advancing virtual time exactly as
// the equivalent Coro.Sleep would: inline when the engine's self-wakeup
// conditions hold (one seq bump, clock forward), otherwise by scheduling
// a continuation event carrying the coro — the same (when, seq) the slow
// path's sleep event would occupy, so downstream tie-breaking is
// unchanged.
func (e *Engine) runSpin(s *spinState) bool {
	for {
		switch s.pc {
		case spinProbeStart:
			s.clean = true
			if cell := s.spec.ProbeCell; cell != nil {
				cost, delay := cell.m.reserveAccess(s.ctx.Node(), cell.node, s.probeX)
				s.curDelay = delay
				s.remaining = cost
				s.inProbe = true
				s.pc = spinAccrue
			} else {
				s.curDelay = 0
				s.pc = spinProbeEval
			}

		case spinAccrue:
			step, boundary := s.ctx.SpinAccrue(s.remaining)
			s.remaining -= step
			s.boundary = boundary
			s.pc = spinAfterSleep
			when := e.now + step
			if e.noInline || !e.canInline(when) {
				e.afterCoro(step, s.c)
				s.clean = false
				s.wait = spinWaitEvent
				return false
			}
			e.advanceInline(when)

		case spinAfterSleep:
			s.wait = spinWaitNone
			s.pc = spinAfterBoundary
			if s.boundary && s.ctx.SpinBoundary() {
				// Preempted mid-charge: the processor's next dispatch of
				// this context resumes the emulation via Unpark.
				s.clean = false
				s.wait = spinWaitDispatch
				s.c.parked = true
				return false
			}

		case spinAfterBoundary:
			s.wait = spinWaitNone
			if s.remaining > 0 {
				s.pc = spinAccrue
				continue
			}
			if s.inProbe {
				s.pc = spinProbeEval
			} else {
				s.pc = spinIterEnd
			}

		case spinProbeEval:
			if s.spec.Probe() {
				s.ok = true
				return true
			}
			if max := s.spec.MaxIters; max >= 0 && s.iters >= max {
				s.ok = false
				return true
			}
			s.iters++
			p := s.spec.PauseCost()
			if p < 0 {
				p = 0
			}
			s.curPause = p
			s.remaining = p
			s.inProbe = false
			s.pc = spinAccrue

		case spinIterEnd:
			if s.clean {
				if s.haveLast && s.lastDelay == s.curDelay && s.lastPause == s.curPause {
					e.fastForwardSpin(s)
				}
				s.haveLast = true
				s.lastDelay, s.lastPause = s.curDelay, s.curPause
			} else {
				// A suspension intervened: other contexts may have run, so
				// the measured profile cannot be paired across it.
				s.haveLast = false
			}
			s.pc = spinProbeStart
		}
	}
}

// maxSpinBatch bounds one fast-forward so the seq arithmetic below can
// never overflow; longer spins simply fast-forward again next iteration.
const maxSpinBatch = int64(1) << 40

// fastForwardSpin is the contention-epoch fast path: having observed two
// consecutive iterations with identical (module delay D, pause P) and no
// intervening suspension, every further iteration up to the next event
// is provably identical — no other context can run inside the window, so
// the probe stays futile, PauseCost stays P, and the module recurrence
// start = max(free, now) stays in the same regime (D = max(0, service −
// base − P) from the second iteration on). It therefore advances k whole
// iterations of length L = probeBase + D + P in one step:
//
//	k    = ⌊window / L⌋ bounded by MaxIters
//	now += k·L, seq += k·(charges per iteration)
//	ctx accrues k·L of computation (busy time, timeslice)
//	module: accesses += k, queueDelay += k·D, free += k·L
//
// window is bounded by the next queued event (strictly: an equal-time
// event would fire first), RunFor's deadline (inclusive), and the
// context's remaining timeslice (strictly: the boundary iteration runs
// per charge), so every skipped charge individually satisfied the inline
// self-wakeup conditions and the (now, seq) stream is byte-identical to
// charging them one by one.
func (e *Engine) fastForwardSpin(s *spinState) {
	if e.noInline || e.tracer != nil || e.stopped {
		return
	}
	L := s.probeBase + s.curDelay + s.curPause
	if L <= 0 {
		// Zero-length iterations make no progress on any path; leave the
		// per-iteration loop to preserve the slow path's semantics.
		return
	}
	end := MaxTime
	bounded := false
	if e.queue.len() > 0 {
		end = e.queue.a[0].when - 1
		bounded = true
	}
	if e.limited && e.limit < end {
		end = e.limit
		bounded = true
	}
	if b := s.ctx.SpinBudget(); b != MaxTime && b-1 < end-e.now {
		end = e.now + b - 1
		bounded = true
	}
	var k int64
	if bounded {
		if end <= e.now {
			return
		}
		k = int64((end - e.now) / L)
	} else if s.spec.MaxIters < 0 {
		// Nothing bounds the loop: the slow path would spin forever, so
		// must we (per iteration, keeping the hang observable).
		return
	} else {
		k = maxSpinBatch
	}
	if s.spec.MaxIters >= 0 {
		if rem := s.spec.MaxIters - s.iters; rem < k {
			k = rem
		}
	}
	if lim := int64((MaxTime - 1 - e.now) / L); k > lim {
		k = lim
	}
	if k > maxSpinBatch {
		k = maxSpinBatch
	}
	if k <= 0 {
		return
	}

	total := Time(k) * L
	chargesPerIter := int64(1)
	if s.spec.ProbeCell != nil {
		chargesPerIter++
	}
	e.seq += uint64(k * chargesPerIter)
	e.now += total
	step, boundary := s.ctx.SpinAccrue(total)
	if step != total || boundary {
		panic("sim: spin fast-forward crossed a scheduling boundary")
	}
	if cell := s.spec.ProbeCell; cell != nil {
		m := cell.m
		m.accesses[cell.node] += uint64(k)
		if m.cfg.ModuleService > 0 {
			m.queueDelay[cell.node] += Time(k) * s.curDelay
			m.moduleFree[cell.node] += total
		}
	}
	s.iters += k
	e.spinFastForwards++
	e.spinBatchedIters += uint64(k)
	if e.attr != nil {
		e.attr.SpinFastForward(e.now, k)
	}
}
