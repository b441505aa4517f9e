package sim

import "sync/atomic"

// This file implements batched busy-wait probes: the contention-epoch
// fast path that simulates a spin loop's repeated futile iterations
// without a coroutine round-trip per charge and — inside a window of
// virtual time where only steady spinners' futile charges fire —
// arithmetically, many iterations of every such spinner at once. The
// per-iteration slow path is preserved behind
// Engine.SetBatchedSpins(false) and is byte-identical in every simulated
// observable: (now, seq) stream, accessor accrual, module-contention
// accounting, and iteration counts. See DESIGN.md "Batched spin
// emulation and the contention-epoch fast-forward" for the legality
// argument.

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

	iters     int64 // futile iterations (pauses) so far
	remaining Time  // unbooked remainder of the current charge
	probeBase Time  // fixed access cost of one probe (0 when no cell)
	probeX    Time  // atomic surcharge passed to reserveAccess

	// Steady-state detection for the set commit: mark is the engine's
	// disturbance count when the current iteration began, so an iteration
	// is clean when the count has not moved by its end. steady records
	// that the last two iterations were clean with equal (module delay,
	// pause), which proves the per-iteration profile fixed until the next
	// disturbance.
	mark                 uint64
	lastDelay, lastPause Time
	curDelay, curPause   Time
	steady, haveLast     bool

	// The one-byte fields share the last word, so every suspended spin
	// allocates one 112-byte object.
	pc       spinPC
	wait     spinWait
	ok       bool // probe succeeded (vs MaxIters exhausted)
	inProbe  bool // current charge is the probe's (vs the pause's)
	boundary bool // last accrual step ended on a scheduling boundary
	// queued marks a probe that reserves a contended memory module
	// (ModuleService > 0): its reservations disturb every other spinner.
	queued bool
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
// whole bursts of futile iterations — this spinner's and those of every
// other steady spinner they interleave with — are committed
// arithmetically (see Engine.commitSpinSet). With batching disabled, or
// with a tracer installed, the loop is open-coded per iteration instead;
// both paths produce byte-identical simulated histories.
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
		s.queued = cell.m.cfg.ModuleService > 0
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
			if cell := s.spec.ProbeCell; cell != nil {
				if s.queued {
					// A contended module couples every spinner probing it.
					e.disturb++
				}
				cost, delay := cell.m.reserveAccess(s.ctx.Node(), cell.node, s.probeX)
				s.curDelay = delay
				s.remaining = cost
				s.inProbe = true
				s.pc = spinAccrue
			} else {
				s.curDelay = 0
				s.pc = spinProbeEval
			}
			s.mark = e.disturb

		case spinAccrue:
			step, boundary := s.ctx.SpinAccrue(s.remaining)
			s.remaining -= step
			s.boundary = boundary
			s.pc = spinAfterSleep
			when := e.now + step
			if e.noInline || !e.canInline(when) {
				e.afterCoro(step, s.c)
				s.wait = spinWaitEvent
				return false
			}
			e.advanceInline(when)

		case spinAfterSleep:
			s.wait = spinWaitNone
			s.pc = spinAfterBoundary
			if s.boundary {
				e.disturb++
				if s.ctx.SpinBoundary() {
					// Preempted mid-charge: the processor's next dispatch of
					// this context resumes the emulation via Unpark.
					s.wait = spinWaitDispatch
					s.c.parked = true
					return false
				}
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
				e.disturb++
				s.ok = true
				return true
			}
			if max := s.spec.MaxIters; max >= 0 && s.iters >= max {
				e.disturb++
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
			clean := s.mark == e.disturb
			wasSteady := s.steady
			s.steady = clean && s.haveLast && s.lastDelay == s.curDelay && s.lastPause == s.curPause
			s.haveLast = clean
			s.lastDelay, s.lastPause = s.curDelay, s.curPause
			if s.steady {
				if !wasSteady {
					e.steadyGen++
				}
				e.commitSpinSet(s)
			}
			s.pc = spinProbeStart
		}
	}
}

// maxSpinBatch bounds one commit so the seq arithmetic below can never
// overflow: a committing spinner skips at most this many iterations, and
// a commit with other members spans at most this much virtual time.
// Longer spins simply commit again at a later iteration end.
const maxSpinBatch = int64(1) << 40

// spinMember is one spinner of a set commit, described by its firings
// from the window start. Firing 0 is the committing spinner's current
// iteration end, or another member's queued charge completion; firing
// n ≥ 1 completes the charge firing n−1 started. Every firing starts
// exactly one charge, and the charges alternate c1, c2 (a spinner
// without a probe cell charges only its pause, so c1 = c2).
type spinMember struct {
	// s is the member's emulation state, nil for the committer (whose
	// state stays off the heap so SpinUntil's copy does not escape).
	s   *spinState
	idx int // heap index of the queued event
	// w0, a0, s0 are firing 0's (when, at, seq). The committer's a0 is −1:
	// its current firing precedes every queued event.
	w0, a0 Time
	s0     uint64
	c1, c2 Time
	// probeFirst reports that firing 0 completes a probe (vs a pause);
	// probeless that the spinner has no probe cell.
	probeFirst, probeless bool
	// n is the number of firings ordered before the cut; seq is the
	// sequence number the charge started by firing n−1 receives.
	n   int64
	seq uint64
}

// when is the virtual time of firing n.
func (m *spinMember) when(n int64) Time {
	return m.w0 + Time(n>>1)*(m.c1+m.c2) + Time(n&1)*m.c1
}

// at is the schedule instant of firing n: the previous firing's time.
func (m *spinMember) at(n int64) Time {
	if n == 0 {
		return m.a0
	}
	return m.when(n - 1)
}

// count reports how many firings happen strictly before x.
func (m *spinMember) count(x Time) int64 {
	if x <= m.w0 {
		return 0
	}
	d := x - m.w0 - 1
	period := m.c1 + m.c2
	n := 2*int64(d/period) + 1
	if d%period >= m.c1 {
		n++
	}
	return n
}

// probes reports how many of the first n firings complete a probe, i.e.
// how many futile probe evaluations (iterations) they run.
func (m *spinMember) probes(n int64) int64 {
	switch {
	case m.probeless:
		return n
	case m.probeFirst:
		return (n + 1) / 2
	default:
		return n / 2
	}
}

// firingLess reports whether firing n of x is dispatched before firing m
// of y, two different spinners' firings at the same time. The engine
// orders events by (when, at, seq), and a firing's seq is one past the
// rank of the firing that scheduled it, which happened at its at: so an
// (at, seq) tie is the previous firings' order. Window-started charges
// carry seqs above every queued event's, and queued events keep their
// own. Two progressions of period 2 that tie twice in a row charge
// identically all the way back, so the walk then jumps to the first
// spinner's window start.
func firingLess(x *spinMember, n int64, y *spinMember, m int64) bool {
	for tied := 0; ; tied++ {
		ax, ay := x.at(n), y.at(m)
		if ax != ay {
			return ax < ay
		}
		if n == 0 || m == 0 {
			if n == 0 && m == 0 {
				return x.s0 < y.s0
			}
			return n == 0
		}
		n, m = n-1, m-1
		if tied == 1 {
			d := min(n, m)
			n, m = n-d, m-d
		}
	}
}

// rank reports how many firings of the set are dispatched before firing
// n of set[x].
func rank(set []spinMember, x int, n int64) int64 {
	w := set[x].when(n)
	r := n
	for y := range set {
		if y == x {
			continue
		}
		c := set[y].count(w)
		if set[y].when(c) == w && firingLess(&set[y], c, &set[x], n) {
			c++
		}
		r += c
	}
	return r
}

// spinMemberOf describes the queued event at heap index i as a set
// member, or reports false when it is anything but the futile charge
// completion of a steady, unqueued spinner that no disturbance has
// reached since its current iteration began.
func (e *Engine) spinMemberOf(i int) (spinMember, bool) {
	ev := &e.queue.a[i]
	c := ev.coro
	if c == nil || c.killed {
		return spinMember{}, false
	}
	s := c.spin
	if s == nil || s.wait != spinWaitEvent || s.boundary || s.remaining != 0 ||
		!s.steady || s.mark != e.disturb || s.queued {
		return spinMember{}, false
	}
	if !s.inProbe && s.curPause != s.lastPause {
		return spinMember{}, false
	}
	m := spinMember{s: s, idx: i, w0: ev.when, a0: ev.at, s0: ev.seq,
		probeFirst: s.inProbe, probeless: s.spec.ProbeCell == nil}
	switch {
	case m.probeless:
		m.c1, m.c2 = s.curPause, s.curPause
	case s.inProbe:
		m.c1, m.c2 = s.curPause, s.probeBase
	default:
		m.c1, m.c2 = s.probeBase, s.curPause
	}
	if m.c1 <= 0 || m.c2 <= 0 {
		return spinMember{}, false
	}
	return m, true
}

// memberBound tightens the exclusive bound on the cut so that none of
// m's firings before it crosses m's scheduling boundary or exhausts its
// MaxIters: the firing that would is pinned after the cut, where it runs
// per charge.
func memberBound(m *spinMember, bound Time) Time {
	s := m.s
	if b := s.ctx.SpinBudget(); b != MaxTime {
		// The queued charge is already booked; every charge the commit
		// starts for m must end strictly inside the remaining budget.
		if b <= 0 {
			return m.w0
		}
		if b <= MaxTime-m.w0 {
			if x := m.when(m.count(m.w0+b) - 1); x < bound {
				bound = x
			}
		}
	}
	if max := s.spec.MaxIters; max >= 0 {
		c := m.count(bound)
		if rem := max - s.iters; rem < c {
			// The first firing whose probe evaluation sees iters ≥ max.
			x := rem
			if s.spec.ProbeCell != nil {
				x = 2 * rem
				if !m.probeFirst {
					x++
				}
			}
			if x < c {
				bound = m.when(x)
			}
		}
	}
	return bound
}

// commitSpinSet is the contention-epoch fast path. s has just ended an
// iteration that proves it steady; the engine collects every queued
// event before a horizon H that is a futile charge completion of another
// steady spinner (spinMemberOf), and advances all of them, plus s, to a
// common cut at one of s's iteration ends in closed form.
//
// Nothing but the members' own futile charges can fire before H: H is
// the earliest queued event that is not a member, each member's slice
// end and MaxIters exhaustion (memberBound), s's own, and the RunFor or
// shard-window limit. Inside that window no simulated state changes —
// a futile probe writes nothing new and PauseCost only reads — so every
// member's iterations keep the steady profile, and each firing starts
// exactly one charge. The cut is the k-th iteration end of s after now:
//
//	k       = ⌊(H − 1 − now) / L⌋ bounded by MaxIters, L = probe + pause
//	members: n = firings dispatched before the cut, in (when, at, seq)
//	         order (rank and firingLess)
//	now     = now + k·L, seq += k·(charges per iteration) + Σ n
//
// and each member with n > 0 is re-stamped to the charge its last
// committed firing started: (its when, that firing's time, base + 1 +
// that firing's rank). Busy time and slices accrue in one SpinAccrue per
// member, module access counts in one add. A spinner whose probe queues
// at a contended module (ModuleService > 0) couples with every other
// prober, so it is committed only alone, with its delay D folded into
// the module's queue delay and reservation exactly as k per-charge trips
// would. Refused attempts are remembered until the disturbance count or
// the steady population changes. The (now, seq) stream is byte-identical
// to charging every skipped firing one by one.
func (e *Engine) commitSpinSet(s *spinState) {
	if e.noInline || e.tracer != nil || e.stopped {
		return
	}
	if e.refused && e.refusedDisturb == e.disturb && e.refusedGen == e.steadyGen {
		return
	}
	cell := s.spec.ProbeCell
	P := Time(0)
	if cell != nil {
		P = s.probeBase + s.curDelay
	}
	Q := s.curPause
	L := P + Q
	if L <= 0 {
		// Zero-length iterations make no progress on any path; leave the
		// per-iteration loop to preserve the slow path's semantics.
		return
	}
	t0 := e.now
	bound := MaxTime // exclusive bound on the cut
	if e.limited && e.limit < bound-1 {
		bound = e.limit + 1
	}
	if b := s.ctx.SpinBudget(); b != MaxTime && b < bound-t0 {
		bound = t0 + b
	}
	self := spinMember{idx: -1, w0: t0, a0: -1, c1: P, c2: Q, probeless: cell == nil}
	if cell == nil {
		self.c1 = Q
	}
	set := append(e.spinSet[:0], self)
	grouped := !s.queued && self.c1 > 0 && Q > 0
	// Breadth-first over the 4-ary heap from the root, descending only
	// below members earlier than the bound: heap order puts everything
	// beneath a later node later still, and BFS visits indices in
	// increasing order, which the re-stamping below relies on.
	walk := e.spinWalk[:0]
	if e.queue.len() > 0 {
		walk = append(walk, 0)
	}
	for h := 0; h < len(walk); h++ {
		i := walk[h]
		if e.queue.a[i].when >= bound {
			continue
		}
		if grouped {
			if m, ok := e.spinMemberOf(i); ok {
				set = append(set, m)
				bound = memberBound(&set[len(set)-1], bound)
				for c := 4*i + 1; c <= 4*i+4 && c < e.queue.len(); c++ {
					walk = append(walk, c)
				}
				continue
			}
		}
		bound = e.queue.a[i].when
	}
	e.spinSet, e.spinWalk = set, walk

	var k int64
	if bound == MaxTime {
		if s.spec.MaxIters < 0 {
			// Nothing bounds the loop: the slow path would spin forever, so
			// must we (per iteration, keeping the hang observable).
			e.refuseSpinSet()
			return
		}
		k = maxSpinBatch
	} else if bound-1 > t0 {
		k = int64((bound - 1 - t0) / L)
	}
	if max := s.spec.MaxIters; max >= 0 && max-s.iters < k {
		k = max - s.iters
	}
	if lim := int64((MaxTime - 1 - t0) / L); k > lim {
		k = lim
	}
	if k > maxSpinBatch {
		k = maxSpinBatch
	}
	if span := maxSpinBatch / int64(L); len(set) > 1 && k > span {
		k = span
	}
	if k <= 0 {
		e.refuseSpinSet()
		return
	}

	cut := t0 + Time(k)*L
	fired := k // the committer's firings before the cut
	if cell != nil {
		fired = 2 * k
	}
	total := fired
	for j := 1; j < len(set); j++ {
		m := &set[j]
		n := m.count(cut)
		if m.when(n) == cut && firingLess(m, n, &set[0], fired) {
			n++
		}
		m.n = n
		total += n
	}
	base := e.seq
	for j := 1; j < len(set); j++ {
		if m := &set[j]; m.n > 0 {
			m.seq = base + 1 + uint64(rank(set, j, m.n-1))
		}
	}

	e.seq = base + uint64(total)
	e.now = cut
	set[0].n = fired
	for j := range set {
		m := &set[j]
		if m.n == 0 {
			continue
		}
		ms := m.s
		if j == 0 {
			ms = s
		}
		when := m.when(m.n)
		busy := when - m.w0
		if step, boundary := ms.ctx.SpinAccrue(busy); step != busy || boundary {
			panic("sim: spin set commit crossed a scheduling boundary")
		}
		iters := m.probes(m.n)
		if c := ms.spec.ProbeCell; c != nil {
			c.m.accesses[c.node] += uint64(m.n - iters)
		}
		if iters > 0 {
			ms.iters += iters
			e.spinFastForwards++
			e.spinBatchedIters += uint64(iters)
			if e.attr != nil {
				e.attr.SpinFastForward(cut, iters)
			}
		}
		if j == 0 {
			continue
		}
		if !m.probeless {
			// The queued charge is the one the last committed firing
			// started: a pause after a probe completion, else a probe.
			lastProbe := ((m.n-1)%2 == 0) == m.probeFirst
			ms.inProbe = !lastProbe
		}
		ev := &e.queue.a[m.idx]
		ev.when, ev.at, ev.seq = when, m.when(m.n-1), m.seq
	}
	if s.queued {
		m := cell.m
		m.queueDelay[cell.node] += Time(k) * s.curDelay
		m.moduleFree[cell.node] += Time(k) * L
	}
	// Keys only grew; restoring order bottom-up (members were found in
	// increasing index order) leaves a valid heap.
	for j := len(set) - 1; j >= 1; j-- {
		if set[j].n > 0 {
			e.queue.down(set[j].idx)
		}
	}
}

// refuseSpinSet remembers a refused commit until the disturbance count
// or the steady population moves.
func (e *Engine) refuseSpinSet() {
	e.refused, e.refusedDisturb, e.refusedGen = true, e.disturb, e.steadyGen
}
