package locks

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cthreads"
)

// MethodImpl is the retargetable lock's reconfigurable method: which lock
// implementation serves the callers. Its variants are the factory kinds,
// so an adaptation policy can retarget a lock onto any registered
// implementation — including the predictive mutable lock and the NUMA
// cohort lock — at run time, with each retargeting decision flowing
// through Object.Apply and into the adaptation ledger.
const MethodImpl = "impl"

// RetargetableLock wraps a factory-built lock behind a reconfigurable
// "impl" method. Callers Lock/Unlock as usual; a policy (fed by the
// waiting sensor, probed on every other release) may decide to install a
// different implementation variant. The swap itself is applied at
// quiescence — the first moment no thread is between Lock entry and
// Unlock exit — so waiters registered with the old implementation are
// always drained by it, never stranded.
type RetargetableLock struct {
	name  string
	sys   *cthreads.System
	node  int
	costs Costs
	obj   *core.Object

	cur     Lock
	curKind Kind
	gen     int
	// inFlight counts threads between Lock entry and Unlock exit (a plain
	// int is race-free: simulated threads interleave cooperatively).
	inFlight int
	// waiters counts threads inside the inner Lock call (the sensor).
	waiters  int
	switches uint64
	agg      Stats
	// frameAdapt attributes the inline monitor-sample work in Unlock.
	frameAdapt string
}

// NewRetargetableLock builds a retargetable lock starting from the given
// initial kind. A nil policy leaves it externally reconfigurable only
// (via Object().Apply with a MethodImpl decision).
func NewRetargetableLock(sys *cthreads.System, node int, name string, costs Costs, initial Kind, policy core.Policy) (*RetargetableLock, error) {
	l := &RetargetableLock{
		name:       name,
		sys:        sys,
		node:       node,
		costs:      costs,
		curKind:    initial,
		frameAdapt: "adapt:" + name,
	}
	l.obj = core.NewObject(name)
	l.obj.Methods.Define(MethodImpl, 1, KindNames()...)
	if _, err := l.obj.Methods.Install(MethodImpl, string(initial)); err != nil {
		return nil, err
	}
	l.obj.Monitor.AddSensor(SensorWaiting, 2, func() int64 { return int64(l.waiters) })
	l.obj.SetPolicy(policy)
	l.obj.SetObserver(sys.Observer())
	inner, err := New(sys, initial, node, l.innerName(initial), costs)
	if err != nil {
		return nil, err
	}
	l.cur = inner
	return l, nil
}

// innerName names one generation's inner lock (cells want unique names).
func (l *RetargetableLock) innerName(kind Kind) string {
	return fmt.Sprintf("%s#%d.%s", l.name, l.gen, kind)
}

// Object exposes the adaptive object (the impl method, the waiting
// sensor, the policy) for inspection and external reconfiguration.
func (l *RetargetableLock) Object() *core.Object { return l.obj }

// Current reports the kind currently serving callers (a decided but
// not-yet-quiescent retarget does not change it).
func (l *RetargetableLock) Current() Kind { return l.curKind }

// Switches reports how many retargets have been applied.
func (l *RetargetableLock) Switches() uint64 { return l.switches }

// Name returns the lock's name.
func (l *RetargetableLock) Name() string { return l.name }

// Stats sums the retired generations' counters with the current inner
// lock's.
func (l *RetargetableLock) Stats() Stats {
	s := l.cur.Stats()
	s.Acquisitions += l.agg.Acquisitions
	s.Contended += l.agg.Contended
	s.Blocks += l.agg.Blocks
	s.SpinIters += l.agg.SpinIters
	s.TotalWait += l.agg.TotalWait
	s.RemoteTransfers += l.agg.RemoteTransfers
	if l.agg.MaxWaiting > s.MaxWaiting {
		s.MaxWaiting = l.agg.MaxWaiting
	}
	return s
}

// trySwap applies a pending retarget if the lock is quiescent: it retires
// the current implementation's stats and builds the installed variant,
// charging the acting thread the scheduler-reconfiguration cost.
func (l *RetargetableLock) trySwap(t *cthreads.Thread) {
	installed, err := l.obj.Methods.Installed(MethodImpl)
	if err != nil || Kind(installed) == l.curKind || l.inFlight != 0 {
		return
	}
	old := l.cur.Stats()
	l.agg.Acquisitions += old.Acquisitions
	l.agg.Contended += old.Contended
	l.agg.Blocks += old.Blocks
	l.agg.SpinIters += old.SpinIters
	l.agg.TotalWait += old.TotalWait
	l.agg.RemoteTransfers += old.RemoteTransfers
	if old.MaxWaiting > l.agg.MaxWaiting {
		l.agg.MaxWaiting = old.MaxWaiting
	}
	l.gen++
	l.curKind = Kind(installed)
	l.cur = MustNew(l.sys, l.curKind, l.node, l.innerName(l.curKind), l.costs)
	l.switches++
	// The swap is the §5.2 scheduler reconfiguration: fixed steps plus
	// the five references that write the subcomponents and toggle the
	// draining flag (Table 8).
	t.Compute(configureSchedSteps)
	t.Advance(5 * l.sys.Machine().AccessCost(t.Node(), l.node))
}

// Lock acquires the current implementation, applying a pending retarget
// first if the lock is idle.
func (l *RetargetableLock) Lock(t *cthreads.Thread) {
	l.trySwap(t)
	l.inFlight++
	l.waiters++
	l.cur.Lock(t)
	l.waiters--
}

// Unlock releases the current implementation, probes the waiting sensor
// (feeding the retargeting policy), and applies a pending retarget if this
// release left the lock idle.
func (l *RetargetableLock) Unlock(t *cthreads.Thread) {
	l.cur.Unlock(t)
	l.inFlight--
	if p := t.Prof(); p != nil {
		p.Push(t.Now(), l.frameAdapt)
	}
	if _, ok := l.obj.Monitor.Probe(SensorWaiting); ok {
		t.Compute(l.costs.MonitorSampleSteps)
		t.Advance(2 * l.sys.Machine().AccessCost(t.Node(), l.node))
	}
	if p := t.Prof(); p != nil {
		p.Pop(t.Now(), l.frameAdapt)
	}
	l.trySwap(t)
}

// ImplAdapt returns the retargeting policy used by the experiments: serve
// light contention with the calm kind and heavy contention (waiting count
// above the threshold) with the busy kind.
func ImplAdapt(calm, busy Kind, threshold int64) core.Policy {
	return core.SchedulerAdapt{
		Method:         MethodImpl,
		Calm:           string(calm),
		Busy:           string(busy),
		QueueThreshold: threshold,
	}
}
