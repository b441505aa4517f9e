package locks

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cthreads"
	"repro/internal/sim"
)

// lockFingerprint is every simulated quantity a lock workload produces;
// spin batching must leave all of it byte-identical.
type lockFingerprint struct {
	FinalNow sim.Time
	Lock     Stats
	Sched    cthreads.Stats
	Busy     []sim.Time
	Accesses []uint64
	QueueDel []sim.Time
	Counter  int
}

// lockBuilder constructs the lock under test in a fresh system.
type lockBuilder struct {
	name  string
	build func(sys *cthreads.System) Lock
}

// spinBatchBuilders covers every busy-wait structure in the package: the
// raw TAS loop, the registered spin lock, exponential backoff (whose
// pause depends on the waiter count), the MCS-style local-spin queue, the
// reconfigurable lock in pure-spin and spin-then-block trims plus the
// adaptive lock that reconfigures mid-run, the predictive mutable lock,
// the NUMA cohort lock, and a retargetable lock that swaps mutable↔cohort
// from the waiting sensor mid-run.
func spinBatchBuilders() []lockBuilder {
	return []lockBuilder{
		{"tas", func(sys *cthreads.System) Lock { return NewTASLock(sys, 0, "tas", DefaultCosts()) }},
		{"spin", func(sys *cthreads.System) Lock { return NewSpinLock(sys, 0, "spin", DefaultCosts()) }},
		{"backoff", func(sys *cthreads.System) Lock { return NewBackoffSpinLock(sys, 0, "backoff", DefaultCosts()) }},
		{"mcs", func(sys *cthreads.System) Lock { return NewLocalSpinLock(sys, 0, "mcs", DefaultCosts()) }},
		{"pure-spin", func(sys *cthreads.System) Lock { return NewPureSpinConfigured(sys, 0, "pure-spin", DefaultCosts()) }},
		{"combined-10", func(sys *cthreads.System) Lock { return NewCombinedLock(sys, 0, "combined", DefaultCosts(), 10) }},
		{"adaptive", func(sys *cthreads.System) Lock { return NewAdaptiveLock(sys, 0, "adaptive", DefaultCosts(), nil) }},
		{"mutable", func(sys *cthreads.System) Lock { return NewMutableLock(sys, 0, "mutable", DefaultCosts()) }},
		{"cohort", func(sys *cthreads.System) Lock { return NewCohortLock(sys, 0, "cohort", DefaultCosts()) }},
		{"retarget", func(sys *cthreads.System) Lock {
			l, err := NewRetargetableLock(sys, 0, "retarget", DefaultCosts(), KindMutable, ImplAdapt(KindMutable, KindCohort, 2))
			if err != nil {
				panic(err)
			}
			return l
		}},
	}
}

// runLockWorkload drives nThreads × nIters contended critical sections
// over the built lock and fingerprints the run.
func runLockWorkload(t testing.TB, cfg sim.Config, b lockBuilder, nThreads, nIters int, batched bool) lockFingerprint {
	t.Helper()
	sys := cthreads.New(cfg)
	sys.Engine().SetBatchedSpins(batched)
	return driveLockWorkload(t, sys, cfg, b, nThreads, nIters)
}

// driveLockWorkload runs the workload on an already-configured system
// (engine modes set by the caller) and fingerprints the run.
func driveLockWorkload(t testing.TB, sys *cthreads.System, cfg sim.Config, b lockBuilder, nThreads, nIters int) lockFingerprint {
	t.Helper()
	l := b.build(sys)
	var fp lockFingerprint
	for i := 0; i < nThreads; i++ {
		sys.Fork(i%sys.Procs(), fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			r := th.Rand()
			for j := 0; j < nIters; j++ {
				l.Lock(th)
				th.Advance(sim.Time(50 + r.Intn(300)))
				fp.Counter++
				l.Unlock(th)
				th.Advance(sim.Time(r.Intn(500)))
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("%s: %v", b.name, err)
	}
	fp.FinalNow = sys.Now()
	fp.Lock = l.Stats()
	fp.Sched = sys.Stats()
	for _, th := range sys.Threads() {
		fp.Busy = append(fp.Busy, th.Busy())
	}
	m := sys.Machine()
	for n := 0; n < cfg.Nodes; n++ {
		fp.Accesses = append(fp.Accesses, m.ModuleAccesses(n))
		fp.QueueDel = append(fp.QueueDel, m.ModuleQueueDelay(n))
	}
	return fp
}

// spinBatchConfigs are the machine shapes the differential runs under:
// the fast test machine, the hot-spot machine (module contention feeds
// back into probe costs), a quantum-limited multiprogrammed machine, and
// Figure 1's shape — eight GP1000 nodes, a 1 ms quantum and three
// threads per processor — where spinners on different nodes interleave
// with mixed local and remote probe periods.
func spinBatchConfigs() []struct {
	name    string
	cfg     sim.Config
	threads int
} {
	fast := sim.Config{
		Nodes: 4, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5,
		Instr: 1, ContextSwitch: 100, Wakeup: 200, Seed: 1,
	}
	hot := sim.HotSpotConfig()
	hot.Nodes = 4
	hot.Seed = 1
	quantum := fast
	quantum.Quantum = 30 * sim.Microsecond
	figure1 := sim.DefaultConfig()
	figure1.Nodes = 8
	figure1.Quantum = 1 * sim.Millisecond
	return []struct {
		name    string
		cfg     sim.Config
		threads int
	}{
		{"fast", fast, 4},
		{"hotspot", hot, 4},
		{"quantum", quantum, 8},  // 2 threads per processor
		{"figure1", figure1, 24}, // 3 threads per processor
	}
}

// TestSpinBatchingLockDifferential fingerprints every lock kind × machine
// shape with batching on and off: simulated time, lock statistics,
// scheduler statistics, per-thread busy time, and per-module contention
// accounting must not drift by a single unit.
func TestSpinBatchingLockDifferential(t *testing.T) {
	for _, tc := range spinBatchConfigs() {
		for _, b := range spinBatchBuilders() {
			t.Run(tc.name+"/"+b.name, func(t *testing.T) {
				slow := runLockWorkload(t, tc.cfg, b, tc.threads, 6, false)
				fast := runLockWorkload(t, tc.cfg, b, tc.threads, 6, true)
				if !reflect.DeepEqual(slow, fast) {
					t.Errorf("fingerprints diverge:\nbatched: %+v\nslow:    %+v", fast, slow)
				}
				if slow.Counter != tc.threads*6 {
					t.Errorf("counter = %d, want %d", slow.Counter, tc.threads*6)
				}
			})
		}
	}
}

// FuzzModuleSpinAccounting attacks the fast path's hardest bookkeeping:
// with ModuleService > 0, every batched probe must still contribute its
// access, queue delay, and module reservation exactly as if issued one by
// one. The fuzzer varies the seed, service time, contention level, and
// lock kind.
func FuzzModuleSpinAccounting(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(4), uint8(0))
	f.Add(uint64(7), uint8(1), uint8(8), uint8(3))
	f.Add(uint64(42), uint8(5), uint8(2), uint8(6))
	builders := spinBatchBuilders()
	f.Fuzz(func(t *testing.T, seed uint64, svcUnits, threads, kind uint8) {
		cfg := sim.Config{
			Nodes: 4, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5,
			Instr: 1, ContextSwitch: 100, Wakeup: 200,
			ModuleService: sim.Time(svcUnits%6+1) * 100 * sim.Nanosecond,
			Seed:          seed%1000 + 1,
		}
		b := builders[int(kind)%len(builders)]
		n := int(threads%8) + 2
		slow := runLockWorkload(t, cfg, b, n, 4, false)
		fast := runLockWorkload(t, cfg, b, n, 4, true)
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("%s: fingerprints diverge:\nbatched: %+v\nslow:    %+v", b.name, fast, slow)
		}
	})
}

// TestLocalSpinLockReleasesQnodes is the churn regression: a run that
// cycles through many short-lived threads must not leave one queue record
// (and one simulated cell) per dead thread in the lock's map.
func TestLocalSpinLockReleasesQnodes(t *testing.T) {
	sys := testSys(2)
	l := NewLocalSpinLock(sys, 0, "churn", DefaultCosts())
	const generations = 40
	sys.Fork(0, "driver", func(th *cthreads.Thread) {
		for g := 0; g < generations; g++ {
			w := sys.Fork(1, fmt.Sprintf("g%d", g), func(th *cthreads.Thread) {
				l.Lock(th)
				th.Advance(100)
				l.Unlock(th)
			})
			th.Join(w)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got := l.retained(); got != 0 {
		t.Errorf("lock retains %d qnodes after all threads exited, want 0", got)
	}
	if got := l.Stats().Acquisitions; got != generations {
		t.Errorf("Acquisitions = %d, want %d", got, generations)
	}
}
