package main

import (
	"container/heap"
	"fmt"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/experiments"
	"repro/internal/locks"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tsp"
	"repro/internal/workload"
)

// Sizes and fan-out are fixed here, never derived from the host: every
// workload runs its simulations one after another, except sharded-ring,
// which runs 2 shards on 2 workers. No run keeps more than two threads
// busy.
const (
	tspCities    = 16
	tspSearchers = 10
	// tspStepsPerUnit is Table 1's expansion cost (the
	// experiments.TSPOptions default).
	tspStepsPerUnit = 60
	// A run's TSP instances are drawn from the seed until their serial
	// LMSK searches add up to tspTargetExpansions (at most tspTolerance
	// over). One instance's search size varies more than a hundredfold
	// between seeds (67 to 12244 expansions over seeds 1-12), so the
	// total, not the instance count, is what makes a run's work the same
	// on every seed. Each instance expands tspMinExpansions to
	// tspMaxExpansions nodes (fewer only to close the total), so a run
	// solves about ten instances and no single one dominates it.
	tspTargetExpansions = 15000
	tspTolerance        = 150
	tspMinExpansions    = 500
	tspMaxExpansions    = 3000

	// Figure 1's multiprogrammed machine (experiments.Figure1Options
	// defaults) at three of its critical-section lengths.
	csProcs          = 8
	csThreadsPerProc = 3
	csIters          = 25
	csLocalWork      = 400 * sim.Microsecond
	csQuantum        = 1 * sim.Millisecond

	ringNodes   = 1024
	ringShards  = 2
	ringWorkers = 2
	ringRounds  = 2
)

var csLengths = []sim.Time{10 * sim.Microsecond, 100 * sim.Microsecond, 500 * sim.Microsecond}

// workloads maps each workload name to a constructor.
var workloads = map[string]func() runner{
	"tsp-central":  func() runner { return &tspWorkload{} },
	"tsp-observed": func() runner { return &tspWorkload{observed: true} },
	"csloop":       func() runner { return &csloopWorkload{} },
	"sharded-ring": func() runner { return &ringWorkload{} },
}

// runner builds its inputs from a seed once and then runs its measured
// phase, a round, any number of times. traced asks a round to attach a
// profile.Profiler wherever the public API accepts one.
type runner interface {
	setup(seed uint64, sp *spanLog) error
	run(traced bool, sp *spanLog) round
}

// round is what one measured phase produced.
type round struct {
	outcomes []outcome
	simTime  sim.Time // virtual time summed over the round's simulations
	counts   counts
}

// outcome is one simulation of a round and its host cost. check tests
// properties that hold on every seed; outputs are the deterministic values
// compared with the recorded reference on the default seed.
type outcome struct {
	name    string
	err     error
	cost    hostCost
	check   func() error
	outputs map[string]int64
}

// counts are a round's per-layer counts. The scheduler, lock, feedback
// loop, TSP and trace counts are fixed by the simulation; dispatches,
// fastForwards and batchedIters are the engine's host-side counts, read
// from a profile.Profiler where one is attached.
type counts struct {
	dispatches, fastForwards, batchedIters int64
	crossMsgs                              uint64

	sched cthreads.Stats

	acquisitions, contended, blocks, spinIters, remoteTransfers uint64
	wait                                                        sim.Time

	decisions, applied, rejected uint64
	ledgerEntries                int
	ledgerDropped                uint64

	expansions, useless int

	traceEvents  int
	traceDropped uint64
}

func (c *counts) addSched(s cthreads.Stats) {
	c.sched.Forks += s.Forks
	c.sched.ContextSwitches += s.ContextSwitches
	c.sched.Wakeups += s.Wakeups
	c.sched.Timeouts += s.Timeouts
	c.sched.Preemptions += s.Preemptions
}

func (c *counts) addLock(s locks.Stats) {
	c.acquisitions += s.Acquisitions
	c.contended += s.Contended
	c.blocks += s.Blocks
	c.spinIters += s.SpinIters
	c.remoteTransfers += s.RemoteTransfers
	c.wait += s.TotalWait
}

func (c *counts) addProfiler(p *profile.Profiler) {
	c.dispatches += p.Dispatches()
	c.fastForwards += p.FastForwards()
	c.batchedIters += p.BatchedIters()
}

// addLedger counts the ledger's apply entries as decisions. Every apply
// in the solves measured here comes from an object's own feedback loop,
// so these equal the objects' LoopStats.
func (c *counts) addLedger(l *core.Ledger) {
	c.ledgerEntries += l.Len()
	c.ledgerDropped += l.Dropped()
	for _, e := range l.Entries() {
		if e.Kind != core.EntryApply {
			continue
		}
		c.decisions++
		if e.Err == "" {
			c.applied++
		} else {
			c.rejected++
		}
	}
}

func (c *counts) addTSP(r tsp.Result) {
	c.addSched(r.Sched)
	c.expansions += r.Expansions
	c.useless += r.Useless
	for _, s := range r.LockStats {
		c.addLock(s)
	}
}

// tspWorkload is tsp-central (blocking, adaptive and sequential solves of
// each instance) or, with observed set, tsp-observed (the adaptive solve
// alone, with a tracer, profiler and ledger attached).
type tspWorkload struct {
	observed bool
	inputs   []tspInput
}

type tspInput struct {
	in      *tsp.Instance
	optimum int64 // tsp.SolveSerial's tour cost
}

func (w *tspWorkload) setup(seed uint64, sp *spanLog) error {
	var ins []*tsp.Instance
	sp.call("draw instances", func() { ins = drawInstances(seed) })
	for _, in := range ins {
		var opt int64
		sp.call("tsp.SolveSerial", func() { opt = tsp.SolveSerial(in).Tour.Cost })
		w.inputs = append(w.inputs, tspInput{in: in, optimum: opt})
	}
	return nil
}

func (w *tspWorkload) run(traced bool, sp *spanLog) round {
	var r round
	kinds := []locks.Kind{locks.KindBlocking, locks.KindAdaptive}
	if w.observed {
		kinds = kinds[1:]
	}
	for _, x := range w.inputs {
		for _, kind := range kinds {
			cfg := tsp.Config{
				Instance:         x.in,
				Searchers:        tspSearchers,
				Org:              tsp.OrgCentralized,
				LockKind:         kind,
				StepsPerWorkUnit: tspStepsPerUnit,
			}
			if traced || w.observed {
				cfg.Profiler = profile.New()
			}
			if w.observed {
				cfg.Tracer = trace.New(0)
				cfg.Ledger = core.NewLedger(0)
			}
			var res tsp.Result
			var err error
			cost := sp.call("tsp.Solve "+string(kind), func() { res, err = tsp.Solve(cfg) })
			r.simTime += res.Elapsed
			r.counts.addTSP(res)
			r.counts.addProfiler(cfg.Profiler)
			out := map[string]int64{"elapsed_ns": int64(res.Elapsed), "cost": res.Tour.Cost}
			if w.observed {
				r.counts.addLedger(cfg.Ledger)
				r.counts.traceEvents += cfg.Tracer.Len()
				r.counts.traceDropped += cfg.Tracer.Dropped()
				out["ledger_entries"] = int64(cfg.Ledger.Len())
				out["trace_events"] = int64(cfg.Tracer.Len())
			}
			r.outcomes = append(r.outcomes, outcome{
				name:    fmt.Sprintf("%s %s", x.in, kind),
				err:     err,
				cost:    cost,
				check:   func() error { return checkTour(x, res.Tour) },
				outputs: out,
			})
		}
		if w.observed {
			continue
		}
		var res tsp.Result
		var err error
		cost := sp.call("tsp.SolveSequentialSim", func() {
			res, err = tsp.SolveSequentialSim(x.in, sim.Config{}, tspStepsPerUnit, 0)
		})
		r.simTime += res.Elapsed
		r.counts.addSched(res.Sched)
		r.outcomes = append(r.outcomes, outcome{
			name:    fmt.Sprintf("%s sequential", x.in),
			err:     err,
			cost:    cost,
			check:   func() error { return checkTour(x, res.Tour) },
			outputs: map[string]int64{"elapsed_ns": int64(res.Elapsed), "cost": res.Tour.Cost},
		})
	}
	return r
}

// checkTour accepts a valid tour whose cost is the serial optimum.
func checkTour(x tspInput, t tsp.Tour) error {
	if err := t.Valid(x.in); err != nil {
		return err
	}
	if t.Cost != x.optimum {
		return fmt.Errorf("tour cost %d, serial optimum %d", t.Cost, x.optimum)
	}
	return nil
}

// drawInstances draws 16-city Euclidean instances from the seed and keeps
// those whose serial search fits what is left of tspTargetExpansions,
// until the total is reached.
func drawInstances(seed uint64) []*tsp.Instance {
	rng := sim.NewRNG(seed)
	var out []*tsp.Instance
	total := 0
	for total < tspTargetExpansions {
		in := tsp.NewEuclideanInstance(tspCities, rng.Uint64())
		need := tspTargetExpansions - total
		n, ok := searchSize(in, min(tspMaxExpansions, need+tspTolerance))
		if ok && n >= min(tspMinExpansions, need) {
			out = append(out, in)
			total += n
		}
	}
	return out
}

// searchSize runs tsp.SolveSerial's best-first search (same order, same
// pruning) and reports its expansion count, giving up with ok false once
// the search would exceed limit expansions.
func searchSize(in *tsp.Instance, limit int) (n int, ok bool) {
	q := &nodeQueue{}
	q.add(tsp.NewRoot(in))
	best := tsp.Inf
	for q.Len() > 0 && q.nodes[0].Bound < best {
		if n == limit {
			return n, false
		}
		out := heap.Pop(q).(*tsp.Node).Expand()
		n++
		if out.Tour != nil && out.Tour.Cost < best {
			best = out.Tour.Cost
		}
		for _, c := range out.Children {
			if c.Bound < best {
				q.add(c)
			}
		}
	}
	return n, true
}

// nodeQueue orders subproblems by bound, then insertion order.
type nodeQueue struct {
	nodes []*tsp.Node
	seq   uint64
}

func (q *nodeQueue) add(n *tsp.Node) {
	q.seq++
	n.Seq = q.seq
	heap.Push(q, n)
}

func (q *nodeQueue) Len() int { return len(q.nodes) }
func (q *nodeQueue) Less(i, j int) bool {
	a, b := q.nodes[i], q.nodes[j]
	if a.Bound != b.Bound {
		return a.Bound < b.Bound
	}
	return a.Seq < b.Seq
}
func (q *nodeQueue) Swap(i, j int)      { q.nodes[i], q.nodes[j] = q.nodes[j], q.nodes[i] }
func (q *nodeQueue) Push(x interface{}) { q.nodes = append(q.nodes, x.(*tsp.Node)) }
func (q *nodeQueue) Pop() interface{} {
	n := q.nodes[len(q.nodes)-1]
	q.nodes = q.nodes[:len(q.nodes)-1]
	return n
}

// csloopWorkload is Figure 1's critical-section loop: every
// Figure1Strategies() waiting policy at each of csLengths, serially.
type csloopWorkload struct {
	seed uint64
}

func (w *csloopWorkload) config(cs sim.Time, prof *profile.Profiler) workload.CSConfig {
	return workload.CSConfig{
		Procs:     csProcs,
		Threads:   csProcs * csThreadsPerProc,
		Iters:     csIters,
		CSLength:  cs,
		LocalWork: csLocalWork,
		Jitter:    csLocalWork / 4,
		Machine:   sim.Config{Seed: w.seed, Quantum: csQuantum},
		Profiler:  prof,
	}
}

// setup has no inputs to build beyond the seed. As a warm-up it runs
// every strategy once at the shortest critical section, so the first
// measured round does not pay for heap growth.
func (w *csloopWorkload) setup(seed uint64, sp *spanLog) error {
	w.seed = seed
	for _, strat := range experiments.Figure1Strategies() {
		var err error
		sp.call("workload.RunCS warm-up", func() { _, err = workload.RunCS(w.config(csLengths[0], nil), strat) })
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *csloopWorkload) run(traced bool, sp *spanLog) round {
	var r round
	for _, cs := range csLengths {
		for _, strat := range experiments.Figure1Strategies() {
			// Wrap Make to reach the System and lock RunCS builds, for
			// their scheduler and feedback-loop counters.
			var sys *cthreads.System
			var lk locks.Lock
			build := strat.Make
			strat.Make = func(s *cthreads.System, node int, costs locks.Costs) locks.Lock {
				sys, lk = s, build(s, node, costs)
				return lk
			}
			var prof *profile.Profiler
			if traced {
				prof = profile.New()
			}
			var res workload.CSResult
			var err error
			cost := sp.call("workload.RunCS "+strat.Name, func() { res, err = workload.RunCS(w.config(cs, prof), strat) })
			r.simTime += res.Elapsed
			r.counts.addLock(res.Stats)
			r.counts.addProfiler(prof)
			if sys != nil {
				r.counts.addSched(sys.Stats())
			}
			if o, ok := lk.(interface{ Object() *core.Object }); ok {
				st := o.Object().Stats()
				r.counts.decisions += st.Decisions
				r.counts.applied += st.Applied
				r.counts.rejected += st.Rejected
			}
			r.outcomes = append(r.outcomes, outcome{
				name: fmt.Sprintf("%s cs=%v", strat.Name, cs),
				err:  err,
				cost: cost,
				check: func() error {
					if want := uint64(csProcs * csThreadsPerProc * csIters); res.Stats.Acquisitions != want {
						return fmt.Errorf("%d acquisitions, want threads x iterations = %d", res.Stats.Acquisitions, want)
					}
					return nil
				},
				outputs: map[string]int64{"elapsed_ns": int64(res.Elapsed), "acquisitions": int64(res.Stats.Acquisitions)},
			})
		}
	}
	return r
}

// ringWorkload is the sharded client/server ring on 2 shards and 2
// workers, checked against a 1-shard run of the same machine.
type ringWorkload struct {
	cfg    sim.Config
	serial experiments.ShardedRow
}

func (w *ringWorkload) setup(seed uint64, sp *spanLog) error {
	w.cfg = sim.Config{Nodes: ringNodes, Seed: seed}
	var err error
	sp.call("experiments.ShardedRun 1 shard", func() { w.serial, err = experiments.ShardedRun(w.cfg, 1, 1, ringRounds) })
	return err
}

// run attaches nothing when traced: ShardedRun accepts no profiler.
func (w *ringWorkload) run(_ bool, sp *spanLog) round {
	var row experiments.ShardedRow
	var err error
	cost := sp.call("experiments.ShardedRun", func() { row, err = experiments.ShardedRun(w.cfg, ringShards, ringWorkers, ringRounds) })
	var r round
	r.simTime = row.SimTime
	r.counts.crossMsgs = row.CrossMsgs
	r.counts.sched.Wakeups = row.Wakeups
	r.counts.sched.Preemptions = row.Preempt
	r.outcomes = []outcome{{
		name: fmt.Sprintf("ring shards=%d", ringShards),
		err:  err,
		cost: cost,
		check: func() error {
			s := w.serial
			if row.SimTime != s.SimTime || row.Busy != s.Busy || row.Wakeups != s.Wakeups ||
				row.Preempt != s.Preempt || row.Checksum != s.Checksum {
				return fmt.Errorf("sharded row %+v differs from the 1-shard row %+v", row, s)
			}
			return nil
		},
		outputs: map[string]int64{
			"sim_ns":     int64(row.SimTime),
			"busy_ns":    int64(row.Busy),
			"wakeups":    int64(row.Wakeups),
			"checksum":   int64(row.Checksum),
			"cross_msgs": int64(row.CrossMsgs),
		},
	}}
	return r
}
