// Command hostbench measures what the simulator costs its host: the wall
// and CPU time, memory and set-up time a researcher pays to regenerate
// Table 1 (tsp-central, tsp-observed), Figure 1 (csloop) and the sharded
// engine's ring (sharded-ring), and, in a separate traced run, how that
// host time splits across the repo's modules. See README.md.
//
//	bash hostbench/run.sh --workload csloop --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object; everything else
// goes to standard error.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed whose outputs reference.json records;
	// heldOutSeed is kept out of tuning so a claim can be rechecked on it.
	defaultSeed = 1
	heldOutSeed = 7

	// setupReps is how often a run builds its inputs; setup_s is the
	// median.
	setupReps = 3
	// minRounds is the fewest measured rounds a run makes of each kind,
	// however short --seconds is.
	minRounds = 3
	// procs fixes GOMAXPROCS, so the garbage collector and the ring's
	// workers see two processors on any host.
	procs = 2
)

//go:embed reference.json
var referenceJSON []byte

// reference maps workload → outcome name → output name → value, recorded
// on the default seed with --record.
type reference map[string]map[string]map[string]int64

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tsp-central, tsp-observed, csloop or sharded-ring")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("seed the workload's inputs are drawn from (outputs are checked against reference.json on %d; %d is held out of tuning)", defaultSeed, heldOutSeed))
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 makes the traced run and reports per-layer metrics")
	record := fs.Bool("record", false, "print every workload's default-seed outputs as reference JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if *record {
		return recordReference(stdout, stderr)
	}
	if _, ok := workloads[*name]; !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "hostbench: need --workload (one of %v), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	var ref reference
	if *seed == defaultSeed {
		if err := json.Unmarshal(referenceJSON, &ref); err != nil {
			fmt.Fprintf(stderr, "hostbench: reference.json: %v\n", err)
			return 1
		}
	}
	res, err := measure(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, ref[*name], stderr)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundStats is what one round cost the host beyond its simulations'
// own wall and CPU times, which its outcomes carry.
type roundStats struct {
	traced  bool
	cpu     time.Duration // process CPU time while the round ran
	alloc   uint64        // heap bytes allocated
	mallocs uint64
	gcs     uint32
	gcPause time.Duration
	round   round
}

// measure sets the workload up setupReps times, then runs rounds until
// the measured phase has lasted for d. The traced run alternates plain
// rounds with traced ones (CPU profile, attached profilers, spans), so the
// tracing overhead is measured in one process.
func measure(name string, seed uint64, d time.Duration, traced bool, ref map[string]map[string]int64, stderr io.Writer) (result, error) {
	var sp *spanLog
	if traced {
		sp = newSpanLog()
	}
	var w runner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		w = workloads[name]()
		id := sp.begin("setup")
		t0 := time.Now()
		err := w.setup(seed, sp)
		setups = append(setups, time.Since(t0).Seconds())
		sp.end(id)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
	}
	runtime.GC() // start the measured phase from a collected heap

	need := minRounds
	if traced {
		need *= 2 // plain and traced rounds alternate
	}
	var rounds []roundStats
	folded := map[string]int64{}
	attempted, failed := 0, 0
	start := time.Now()
	for i := 0; ; i++ {
		rs, samples, err := timeRound(w, traced && i%2 == 1, sp)
		if err != nil {
			return result{}, err
		}
		fold(samples, folded)
		id := sp.begin("check")
		for _, o := range rs.round.outcomes {
			attempted++
			if err := verify(o, ref); err != nil {
				failed++
				fmt.Fprintf(stderr, "hostbench: %s: %s: %v\n", name, o.name, err)
			}
		}
		if ref != nil && len(rs.round.outcomes) != len(ref) {
			failed++
			fmt.Fprintf(stderr, "hostbench: %s: %d simulations, reference has %d\n", name, len(rs.round.outcomes), len(ref))
		}
		sp.end(id)
		rounds = append(rounds, rs)
		if time.Since(start) >= d && len(rounds) >= need {
			break
		}
	}

	var plain, tr []roundStats
	for _, r := range rounds {
		if r.traced {
			tr = append(tr, r)
		} else {
			plain = append(plain, r)
		}
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	wall, cpu := phaseCost(plain)
	fmt.Fprintf(stderr, "hostbench: %s seed %d: %d rounds (%d traced), %d simulations, %d failed\n",
		name, seed, len(rounds), len(tr), attempted, failed)
	if !traced {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return result{}, fmt.Errorf("getrusage: %w", err)
		}
		simSeconds := float64(plain[0].round.simTime) / 1e9
		put := func(n, unit string, v float64) { res.Metrics[n] = metric{Value: v, Unit: unit} }
		put("wall_s", "s", wall)
		put("cpu_s", "s", cpu)
		put("setup_s", "s", medianOf(setups))
		put("sim_s_per_s", "s/s", simSeconds/wall)
		put("alloc_mb", "MB", median(plain, func(r roundStats) float64 { return float64(r.alloc) / 1e6 }))
		put("max_rss_mb", "MB", float64(ru.Maxrss)*1024/1e6) // Linux reports kilobytes
		return res, nil
	}
	res.Metrics = perLayer(tr, len(rounds), folded, sp, wall, attempted, failed)
	sp.print(stderr)
	return res, nil
}

// phaseCost is the measured phase's host cost: over the round's
// simulations, the sum of each one's median wall and CPU seconds across
// rounds. The host's speed drifts from second to second, and a median per
// simulation over many rounds is far steadier than a median of a few
// whole-round times.
func phaseCost(rs []roundStats) (wall, cpu float64) {
	n := len(rs[0].round.outcomes)
	for _, r := range rs {
		n = min(n, len(r.round.outcomes))
	}
	for i := 0; i < n; i++ {
		wall += median(rs, func(r roundStats) float64 { return r.round.outcomes[i].cost.wall.Seconds() })
		cpu += median(rs, func(r roundStats) float64 { return r.round.outcomes[i].cost.cpu.Seconds() })
	}
	return wall, cpu
}

// timeRound runs one round and reads its memory statistics. A traced
// round runs under a CPU profile, whose decoded samples it returns.
// Starting and stopping the profile lies outside every simulation's
// timing: Stop waits for the profile writer's next poll, which is latency
// of the profiler, not cost the traced workload pays.
func timeRound(w runner, traced bool, sp *spanLog) (roundStats, []cpuSample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	name := "round"
	if traced {
		name = "traced round"
	}
	id := sp.begin(name)
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return roundStats{}, nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	cpu0 := cpuTime()
	r := w.run(traced, sp)
	cpu := cpuTime() - cpu0
	if traced {
		pprof.StopCPUProfile()
	}
	sp.end(id)
	runtime.ReadMemStats(&m1)
	rs := roundStats{
		traced:  traced,
		cpu:     cpu,
		alloc:   m1.TotalAlloc - m0.TotalAlloc,
		mallocs: m1.Mallocs - m0.Mallocs,
		gcs:     m1.NumGC - m0.NumGC,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		round:   r,
	}
	if !traced {
		return rs, nil, nil
	}
	samples, err := parseCPUProfile(prof.Bytes())
	return rs, samples, err
}

// verify reports why a simulation failed: its own error, a property check,
// or, on the default seed, an output that differs from the reference.
func verify(o outcome, ref map[string]map[string]int64) error {
	if o.err != nil {
		return o.err
	}
	if err := o.check(); err != nil {
		return err
	}
	if ref == nil {
		return nil
	}
	want, ok := ref[o.name]
	if !ok {
		return fmt.Errorf("no reference outputs")
	}
	for k, v := range want {
		if got, ok := o.outputs[k]; !ok || got != v {
			return fmt.Errorf("%s = %d, reference %d", k, got, v)
		}
	}
	return nil
}

// perLayer builds the traced run's metrics, all per round: host time per
// bucket, the layers' counts, and the tracing overhead. A bucket's host
// time is its share of the profile's samples times the CPU time the traced
// rounds measured, so the buckets add up to that CPU time.
func perLayer(tr []roundStats, rounds int, folded map[string]int64, sp *spanLog, plainWall float64, attempted, failed int) map[string]metric {
	m := map[string]metric{}
	put := func(n, unit string, v float64) { m[n] = metric{Value: v, Unit: unit} }
	var total int64
	for _, b := range hostBuckets() {
		total += folded[b]
	}
	var cpu time.Duration
	for _, r := range tr {
		cpu += r.cpu
	}
	hostSeconds := func(b string) float64 {
		return ratio(float64(folded[b]), float64(total)) * cpu.Seconds() / float64(len(tr))
	}
	for _, b := range hostBuckets() {
		put(b, "s", hostSeconds(b))
	}
	c := tr[len(tr)-1].round.counts
	put("sim.dispatches", "count", float64(c.dispatches))
	put("sim.ns_per_dispatch", "ns", ratio(hostSeconds(bucketHandoff)*1e9, float64(c.dispatches)))
	put("sim.fast_forwards", "count", float64(c.fastForwards))
	put("sim.batched_iters", "count", float64(c.batchedIters))
	put("sim.cross_msgs", "count", float64(c.crossMsgs))
	put("cthreads.switches", "count", float64(c.sched.ContextSwitches))
	put("cthreads.wakeups", "count", float64(c.sched.Wakeups))
	put("cthreads.preemptions", "count", float64(c.sched.Preemptions))
	put("cthreads.forks", "count", float64(c.sched.Forks))
	put("cthreads.timeouts", "count", float64(c.sched.Timeouts))
	put("locks.acquisitions", "count", float64(c.acquisitions))
	put("locks.contended", "count", float64(c.contended))
	put("locks.blocks", "count", float64(c.blocks))
	put("locks.spin_iters", "count", float64(c.spinIters))
	put("locks.remote_transfers", "count", float64(c.remoteTransfers))
	put("locks.wait_sim_s", "s", float64(c.wait)/1e9)
	put("locks.spin_iters_per_acq", "ratio", ratio(float64(c.spinIters), float64(c.acquisitions)))
	put("core.decisions", "count", float64(c.decisions))
	put("core.applied", "count", float64(c.applied))
	put("core.rejected", "count", float64(c.rejected))
	put("core.ledger_entries", "count", float64(c.ledgerEntries))
	put("core.ledger_dropped", "count", float64(c.ledgerDropped))
	put("tsp.serial_host_s", "s", sp.total("tsp.SolveSerial").Seconds()/setupReps)
	put("tsp.expansions", "count", float64(c.expansions))
	put("tsp.useless", "count", float64(c.useless))
	put("tsp.useful_frac", "ratio", ratio(float64(c.expansions-c.useless), float64(c.expansions)))
	put("trace.events", "count", float64(c.traceEvents))
	put("trace.dropped", "count", float64(c.traceDropped))
	put("runtime.gc_cycles", "count", median(tr, func(r roundStats) float64 { return float64(r.gcs) }))
	put("runtime.gc_pause_s", "s", median(tr, func(r roundStats) float64 { return r.gcPause.Seconds() }))
	put("runtime.mallocs", "count", median(tr, func(r roundStats) float64 { return float64(r.mallocs) }))
	tracedWall, _ := phaseCost(tr)
	put("bench.trace_overhead_frac", "ratio", tracedWall/plainWall-1)
	put("bench.fold_coverage", "ratio", ratio(float64(total-folded[bucketOther]), float64(total)))
	put("bench.check_host_s", "s", sp.total("check").Seconds()/float64(rounds))
	put("bench.fail_frac", "ratio", ratio(float64(failed), float64(attempted)))
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(rs []roundStats, f func(roundStats) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// recordReference runs one round of every workload on the default seed
// and prints the outputs the checks compare against, for reference.json.
func recordReference(stdout, stderr io.Writer) int {
	ref := reference{}
	for _, name := range workloadNames() {
		w := workloads[name]()
		if err := w.setup(defaultSeed, nil); err != nil {
			fmt.Fprintf(stderr, "hostbench: %s: setup: %v\n", name, err)
			return 1
		}
		ref[name] = map[string]map[string]int64{}
		for _, o := range w.run(false, nil).outcomes {
			if err := verify(o, nil); err != nil {
				fmt.Fprintf(stderr, "hostbench: %s: %s: %v\n", name, o.name, err)
				return 1
			}
			ref[name][o.name] = o.outputs
		}
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}
