// Command adaptdemo visualizes one adaptive lock's feedback loop through
// a workload with three contention phases: a solo phase (the policy
// configures pure spin), an overload phase with long critical sections
// and many waiters (the policy backs off to pure blocking), and a light
// phase (the policy climbs back). It prints the spin-time attribute over
// virtual time, one row per monitor sample.
//
// With -monitor it instead demonstrates the adaptive execution-mode
// monitor: the contended-hotspot sweep (sync vs. flat-combining vs.
// server execution) and the calm → storm → calm phase run whose sensor
// switches one monitor sync→async and back.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/experiments"
	"repro/internal/locks"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaptdemo: ")
	procs := cli.ProcsFlag(flag.CommandLine, 8)
	monitor := flag.Bool("monitor", false,
		"demo the adaptive execution-mode monitor (hotspot sweep + phase-switch run) instead of the lock feedback loop")
	jobs := cli.JobsFlag(flag.CommandLine)
	tf := cli.TraceFlags(flag.CommandLine)
	obs := cli.ObserveFlags(flag.CommandLine)
	prof := cli.ProfileFlags(flag.CommandLine)
	flag.Parse()

	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	defer prof.Stop()

	if *monitor {
		// The monitor sweeps build their own systems per measurement and
		// carry no observer plumbing (like figures outside -fig 1 and
		// lockbench -calib); reject rather than silently drop the flags.
		if tf.Path != "" || obs.Enabled() {
			log.Fatalf("-trace/-profile-vt/-ledger are not supported with -monitor (the exec-mode switches are printed in the phase report; the ledger path is exercised by tspbench -impl central -ledger)")
		}
		machine := sim.Config{}
		if *procs > 0 {
			machine.Nodes = *procs
		}
		hot, err := experiments.MonitorHotspot(machine, *jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderMonitorHotspot(hot))
		rep, err := experiments.MonitorPhases(machine)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderMonitorPhases(rep))
		if err := prof.Stop(); err != nil {
			log.Fatal(err)
		}
		return
	}

	sys := cthreads.New(sim.Config{Nodes: *procs})
	tracer := tf.Tracer()
	sys.SetTracer(tracer)
	obs.Attach(sys)
	policy := core.SimpleAdapt{SpinAttr: locks.AttrSpinTime, WaitingThreshold: 2, Step: 10, MaxSpin: 100}
	l := locks.NewAdaptiveLock(sys, 0, "demo-lock", locks.DefaultCosts(), policy)

	type sample struct {
		at      sim.Time
		waiting int64
		spin    int64
	}
	var trace []sample
	// Tap the feedback loop: wrap the policy so each sample is recorded
	// along with the decision it produced.
	l.Object().SetPolicy(core.PolicyFunc(func(s core.Sample, o *core.Object) []core.Decision {
		ds := policy.React(s, o)
		spin := o.Attrs.MustGet(locks.AttrSpinTime)
		for _, d := range ds {
			if d.Attr == locks.AttrSpinTime {
				spin = d.Value
			}
		}
		trace = append(trace, sample{at: sys.Now(), waiting: s.Value, spin: spin})
		return ds
	}))

	phase := func(t *cthreads.Thread, iters int, cs, think sim.Time) {
		for i := 0; i < iters; i++ {
			l.Lock(t)
			t.Advance(cs)
			l.Unlock(t)
			t.Advance(think)
		}
	}
	// Phase 1: one thread, no contention.
	solo := sys.Fork(0, "solo", func(t *cthreads.Thread) {
		phase(t, 30, 5*sim.Microsecond, 50*sim.Microsecond)
	})
	// Phase 2: everyone hammers the lock with long critical sections.
	var stormers []*cthreads.Thread
	for i := 0; i < *procs; i++ {
		i := i
		stormers = append(stormers, sys.Fork(i, fmt.Sprintf("storm%d", i), func(t *cthreads.Thread) {
			t.Join(solo)
			phase(t, 20, 200*sim.Microsecond, 20*sim.Microsecond)
		}))
	}
	// Phase 3: light again.
	sys.Fork(0, "light", func(t *cthreads.Thread) {
		for _, s := range stormers {
			t.Join(s)
		}
		phase(t, 30, 5*sim.Microsecond, 50*sim.Microsecond)
	})

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("adaptive lock feedback loop: no-of-waiting-threads sample → spin-time decision")
	fmt.Println()
	fmt.Printf("%-12s %-9s %-9s %s\n", "virtual time", "waiting", "spin-time", "")
	for _, s := range trace {
		bar := strings.Repeat("█", int(s.spin/2))
		fmt.Printf("%-12s %-9d %-9d %s\n", s.at, s.waiting, s.spin, bar)
	}
	st := l.Object().Stats()
	fmt.Printf("\npolicy decisions=%d applied=%d rejected=%d; reconfiguration cost=%s\n",
		st.Decisions, st.Applied, st.Rejected, l.Object().ReconfigCost())
	fmt.Printf("final configuration: %s\n", l.Object().Configuration())
	if err := tf.Flush(tracer, os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := obs.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := prof.Stop(); err != nil {
		log.Fatal(err)
	}
}
