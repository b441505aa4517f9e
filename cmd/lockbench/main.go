// Command lockbench regenerates the paper's lock microbenchmark tables
// (§5.2, Tables 4–8) on the simulated BBN Butterfly GP1000.
//
// Usage:
//
//	lockbench [-table 4|5|6|7|8|all] [-lock KIND] [-calib] [-wait-latency] [-iters N] [-procs N] [-j N]
//	          [-trace FILE] [-trace-reports] [-profile-vt FILE] [-ledger FILE]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/locks"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lockbench: ")
	table := flag.String("table", "all", "table to regenerate: 4, 5, 6, 7, 8, or all")
	lockKind := flag.String("lock", "",
		"restrict Tables 4/5 to one lock kind (valid kinds: "+strings.Join(locks.KindNames(), ", ")+")")
	calib := flag.Bool("calib", false,
		"also print the mutable lock's predicted-vs-actual wait calibration report")
	waitLatency := flag.Bool("wait-latency", false,
		"also print per-acquisition wait-latency digests (p50/p99/p999) per lock kind under contention")
	iters := flag.Int("iters", 16, "repetitions per measured operation")
	procs := cli.ProcsFlag(flag.CommandLine, 0)
	jobs := cli.JobsFlag(flag.CommandLine)
	tf := cli.TraceFlags(flag.CommandLine)
	obs := cli.ObserveFlags(flag.CommandLine)
	prof := cli.ProfileFlags(flag.CommandLine)
	flag.Parse()

	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	defer prof.Stop()

	tracer := tf.Tracer()
	opts := experiments.Options{Iters: *iters, Tracer: tracer,
		Profiler: obs.Profiler(), Ledger: obs.Ledger(), Jobs: *jobs}
	if *procs > 0 {
		opts.Machine = sim.Config{Nodes: *procs}
	}
	if *lockKind != "" {
		k := locks.Kind(*lockKind)
		valid := false
		for _, name := range locks.KindNames() {
			if name == *lockKind {
				valid = true
			}
		}
		if !valid {
			log.Fatalf("-lock %q: unknown lock kind (valid kinds: %s)", *lockKind, strings.Join(locks.KindNames(), ", "))
		}
		opts.Kinds = []locks.Kind{k}
	}
	want := func(t string) bool { return *table == "all" || *table == t }
	printed := false

	if want("4") {
		rows, err := experiments.Table4(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderLockOpTable("Table 4: Cost of the Lock operation for different locks", rows))
		printed = true
	}
	if want("5") {
		rows, err := experiments.Table5(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderLockOpTable("Table 5: Cost of the Unlock operation for different locks", rows))
		printed = true
	}
	if want("6") {
		rows, err := experiments.Table6(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderCycleTable("Table 6: Cost of successive Unlock and Lock operation on an already locked lock", rows))
		printed = true
	}
	if want("7") {
		rows, err := experiments.Table7(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderCycleTable("Table 7: Cost of successive Unlock and Lock operation on an already locked adaptive lock", rows))
		printed = true
	}
	if want("8") {
		rows, err := experiments.Table8(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderTable8(rows))
		printed = true
	}
	if *calib {
		rows, err := experiments.MutableCalibration(opts.Machine, *jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderMutableCalibration(rows))
		printed = true
	}
	if *waitLatency {
		rows, err := experiments.WaitLatencySweep(opts.Machine, *jobs, opts.Kinds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderWaitLatency(rows))
		printed = true
	}
	if !printed {
		fmt.Fprintf(os.Stderr, "lockbench: unknown -table %q (want 4, 5, 6, 7, 8, or all)\n", *table)
		os.Exit(2)
	}
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
