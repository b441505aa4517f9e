// Command figures regenerates the paper's Figure 1 (combined-lock
// critical-section sweep) and the extension experiments: the lock
// scheduler comparison, the spin-vs-block multiprogramming crossover, and
// the adaptation-policy constant ablation.
//
// Usage:
//
//	figures [-fig 1|sched|crossover|cohort|ablation|sharded|all] [-j N]
//	        [-profile-vt FILE] [-ledger FILE]   (observers require -fig 1)
//	        [-shards N]                         (largest shard count for -fig sharded)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	fig := flag.String("fig", "all", "figure: 1, sched, crossover, advisory, retarget, cohort, coupling, platform, sor, barrier, ablation, sharded, or all")
	jobs := cli.JobsFlag(flag.CommandLine)
	shards := flag.Int("shards", 1, "with -fig sharded, the largest shard count of the scaling table (1 = the default of 8)")
	obs := cli.ObserveFlags(flag.CommandLine)
	prof := cli.ProfileFlags(flag.CommandLine)
	flag.Parse()
	// The extension experiments build their systems behind bare
	// (config, jobs) signatures with no observer plumbing, so the
	// observability flags only cover the Figure 1 sweep.
	if obs.Enabled() && *fig != "1" {
		log.Fatalf("-profile-vt/-ledger require -fig 1 (the other figures carry no observer plumbing)")
	}
	if *shards < 1 {
		log.Fatalf("-shards must be at least 1, got %d", *shards)
	}
	if *shards > 1 && *fig != "sharded" {
		log.Fatalf("-shards applies to -fig sharded only (the other figures run on the serial engine)")
	}

	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	defer prof.Stop()

	want := func(f string) bool { return *fig == "all" || *fig == f }
	printed := false

	if want("1") {
		rows, err := experiments.Figure1(experiments.Figure1Options{
			Jobs: *jobs, Profiler: obs.Profiler(), Ledger: obs.Ledger()})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderFigure1(rows))
		printed = true
	}
	if want("sched") {
		rows, err := experiments.SchedulerComparison(sim.Config{}, *jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderSchedulerComparison(rows))
		printed = true
	}
	if want("crossover") {
		rows, err := experiments.SpinVsBlockCrossover(sim.Config{}, *jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderCrossover(rows))
		printed = true
	}
	if want("advisory") {
		rows, err := experiments.AdvisoryComparison(sim.Config{}, *jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderAdvisory(rows))
		printed = true
	}
	if want("retarget") {
		rows, err := experiments.LockRetargeting(sim.Config{}, *jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderRetargeting(rows))
		printed = true
	}
	if want("cohort") {
		rows, err := experiments.CohortNUMA(sim.Config{}, *jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderCohortNUMA(rows))
		printed = true
	}
	if want("coupling") {
		rows, err := experiments.CouplingComparison(sim.Config{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderCoupling(rows))
		printed = true
	}
	if want("platform") {
		rows, err := experiments.PlatformRetargeting(*jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderPlatforms(rows))
		printed = true
	}
	if want("sor") {
		rows, err := experiments.SORComparison(nil, *jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderSOR(rows))
		printed = true
	}
	if want("barrier") {
		rows, err := experiments.BarrierComparison(*jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderBarriers(rows))
		printed = true
	}
	if want("ablation") {
		rows, err := experiments.PolicyAblation(sim.Config{}, *jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderAblation(rows))
		printed = true
	}
	if want("sharded") {
		opts := experiments.ShardedScalingOptions{Jobs: *jobs}
		if *shards > 1 {
			opts.MaxShards = *shards
		}
		rows, err := experiments.ShardedScaling(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderShardedScaling(rows))
		printed = true
	}
	if !printed {
		fmt.Fprintf(os.Stderr, "figures: unknown -fig %q (want 1, sched, crossover, advisory, retarget, cohort, coupling, platform, sor, barrier, ablation, sharded, or all)\n", *fig)
		os.Exit(2)
	}
	if err := obs.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := prof.Stop(); err != nil {
		log.Fatal(err)
	}
}
