// Command tspbench regenerates the paper's TSP application experiments:
// Tables 1–3 (blocking vs. adaptive locks under the centralized,
// distributed, and distributed-with-load-balancing organizations) and
// Figures 4–9 (per-lock waiting-thread patterns).
//
// Usage:
//
//	tspbench [-impl central|dist|distlb|all] [-cities N] [-seed S]
//	         [-searchers N] [-uniform] [-steps N] [-patterns] [-j N]
//	         [-async-queue]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/tsp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tspbench: ")
	impl := flag.String("impl", "all", "implementation: central, dist, distlb, or all")
	cities := flag.Int("cities", 16, "number of cities (the paper used 32)")
	seed := cli.SeedFlag(flag.CommandLine, 1)
	searchers := flag.Int("searchers", 10, "searcher threads, one per processor (paper: 10)")
	uniform := flag.Bool("uniform", false, "uniform random instance instead of Euclidean")
	steps := flag.Int("steps", 0, "instruction steps per expansion work unit (0 = calibrated default)")
	patterns := flag.Bool("patterns", false, "also print Figures 4-9 locking patterns")
	scaling := flag.Bool("scaling", false, "also sweep searcher counts (gain vs. processors)")
	asyncQueue := flag.Bool("async-queue", false,
		"also compare shared-queue execution modes (off, sync, flat, server, adaptive) on the centralized organization")
	file := flag.String("file", "", "TSPLIB file (EUC_2D or FULL_MATRIX) to solve instead of a generated instance")
	csvdir := flag.String("csvdir", "", "with -patterns, also write each figure's series as CSV into this directory")
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
	opts := experiments.TSPOptions{
		Cities:           *cities,
		Seed:             *seed,
		Searchers:        *searchers,
		Uniform:          *uniform,
		StepsPerWorkUnit: *steps,
		Tracer:           tracer,
		Profiler:         obs.Profiler(),
		Ledger:           obs.Ledger(),
		Jobs:             *jobs,
	}
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			log.Fatal(err)
		}
		in, err := tsp.ParseTSPLIB(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		opts.Instance = in
	}
	fmt.Printf("instance: %s, %d searchers\n\n", instanceLabel(opts), *searchers)

	orgs := map[string]tsp.Organization{
		"central": tsp.OrgCentralized,
		"dist":    tsp.OrgDistributed,
		"distlb":  tsp.OrgDistributedLB,
	}
	var run []tsp.Organization
	if *impl == "all" {
		run = []tsp.Organization{tsp.OrgCentralized, tsp.OrgDistributed, tsp.OrgDistributedLB}
	} else if org, ok := orgs[*impl]; ok {
		run = []tsp.Organization{org}
	} else {
		fmt.Fprintf(os.Stderr, "tspbench: unknown -impl %q (want central, dist, distlb, or all)\n", *impl)
		os.Exit(2)
	}

	for _, org := range run {
		row, err := experiments.TSPComparison(org, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderTSPRow(row))
		if row.Speedup > 0 {
			fmt.Printf("  speedup over sequential: %.1f× on %d processors\n", row.Speedup, *searchers)
		}
		fmt.Printf("  optimal tour cost: %d; expansions: blocking=%d adaptive=%d\n",
			row.BlockingRes.Tour.Cost, row.BlockingRes.Expansions, row.AdaptiveRes.Expansions)
		q := row.BlockingRes.LockStats[tsp.LockQueue]
		fmt.Printf("  qlock (blocking run): %d acquisitions, %d contended, max %d waiting\n",
			q.Acquisitions, q.Contended, q.MaxWaiting)
		if len(row.AdaptiveRes.FinalSpin) > 0 {
			fmt.Printf("  adaptive final spin-time:")
			for _, name := range []string{tsp.LockQueue, tsp.LockActive, tsp.LockLowest, tsp.LockGlobal} {
				if v, ok := row.AdaptiveRes.FinalSpin[name]; ok {
					fmt.Printf(" %s=%d", name, v)
				}
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if *scaling {
		rows, err := experiments.ScalingComparison(opts, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderScaling(rows))
	}

	if *asyncQueue {
		rows, err := experiments.TSPAsyncQueue(opts, *jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderTSPAsyncQueue(rows))
	}

	if *patterns {
		figs, err := experiments.LockPatterns(opts)
		if err != nil {
			log.Fatal(err)
		}
		for _, f := range figs {
			fmt.Print(experiments.RenderPattern(f, 72))
			if *csvdir != "" {
				path := filepath.Join(*csvdir, fmt.Sprintf("figure%d_%s_%s.csv", f.Figure, f.Org, f.Lock))
				out, err := os.Create(path)
				if err != nil {
					log.Fatal(err)
				}
				if err := f.Series.WriteCSV(out); err != nil {
					log.Fatal(err)
				}
				if err := out.Close(); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  wrote %s\n", path)
			}
		}
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

func instanceLabel(o experiments.TSPOptions) string {
	if o.Instance != nil {
		return o.Instance.String()
	}
	kind := "euclidean"
	if o.Uniform {
		kind = "uniform"
	}
	return fmt.Sprintf("%s(n=%d, seed=%d)", kind, o.Cities, o.Seed)
}
