package main

import (
	"testing"

	"repro/internal/tsp"
)

// TestDrawInstances checks that searchSize counts exactly what
// tsp.SolveSerial expands and that a seed's instances add up to the
// target search size.
func TestDrawInstances(t *testing.T) {
	for _, seed := range []uint64{defaultSeed, heldOutSeed} {
		total := 0
		for _, in := range drawInstances(seed) {
			n, ok := searchSize(in, tspMaxExpansions)
			if !ok {
				t.Fatalf("seed %d: %s exceeds %d expansions", seed, in, tspMaxExpansions)
			}
			if want := tsp.SolveSerial(in).Expansions; n != want {
				t.Errorf("seed %d: %s: searchSize = %d, SolveSerial expands %d", seed, in, n, want)
			}
			total += n
		}
		if total < tspTargetExpansions || total > tspTargetExpansions+tspTolerance {
			t.Errorf("seed %d: instances expand %d nodes, want %d to %d",
				seed, total, tspTargetExpansions, tspTargetExpansions+tspTolerance)
		}
	}
}

func TestSearchSizeGivesUp(t *testing.T) {
	in := drawInstances(defaultSeed)[0]
	n, _ := searchSize(in, tspMaxExpansions)
	if got, ok := searchSize(in, n-1); ok || got != n-1 {
		t.Errorf("searchSize(limit %d) = %d, %v; want %d, false", n-1, got, ok, n-1)
	}
}
