package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestMonitorHotspotHeadline pins the tentpole's performance claim on the
// contended hotspot: under high contention (32 callers) flat combining
// must cut both p99 method-completion latency and total elapsed time
// versus synchronous locking — and at low contention (2 callers) sync
// must win elapsed, the honest other side of the trade.
func TestMonitorHotspotHeadline(t *testing.T) {
	rows, err := MonitorHotspot(sim.Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]MonitorHotspotRow{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d", r.Mode, r.Callers)] = r
	}
	sync32, flat32 := byKey["sync/32"], byKey["flat/32"]
	if flat32.P99 >= sync32.P99 {
		t.Errorf("32 callers: flat p99 %v not below sync p99 %v", flat32.P99, sync32.P99)
	}
	if flat32.Elapsed >= sync32.Elapsed {
		t.Errorf("32 callers: flat elapsed %v not below sync elapsed %v", flat32.Elapsed, sync32.Elapsed)
	}
	sync8, flat8 := byKey["sync/8"], byKey["flat/8"]
	if flat8.P99 >= sync8.P99 {
		t.Errorf("8 callers: flat p99 %v not below sync p99 %v", flat8.P99, sync8.P99)
	}
	sync2, flat2 := byKey["sync/2"], byKey["flat/2"]
	if sync2.Elapsed >= flat2.Elapsed {
		t.Errorf("2 callers: sync elapsed %v not below flat elapsed %v — the low-contention overhead disappeared?", sync2.Elapsed, flat2.Elapsed)
	}
	if byKey["flat/32"].Batches == 0 || byKey["server/32"].Batches == 0 {
		t.Error("no combining batches recorded")
	}
}

// TestMonitorPhasesSwitchesBothWays checks the phase-changing workload
// drives at least one sensor-driven sync→async switch and the return.
func TestMonitorPhasesSwitchesBothWays(t *testing.T) {
	rep, err := MonitorPhases(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var toAsync, backToSync bool
	for _, s := range rep.Switches {
		if strings.Contains(s.Decision, "exec-mode←1") {
			toAsync = true
		}
		if toAsync && strings.Contains(s.Decision, "exec-mode←0") {
			backToSync = true
		}
	}
	if !toAsync || !backToSync {
		t.Fatalf("switches = %+v, want sync→async and async→sync", rep.Switches)
	}
	if rep.SyncCalls == 0 || rep.Submits == 0 {
		t.Fatalf("report = %+v, want both modes exercised", rep)
	}
}

// TestMonitorSweepParallelDeterminism extends the -j gate to the new
// sweeps: parallel fan-out must be byte-identical to serial.
func TestMonitorSweepParallelDeterminism(t *testing.T) {
	render := func(jobs int) string {
		hot, err := MonitorHotspot(sim.Config{}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := WaitLatencySweep(sim.Config{}, jobs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return RenderMonitorHotspot(hot).String() + RenderWaitLatency(wl).String()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Errorf("monitor sweeps differ between -j 1 and -j 8:\n%s\n--- vs ---\n%s", serial, parallel)
	}
}

// TestAsyncOffEngineModeDifferential: the sharded scaling workload must
// stay serial-identical across -shards {1,4}. (The spin-batching half
// lives in internal/tsp as TestAsyncOffSpinBatchingDifferential.)
func TestAsyncOffEngineModeDifferential(t *testing.T) {
	shardCfg := sim.Config{Nodes: 8, Seed: 1}
	r1, err := ShardedRun(shardCfg, 1, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := ShardedRun(shardCfg, 4, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r1.SimTime != r4.SimTime || r1.Busy != r4.Busy || r1.Checksum != r4.Checksum {
		t.Errorf("sharded run diverges: shards=1 %+v, shards=4 %+v", r1, r4)
	}
}
