package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"heap push under runSpin", []string{
			"repro/internal/sim.(*eventQueue).push",
			"repro/internal/sim.(*Engine).runSpin",
			"repro/internal/sim.(*Engine).fire",
			"repro/internal/sim.(*Engine).Run",
		}, bucketHeap},
		{"event less", []string{
			"repro/internal/sim.(*event).less",
			"repro/internal/sim.(*eventQueue).pop",
		}, bucketHeap},
		{"spin emulation", []string{
			"repro/internal/sim.(*Engine).runSpin",
			"repro/internal/sim.(*Engine).fire",
		}, bucketSpin},
		{"spin entry on the coroutine", []string{
			"repro/internal/sim.(*Coro).SpinUntil",
			"repro/internal/cthreads.(*Thread).SpinUntil",
		}, bucketSpin},
		{"channel handoff under yieldToEngine", []string{
			"runtime.futex",
			"runtime.futexwakeup",
			"runtime.notewakeup",
			"runtime.startm",
			"runtime.wakep",
			"runtime.ready",
			"runtime.goready",
			"runtime.send",
			"runtime.chansend",
			"runtime.chansend1",
			"repro/internal/sim.(*Coro).yieldToEngine",
			"repro/internal/sim.(*Coro).Sleep",
			"repro/internal/cthreads.(*Thread).Advance",
		}, bucketHandoff},
		{"engine-side dispatch", []string{
			"runtime.chanrecv1",
			"repro/internal/sim.(*Engine).dispatch",
			"repro/internal/sim.(*Engine).fire",
		}, bucketHandoff},
		{"scheduler with no repo frame", []string{
			"runtime.futex",
			"runtime.futexsleep",
			"runtime.notesleep",
			"runtime.stopm",
			"runtime.findRunnable",
			"runtime.schedule",
			"runtime.park_m",
			"runtime.mcall",
		}, bucketHandoff},
		{"shard window", []string{
			"repro/internal/sim.(*Engine).runWindow",
			"repro/internal/sim.(*Sharded).runShards.func1",
		}, bucketShard},
		{"shard barrier wait", []string{
			"runtime.gopark",
			"runtime.semacquire1",
			"sync.(*WaitGroup).Wait",
			"repro/internal/sim.(*Sharded).runShards",
			"repro/internal/sim.(*Sharded).loop",
		}, bucketShard},
		{"mailbox delivery", []string{
			"sort.Stable",
			"repro/internal/sim.(*Sharded).deliver",
		}, bucketShard},
		{"engine loop itself", []string{
			"repro/internal/sim.(*Engine).fire",
			"repro/internal/sim.(*Engine).Run",
		}, bucketEngine},
		{"machine access charge", []string{
			"repro/internal/sim.(*Machine).chargeAccess",
			"repro/internal/sim.(*Cell).Load",
			"repro/internal/locks.(*base).acquired",
		}, bucketEngine},
		{"allocation under tsp", []string{
			"runtime.memclrNoHeapPointers",
			"runtime.mallocgc",
			"runtime.makeslice",
			"repro/internal/tsp.(*Node).clone",
			"repro/internal/tsp.(*Node).include",
		}, bucketGC},
		{"stdlib under tsp stays in tsp", []string{
			"container/heap.up",
			"container/heap.Push",
			"repro/internal/tsp.(*nodeHeap).push",
		}, "tsp.host_s"},
		{"runtime copy under tsp stays in tsp", []string{
			"runtime.memmove",
			"repro/internal/tsp.(*Node).clone",
		}, "tsp.host_s"},
		{"background mark worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
		}, bucketGC},
		{"cthreads dispatch", []string{
			"repro/internal/cthreads.(*Processor).pick",
			"repro/internal/cthreads.(*Thread).block",
		}, "cthreads.host_s"},
		{"locks", []string{"repro/internal/locks.(*ReconfigurableLock).Lock"}, "locks.host_s"},
		{"core feedback", []string{
			"repro/internal/core.(*Object).feedback",
			"repro/internal/locks.(*ReconfigurableLock).Unlock",
		}, "core.host_s"},
		{"workload folds with experiments", []string{
			"repro/internal/workload.RunCS.func1",
		}, "experiments.host_s"},
		{"metrics folds into its caller", []string{
			"repro/internal/metrics.(*Histogram).Add",
			"repro/internal/locks.(*base).acquired",
		}, "locks.host_s"},
		{"profile", []string{"repro/internal/profile.(*ThreadProf).Push"}, "profile.host_s"},
		{"trace", []string{
			"runtime.memmove",
			"repro/internal/trace.(*Tracer).Emit",
		}, "trace.host_s"},
		{"benchmark's own code", []string{"main.run", "runtime.main"}, bucketOther},
		{"signal handling", []string{"runtime.sigtramp"}, bucketOther},
		{"empty stack", nil, bucketOther},
	}
	known := map[string]bool{}
	for _, b := range hostBuckets() {
		known[b] = true
	}
	for _, c := range cases {
		got := bucketOf(c.stack)
		if got != c.want {
			t.Errorf("%s: bucketOf = %q, want %q", c.name, got, c.want)
		}
		if !known[got] {
			t.Errorf("%s: bucket %q missing from hostBuckets", c.name, got)
		}
	}
}

func TestFoldKeepsEveryNanosecond(t *testing.T) {
	samples := []cpuSample{
		{stack: []string{"repro/internal/sim.(*eventQueue).pop"}, ns: 10_000_000},
		{stack: []string{"runtime.sigtramp"}, ns: 10_000_000},
		{stack: []string{"repro/internal/tsp.(*Node).Expand"}, ns: 30_000_000},
	}
	got := map[string]int64{}
	fold(samples, got)
	want := map[string]int64{bucketHeap: 10_000_000, bucketOther: 10_000_000, "tsp.host_s": 30_000_000}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for b, ns := range want {
		if got[b] != ns {
			t.Errorf("fold[%s] = %d, want %d", b, got[b], ns)
		}
	}
}

// TestParseCPUProfile profiles a busy loop with runtime/pprof and checks
// that the decoder recovers CPU time and this test's own frames.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinFor(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.ns
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinFor") {
				found = true
			}
		}
	}
	if total <= 0 {
		t.Fatalf("decoded %d samples with %d ns in total", len(samples), total)
	}
	if !found {
		t.Errorf("no sample names spinFor")
	}
}

var sink uint64

func spinFor(d time.Duration) {
	end := time.Now().Add(d)
	x := uint64(1)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("parseCPUProfile accepted garbage")
	}
}
