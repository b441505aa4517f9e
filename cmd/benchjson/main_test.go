package main

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestParseLineTrimsProcs(t *testing.T) {
	cases := []struct{ line, name string }{
		{"BenchmarkTable1-2   	1	618000000 ns/op	12.5 sim-ms-blocking", "BenchmarkTable1"},
		{"BenchmarkTable1   	1	618000000 ns/op", "BenchmarkTable1"},
		{"BenchmarkShardedEngine/shards=2-8 	1	5 ns/op", "BenchmarkShardedEngine/shards=2"},
		{"BenchmarkShardedEngine/shards=2 	1	5 ns/op", "BenchmarkShardedEngine/shards=2"},
		{"BenchmarkLockContended/mcs/w32-16 	1	5 ns/op", "BenchmarkLockContended/mcs/w32"},
		{"BenchmarkLockContended/mcs/w32 	1	5 ns/op", "BenchmarkLockContended/mcs/w32"},
		{"BenchmarkMonitorSync/c2-2 	1	5 ns/op", "BenchmarkMonitorSync/c2"},
		{"BenchmarkX/a-b-4 	1	5 ns/op", "BenchmarkX/a-b"},
		{"BenchmarkX/a-b 	1	5 ns/op", "BenchmarkX/a-b"},
		{"BenchmarkX- 	1	5 ns/op", "BenchmarkX-"},
	}
	for _, c := range cases {
		b, ok := parseLine(c.line)
		if !ok {
			t.Errorf("parseLine(%q) rejected", c.line)
			continue
		}
		if b.Name != c.name {
			t.Errorf("parseLine(%q).Name = %q, want %q", c.line, b.Name, c.name)
		}
	}
}

func TestGate(t *testing.T) {
	committed := &Baseline{Benchmarks: []Benchmark{
		{Name: "BenchmarkTable1", Metrics: map[string]float64{"sim-ms": 12.5}},
		{Name: "BenchmarkShardedEngine/shards=2", Metrics: map[string]float64{"sim-ms": 3}},
	}}
	fresh := func(lines ...string) *Baseline {
		var b Baseline
		parse(&b, strings.NewReader(strings.Join(lines, "\n")))
		return &b
	}
	cases := []struct {
		name     string
		run      *Baseline
		compared int
		drift    int
		fails    bool
	}{
		{"multi-core names match", fresh(
			"BenchmarkTable1-2 1 5 ns/op 12.5 sim-ms",
			"BenchmarkShardedEngine/shards=2-2 1 5 ns/op 3 sim-ms"), 2, 0, false},
		{"single-core names match", fresh(
			"BenchmarkTable1 1 5 ns/op 12.5 sim-ms"), 1, 0, false},
		{"drift is caught on a multi-core run", fresh(
			"BenchmarkTable1-4 1 5 ns/op 13 sim-ms"), 1, 1, true},
		{"host units never gate", fresh(
			"BenchmarkTable1-4 1 5 ns/op 12.5 sim-ms 4096 host-B/thread 7 MB/s"), 1, 0, false},
		{"nothing compared fails", fresh(
			"BenchmarkOther-2 1 5 ns/op 1 sim-ms"), 0, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			compared, drift := compareBaselines(committed, c.run, io.Discard)
			if compared != c.compared || drift != c.drift {
				t.Errorf("compared, drift = %d, %d; want %d, %d", compared, drift, c.compared, c.drift)
			}
			if err := gate(committed, c.run, "BENCH.json", io.Discard); (err != nil) != c.fails {
				t.Errorf("gate error = %v, want failure %v", err, c.fails)
			}
		})
	}
}

// formatLine prints b the way go test does on a 2-core host, so parsing
// it again must give b back.
func formatLine(b Benchmark) string {
	parts := []string{b.Name + "-2", strconv.FormatInt(b.Iterations, 10)}
	add := func(v float64, unit string) {
		parts = append(parts, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}
	add(b.NsPerOp, "ns/op")
	add(b.BytesPerOp, "B/op")
	add(b.AllocsPerOp, "allocs/op")
	units := make([]string, 0, len(b.Metrics))
	for u := range b.Metrics {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		add(b.Metrics[u], u)
	}
	return strings.Join(parts, "\t")
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

func sameBenchmark(a, b Benchmark) bool {
	if a.Name != b.Name || a.Iterations != b.Iterations || !sameFloat(a.NsPerOp, b.NsPerOp) ||
		!sameFloat(a.BytesPerOp, b.BytesPerOp) || !sameFloat(a.AllocsPerOp, b.AllocsPerOp) ||
		len(a.Metrics) != len(b.Metrics) {
		return false
	}
	for u, v := range a.Metrics {
		w, ok := b.Metrics[u]
		if !ok || !sameFloat(v, w) {
			return false
		}
	}
	return true
}

// FuzzParseLine: the go test output parser never panics, and any line it
// accepts round-trips — printed back in go test's layout (with a
// GOMAXPROCS suffix) and parsed again, it yields the same name, counts,
// and metrics.
func FuzzParseLine(f *testing.F) {
	for _, seed := range []string{
		"BenchmarkTable1-2   	1	618000000 ns/op	12.5 sim-ms-blocking	3.2 improvement-%",
		"BenchmarkCoroSwitch-2           	202536657	         6.138 ns/op	       0 B/op	       0 allocs/op",
		"BenchmarkShardedEngine/shards=2-2 	1	5 ns/op	7 MB/s",
		"BenchmarkSpawn-2   	  103789	     14119 ns/op	      4591 host-B/thread	     692 B/op	      14 allocs/op",
		"BenchmarkX 1 NaN x +Inf y",
		"BenchmarkX",
		"BenchmarkX notanumber 1 ns/op",
		"BenchmarkX 1 1",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		b, ok := parseLine(line)
		if !ok {
			return
		}
		again, ok := parseLine(formatLine(b))
		if !ok {
			t.Fatalf("reformatted line %q of %q rejected", formatLine(b), line)
		}
		if !sameBenchmark(b, again) {
			t.Fatalf("round trip of %q: %+v, then %+v", line, b, again)
		}
	})
}
