package cli

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/trace"
)

// contendedRun drives an adaptive lock hard enough to block threads and
// reconfigure the lock, so the tracer, profiler, and ledger all have
// content to write.
func contendedRun(t *testing.T, tr *trace.Tracer, obs *Observe) {
	t.Helper()
	sys := cthreads.New(sim.Config{Nodes: 2})
	sys.SetTracer(tr)
	obs.Attach(sys)
	l := locks.NewAdaptiveLock(sys, 0, "cli-lock", locks.DefaultCosts(), nil)
	for i := 0; i < 4; i++ {
		sys.Fork(i%2, fmt.Sprintf("worker%d", i), func(th *cthreads.Thread) {
			for j := 0; j < 10; j++ {
				l.Lock(th)
				th.Advance(150 * sim.Microsecond)
				l.Unlock(th)
				th.Advance(10 * sim.Microsecond)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// render writes through each writer into one buffer, the way the file
// is expected to read.
func render(t *testing.T, writers ...func(io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	for _, w := range writers {
		if err := w(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTraceFlushPicksFormatByExtension(t *testing.T) {
	tr := trace.New(0)
	contendedRun(t, tr, &Observe{})
	if tr.Len() == 0 {
		t.Fatal("contended run recorded no events")
	}
	chrome, text := render(t, tr.WriteChrome), render(t, tr.WriteText)
	dir := t.TempDir()
	for _, tc := range []struct {
		name, want string
	}{
		{"run.json", chrome},
		{"run.JSON", chrome},
		{"run.log", text},
		{"run", text},
	} {
		path := filepath.Join(dir, tc.name)
		var reports bytes.Buffer
		tf := &Trace{Path: path}
		if err := tf.Flush(tr, &reports); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := readFile(t, path); got != tc.want {
			t.Errorf("%s: file differs from the expected exporter's output", tc.name)
		}
		if reports.Len() != 0 {
			t.Errorf("%s: reports printed without -trace-reports", tc.name)
		}
	}

	var reports bytes.Buffer
	tf := &Trace{Path: filepath.Join(dir, "reported.json"), Reports: true}
	if err := tf.Flush(tr, &reports); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reports.String(), "per-processor utilization timeline") {
		t.Errorf("-trace-reports printed no utilization timeline: %q", reports.String())
	}
}

func TestObserveFlushPicksFormatByExtension(t *testing.T) {
	// The paths only switch the collectors on; probe is never flushed.
	probe := &Observe{ProfilePath: "probe", LedgerPath: "probe"}
	contendedRun(t, nil, probe)
	prof, ledger := probe.Profiler(), probe.Ledger()
	if ledger.Len() == 0 || len(prof.Threads()) == 0 {
		t.Fatal("contended run recorded no ledger entries or profiled threads")
	}
	folded := render(t, prof.WriteFolded)
	table := render(t, prof.WriteTable, prof.WriteHistograms)
	ledgerJSON, report := render(t, ledger.WriteJSON), render(t, ledger.WriteReport)

	dir := t.TempDir()
	for _, tc := range []struct {
		profile, ledger         string
		wantProfile, wantLedger string
	}{
		{"p.folded", "l.json", folded, ledgerJSON},
		{"p.FOLDED", "l.Json", folded, ledgerJSON},
		{"p.txt", "l.txt", table, report},
		{"p", "l", table, report},
	} {
		obs := &Observe{
			ProfilePath: filepath.Join(dir, tc.profile),
			LedgerPath:  filepath.Join(dir, tc.ledger),
			prof:        prof,
			ledger:      ledger,
		}
		if err := obs.Flush(); err != nil {
			t.Fatalf("%s/%s: %v", tc.profile, tc.ledger, err)
		}
		if got := readFile(t, obs.ProfilePath); got != tc.wantProfile {
			t.Errorf("%s: profile file differs from the expected exporter's output", tc.profile)
		}
		if got := readFile(t, obs.LedgerPath); got != tc.wantLedger {
			t.Errorf("%s: ledger file differs from the expected exporter's output", tc.ledger)
		}
	}
}

func TestFlushWithoutCollectorOrPathIsNoOp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")

	if err := (&Trace{Path: path}).Flush(nil, nil); err != nil {
		t.Errorf("nil tracer: %v", err)
	}
	if err := (&Trace{}).Flush(trace.New(0), nil); err != nil {
		t.Errorf("empty -trace path: %v", err)
	}
	// Paths set but no collector ever built: nothing ran under them.
	if err := (&Observe{ProfilePath: path, LedgerPath: path}).Flush(); err != nil {
		t.Errorf("unbuilt observers: %v", err)
	}
	if err := (&Observe{}).Flush(); err != nil {
		t.Errorf("empty observer paths: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("no-op flushes created %d files", len(entries))
	}
}

func TestFlushReportsCreateErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "out.json")
	if err := (&Trace{Path: missing}).Flush(trace.New(0), nil); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("trace flush into a missing directory: err = %v, want ErrNotExist", err)
	}
	obs := &Observe{LedgerPath: missing}
	obs.Ledger()
	if err := obs.Flush(); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ledger flush into a missing directory: err = %v, want ErrNotExist", err)
	}
}
