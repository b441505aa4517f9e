package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

// syntheticTrace builds a hand-computable event history: one processor,
// one thread running 40µs of a 70µs trace, plus one lock's events, which
// carry no thread state and must not count as run time.
func syntheticTrace() *Tracer {
	tr := New(256)
	emit := func(ev Event) { tr.Emit(ev) }
	emit(Event{At: 0, Kind: KindThreadFork, Proc: 0, Thread: 1, Name: "w"})
	emit(Event{At: us(10), Kind: KindThreadRun, Proc: 0, Thread: 1})
	emit(Event{At: us(30), Kind: KindThreadBlock, Proc: 0, Thread: 1})
	emit(Event{At: us(50), Kind: KindThreadRun, Proc: 0, Thread: 1})
	emit(Event{At: us(70), Kind: KindThreadDone, Proc: 0, Thread: 1})

	emit(Event{At: us(10), Kind: KindLockRequest, Proc: 0, Thread: 1, Name: "l", A: 0})
	emit(Event{At: us(10), Kind: KindLockAcquire, Proc: 0, Thread: 1, Name: "l", A: 0, B: 0})
	emit(Event{At: us(20), Kind: KindLockRelease, Proc: 0, Thread: 1, Name: "l"})

	return tr
}

func TestUtilizationTimeline(t *testing.T) {
	tr := syntheticTrace()
	rows := tr.UtilizationTimeline(10)
	if len(rows) != 1 {
		t.Fatalf("got %d processors, want 1", len(rows))
	}
	r := rows[0]
	if r.Proc != 0 {
		t.Errorf("proc = %d, want 0", r.Proc)
	}
	// Run spans: 10–30 and 50–70 = 40µs busy out of a 70µs trace end
	// (the last event is thread-done).
	if r.Busy != us(40) {
		t.Errorf("busy = %v, want 40µs", r.Busy)
	}
	if len(r.Timeline) != 10 {
		t.Fatalf("timeline has %d buckets, want 10", len(r.Timeline))
	}
	var sum float64
	for _, f := range r.Timeline {
		if f < 0 || f > 1.0001 {
			t.Errorf("bucket fraction %v out of range", f)
		}
		sum += f
	}
	// 40µs busy over 10 buckets of 7µs each ≈ 5.71 bucket-fractions.
	want := float64(us(40)) / (float64(us(70)) / 10)
	if sum < want-0.01 || sum > want+0.01 {
		t.Errorf("total bucket fraction = %v, want ≈%v", sum, want)
	}
}

func TestRenderersAreTotal(t *testing.T) {
	tr := syntheticTrace()
	u := RenderUtilization(tr.UtilizationTimeline(8), tr.End())
	if !strings.HasSuffix(u, "\n") || !strings.Contains(u, "proc0") {
		t.Errorf("renderer output malformed: %q", u)
	}
	// Empty tracer: the report must not panic and renders its header only.
	empty := New(8)
	_ = RenderUtilization(empty.UtilizationTimeline(8), empty.End())
}
