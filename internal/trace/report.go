package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// ProcUtilization is one processor's running-time profile derived from the
// thread-state events of a trace.
type ProcUtilization struct {
	Proc int
	// Busy is total time some thread was in the run state on this
	// processor.
	Busy sim.Time
	// Timeline holds the per-bucket utilization fraction in [0,1].
	Timeline []float64
}

// UtilizationTimeline derives each processor's utilization over virtual
// time from thread run spans (thread-run → next state transition),
// bucketed into the given number of equal time slices. This is the
// trace-derived replacement for end-of-run System.Utilization: it shows
// *when* processors idled, not just how much.
func (tr *Tracer) UtilizationTimeline(buckets int) []ProcUtilization {
	if buckets < 1 {
		buckets = 1
	}
	events := tr.Events()
	var end sim.Time
	for _, ev := range events {
		if ev.At > end {
			end = ev.At
		}
	}
	if end == 0 {
		return nil
	}
	type runOpen struct{ since sim.Time }
	open := map[int32]*runOpen{} // thread → open run span
	busy := map[int32]sim.Time{}
	timeline := map[int32][]float64{}
	span := func(proc int32, from, to sim.Time) {
		if to <= from {
			return
		}
		busy[proc] += to - from
		tl, ok := timeline[proc]
		if !ok {
			tl = make([]float64, buckets)
			timeline[proc] = tl
		}
		// Spread the span across the buckets it overlaps.
		width := float64(end) / float64(buckets)
		for b := int(float64(from) / width); b < buckets; b++ {
			lo, hi := float64(b)*width, float64(b+1)*width
			if float64(from) > lo {
				lo = float64(from)
			}
			if float64(to) < hi {
				hi = float64(to)
			}
			if hi <= lo {
				break
			}
			tl[b] += (hi - lo) / width
		}
	}
	for _, ev := range events {
		if ev.Kind > KindThreadDone { // not a thread state transition
			continue
		}
		if ev.Kind == KindThreadRun {
			open[ev.Thread] = &runOpen{since: ev.At}
			continue
		}
		// Any other state transition ends a run span.
		if o, ok := open[ev.Thread]; ok {
			span(ev.Proc, o.since, ev.At)
			delete(open, ev.Thread)
		}
	}
	// A thread still running at end of trace was running until then; its
	// proc is known from any prior event, so re-scan fork events.
	proc := map[int32]int32{}
	for _, ev := range events {
		if ev.Kind == KindThreadFork {
			proc[ev.Thread] = ev.Proc
		}
	}
	var openTids []int
	for tid := range open {
		openTids = append(openTids, int(tid))
	}
	sort.Ints(openTids)
	for _, tid := range openTids {
		span(proc[int32(tid)], open[int32(tid)].since, end)
	}

	var procs []int
	for p := range timeline {
		procs = append(procs, int(p))
	}
	sort.Ints(procs)
	out := make([]ProcUtilization, 0, len(procs))
	for _, p := range procs {
		out = append(out, ProcUtilization{Proc: p, Busy: busy[int32(p)], Timeline: timeline[int32(p)]})
	}
	return out
}

// RenderUtilization renders the utilization timeline as one sparkline row
// per processor.
func RenderUtilization(rows []ProcUtilization, end sim.Time) string {
	blocks := []rune(" ▁▂▃▄▅▆▇█")
	var sb strings.Builder
	sb.WriteString("per-processor utilization timeline (trace-derived)\n")
	for _, r := range rows {
		var bar strings.Builder
		for _, f := range r.Timeline {
			idx := int(f * float64(len(blocks)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(blocks) {
				idx = len(blocks) - 1
			}
			bar.WriteRune(blocks[idx])
		}
		frac := 0.0
		if end > 0 {
			frac = float64(r.Busy) / float64(end)
		}
		fmt.Fprintf(&sb, "  proc%-3d %5.1f%% |%s|\n", r.Proc, 100*frac, bar.String())
	}
	return sb.String()
}

// End reports the time of the last recorded event.
func (tr *Tracer) End() sim.Time {
	var end sim.Time
	for _, ev := range tr.Events() {
		if ev.At > end {
			end = ev.At
		}
	}
	return end
}
