package main

import (
	"fmt"
	"io"
	"sort"
	"syscall"
	"time"
)

// spanLog records spans around the benchmark's own calls into the repo:
// set-up steps, each simulation, and each round's output check. Spans are
// kept in memory and summarised when the run ends. The nil *spanLog
// records nothing, which is what untraced runs use.
type spanLog struct {
	origin time.Time
	spans  []span
	open   []int // indexes of the spans not yet ended, innermost last
}

// span is one timed call. parent is the enclosing span's index (a set-up
// or round span for a simulation), or -1.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now()}
}

func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	l.spans = append(l.spans, span{name: name, parent: parent, start: time.Since(l.origin)})
	l.open = append(l.open, len(l.spans)-1)
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id].end = time.Since(l.origin)
	l.open = l.open[:len(l.open)-1]
}

// hostCost is the host time one call took.
type hostCost struct {
	wall, cpu time.Duration
}

// call runs f as one span and measures its wall and CPU time. It measures
// on a nil log too; only the span is not kept.
func (l *spanLog) call(name string, f func()) hostCost {
	id := l.begin(name)
	cpu0 := cpuTime()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	l.end(id)
	return hostCost{wall: wall, cpu: cpu}
}

// cpuTime is the process's user plus system CPU time, all threads
// included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid who or a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// total is the summed duration of the spans called name.
func (l *spanLog) total(name string) time.Duration {
	var d time.Duration
	if l != nil {
		for _, s := range l.spans {
			if s.name == name {
				d += s.end - s.start
			}
		}
	}
	return d
}

// print writes, per span name, the call count, the total time, and the
// self time: the total less the time covered by child spans.
func (l *spanLog) print(w io.Writer) {
	if l == nil {
		return
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	for _, s := range l.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		d := s.end - s.start
		a.n++
		a.total += d
		a.self += d
		if s.parent >= 0 {
			by[l.spans[s.parent].name].self -= d
		}
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-34s %8d %12.4f %12.4f\n", n, a.n, a.total.Seconds(), a.self.Seconds())
	}
}
