package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkEngineEventThroughput measures raw event dispatch rate.
func BenchmarkEngineEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var step func()
	n := 0
	step = func() {
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	e.After(1, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCoroSwitch measures one coroutine round trip (sleep + resume),
// the unit cost of everything the simulator does.
func BenchmarkCoroSwitch(b *testing.B) {
	e := NewEngine()
	c := e.Spawn("bench", func(c *Coro) {
		for i := 0; i < b.N; i++ {
			c.Sleep(1)
		}
	})
	c.Start(0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCoroSwitchSlowPath measures the same round trip with inline
// self-wakeups disabled: the event allocation-free heap cycle plus two
// goroutine handoffs every Sleep paid before the fast path existed.
func BenchmarkCoroSwitchSlowPath(b *testing.B) {
	e := NewEngine()
	e.SetInlineWakeups(false)
	c := e.Spawn("bench", func(c *Coro) {
		for i := 0; i < b.N; i++ {
			c.Sleep(1)
		}
	})
	c.Start(0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawn measures the whole life of one simulated thread that
// parks: Spawn, Start, first dispatch, Park, and the kill unwind at
// shutdown. Threads live in populations of spawnBatch per engine, and
// host-B/thread reports what each costs the host while the population is
// parked — live heap plus goroutine stacks, measured after a GC on both
// sides. It is the per-thread footprint a million-thread run would pay,
// and report-only (the host-* units never gate benchjson -compare).
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	const spawnBatch = 1024
	park := func(c *Coro) { c.Park() }
	var bytes int64
	for done := 0; done < b.N; {
		n := min(spawnBatch, b.N-done)
		b.StopTimer()
		before := hostBytes()
		b.StartTimer()
		e := NewEngine()
		for i := 0; i < n; i++ {
			e.Spawn("t", park).Start(0)
		}
		if err := e.RunFor(0); !errors.Is(err, ErrDeadlock) {
			b.Fatalf("RunFor = %v, want every thread parked", err)
		}
		b.StopTimer()
		bytes += hostBytes() - before
		b.StartTimer()
		if err := e.Run(); !errors.Is(err, ErrDeadlock) {
			b.Fatal(err)
		}
		done += n
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "host-B/thread")
}

// hostBytes is the live heap plus goroutine stack memory after a GC.
func hostBytes() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc + ms.StackInuse)
}

// BenchmarkCellAtomicOr measures the simulated atomic primitive including
// its latency charge.
func BenchmarkCellAtomicOr(b *testing.B) {
	m := NewMachine(Config{Nodes: 2})
	cell := m.NewCell(0, "x", 0)
	c := m.Engine().Spawn("bench", func(c *Coro) {
		a := &coroAccessor{c: c}
		for i := 0; i < b.N; i++ {
			cell.AtomicOr(a, 1)
			cell.Poke(0)
		}
	})
	c.Start(0)
	b.ResetTimer()
	if err := m.Engine().Run(); err != nil {
		b.Fatal(err)
	}
}

// coroAccessor adapts a bare Coro to the Accessor interface for benches.
type coroAccessor struct{ c *Coro }

func (a *coroAccessor) Node() int      { return 0 }
func (a *coroAccessor) Advance(d Time) { a.c.Sleep(d) }

// benchSpin runs one bounded busy-wait of b.N futile probes against a
// flag nobody sets, with the contention-epoch fast path on or off.
func benchSpin(b *testing.B, batched bool) {
	b.ReportAllocs()
	m := NewMachine(Config{Nodes: 1})
	e := m.Engine()
	e.SetBatchedSpins(batched)
	cell := m.NewCell(0, "flag", 0)
	a := &spinAccessor{}
	c := e.Spawn("bench", func(c *Coro) {
		a.c = c
		spec := &SpinSpec{
			ProbeCell: cell,
			Probe:     func() bool { return cell.Peek() != 0 },
			PauseCost: func() Time { return 100 * Nanosecond },
			MaxIters:  int64(b.N),
		}
		c.SpinUntil(a, spec)
	})
	c.Start(0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpinBatched measures a futile probe with spin batching: after
// the two-iteration steady-state proof, the engine commits the remaining
// iterations in closed form, so per-iteration cost is near zero.
func BenchmarkSpinBatched(b *testing.B) { benchSpin(b, true) }

// BenchmarkSpinSlowPath measures the same loop per-iteration: one probe
// charge and one pause per futile probe, the cost every spin paid before
// batching existed.
func BenchmarkSpinSlowPath(b *testing.B) { benchSpin(b, false) }

// BenchmarkSpinInterleaved measures spinners that interleave: eight
// threads on eight nodes spin on one flag on node 0 — one local probe
// (1.7µs iterations on GP1000 costs), seven remote (3.5µs) — under a
// 1 ms quantum. One op is one 1 ms period: the spinners start at
// staggered offsets with fresh slices, a callback raises the flag 800µs
// in, and each spinner then sleeps to its offset in the next period, so
// every op repeats the same interleaving and batched-iters/op is exact.
func BenchmarkSpinInterleaved(b *testing.B) {
	b.ReportAllocs()
	const period = 1 * Millisecond
	m := NewMachine(Config{Nodes: 8, Quantum: period})
	e := m.Engine()
	flag := m.NewCell(0, "flag", 0)
	var release func()
	round := uint64(0)
	release = func() {
		round++
		flag.Poke(round)
		if round < uint64(b.N) {
			e.At(Time(round)*period+800*Microsecond, release)
		}
	}
	e.At(800*Microsecond, release)
	for i := 0; i < m.Nodes(); i++ {
		offset := Time(i) * 137 * Nanosecond
		a := &sliceAccessor{node: i, quantum: period}
		c := e.Spawn(fmt.Sprintf("spinner%d", i), func(c *Coro) {
			a.c = c
			want := uint64(0)
			spec := &SpinSpec{
				ProbeCell: flag, ProbeAtomic: true,
				Probe:     func() bool { return flag.Peek() >= want },
				PauseCost: func() Time { return 500 * Nanosecond },
				MaxIters:  SpinUnbounded,
			}
			for op := 1; op <= b.N; op++ {
				want = uint64(op)
				a.left = period
				c.SpinUntil(a, spec)
				c.Sleep(Time(op)*period + offset - e.Now())
			}
		})
		c.Start(offset)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(e.spinBatchedIters)/float64(b.N), "batched-iters/op")
}
