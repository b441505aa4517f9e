package sim

import (
	"fmt"
	"testing"
)

// sliceAccessor is a SpinContext with a timeslice: accrual stops at each
// slice end, and the boundary is absorbed in place with a fresh slice, so
// set commits must stop short of every member's slice end. quantum 0
// means no slices.
type sliceAccessor struct {
	c       *Coro
	node    int
	quantum Time
	left    Time
	busy    Time
}

func (a *sliceAccessor) Node() int { return a.node }

func (a *sliceAccessor) Advance(d Time) {
	if d < 0 {
		d = 0
	}
	for {
		step, boundary := a.SpinAccrue(d)
		d -= step
		a.c.Sleep(step)
		if boundary {
			a.SpinBoundary()
		}
		if d <= 0 {
			return
		}
	}
}

func (a *sliceAccessor) SpinAccrue(d Time) (Time, bool) {
	if a.quantum <= 0 {
		a.busy += d
		return d, false
	}
	step := min(d, a.left)
	a.busy += step
	a.left -= step
	return step, a.left <= 0
}

func (a *sliceAccessor) SpinBoundary() bool {
	a.left = a.quantum
	return false
}

func (a *sliceAccessor) SpinBudget() Time {
	if a.quantum <= 0 {
		return MaxTime
	}
	return a.left
}

// setCommits counts spin set commits with more than one member. A commit
// reports every member it advanced at the same cut, and two separate
// commits never end at the same instant, so consecutive SpinFastForward
// calls with equal times belong to one commit.
type setCommits struct {
	last  Time
	run   int
	sets  int
	iters int64
}

func (s *setCommits) CoroDispatched(Time) {}

func (s *setCommits) SpinFastForward(at Time, iters int64) {
	s.iters += iters
	if s.run > 0 && at == s.last {
		s.run++
		if s.run == 2 {
			s.sets++
		}
		return
	}
	s.last, s.run = at, 1
}

// spinSetParams shapes one interleaved-spinner workload.
type spinSetParams struct {
	seed     uint64
	spinners int
	svc      Time // ModuleService
	rounds   int
}

// runSpinSetWorkload runs spinners that busy-wait together for tokens
// that callbacks drop into cells at random instants; a probe takes a
// token when it finds one, so among spinners probing the same cell the
// dispatch order decides who wins. Each spinner draws its probe node,
// probe cell and kind, pause, MaxIters and slice from the seed; spinners
// come in pairs whose second member copies the first's profile and start
// (identical-profile, same-phase twins, the commit's tie case), and one
// pair in four has no probe cell to charge. With svc > 0 probes queue at
// their modules.
func runSpinSetWorkload(tb testing.TB, p spinSetParams, batched, inline bool, attr Attribution) spinObs {
	tb.Helper()
	m := NewMachine(Config{Nodes: 8, ModuleService: p.svc, Seed: p.seed})
	e := m.Engine()
	e.SetBatchedSpins(batched)
	e.SetInlineWakeups(inline)
	e.SetAttribution(attr)
	obs := spinObs{}
	logf := func(format string, args ...any) {
		obs.log = append(obs.log, fmt.Sprintf("%d/%d ", e.now, e.seq)+fmt.Sprintf(format, args...))
	}
	cells := make([]*Cell, m.Nodes())
	for n := range cells {
		cells[n] = m.NewCell(n, fmt.Sprintf("c%d", n), 0)
	}
	rng := NewRNG(p.seed)
	type profile struct {
		node, cell int
		atomic     bool
		probeless  bool
		pause      Time
		maxIters   int64
		quantum    Time
		start      Time
	}
	var pr profile
	waiters := make([]int, len(cells))
	for i := 0; i < p.spinners; i++ {
		if i%2 == 0 {
			pr = profile{
				node:      rng.Intn(m.Nodes()),
				cell:      rng.Intn(m.Nodes()),
				atomic:    rng.Intn(2) == 0,
				probeless: rng.Intn(4) == 0,
				pause:     Time(100 + rng.Intn(900)),
				maxIters:  SpinUnbounded,
				start:     Time(rng.Intn(20)) * Microsecond,
			}
			if rng.Intn(3) == 0 {
				pr.maxIters = int64(20 + rng.Intn(400))
			}
			if rng.Intn(2) == 0 {
				pr.quantum = Time(20+rng.Intn(200)) * Microsecond
			}
		}
		pr := pr
		i := i
		waiters[pr.cell]++
		a := &sliceAccessor{node: pr.node, quantum: pr.quantum, left: pr.quantum}
		cell := cells[pr.cell]
		spec := &SpinSpec{
			ProbeAtomic: pr.atomic,
			Probe: func() bool {
				if v := cell.Peek(); v > 0 {
					cell.Poke(v - 1)
					return true
				}
				return false
			},
			PauseCost: func() Time { return pr.pause },
			MaxIters:  pr.maxIters,
		}
		if !pr.probeless {
			spec.ProbeCell = cell
		}
		c := e.Spawn(fmt.Sprintf("s%d", i), func(c *Coro) {
			a.c = c
			for r := 1; r <= p.rounds; r++ {
				iters, ok := c.SpinUntil(a, spec)
				logf("s%d r%d iters=%d ok=%v", i, r, iters, ok)
				a.Advance(Time(1+r) * Microsecond)
			}
		})
		c.Start(pr.start)
		obs.busy = append(obs.busy, 0)
		defer func(i int) { obs.busy[i] = a.busy }(i)
	}
	// Each round drops one token per waiter into every cell at a random
	// instant, so every unbounded spin eventually wins one.
	for n, cell := range cells {
		cell, k := cell, uint64(waiters[n])
		at := Time(0)
		for r := 0; r < p.rounds && k > 0; r++ {
			at += Time(50+rng.Intn(400)) * Microsecond
			e.At(at, func() {
				cell.Poke(cell.Peek() + k)
				logf("c%d +%d", n, k)
			})
		}
	}
	if err := e.Run(); err != nil {
		obs.err = err.Error()
	}
	obs.finalNow, obs.finalSeq = e.now, e.seq
	for n := 0; n < m.Nodes(); n++ {
		obs.accesses = append(obs.accesses, m.ModuleAccesses(n))
		obs.qdelay = append(obs.qdelay, m.ModuleQueueDelay(n))
	}
	return obs
}

// diffSpinSetModes runs one interleaved workload batched and per charge,
// with and without inline wakeups, against the per-charge inline
// reference, and returns the batched+inline run's commit counts.
func diffSpinSetModes(t *testing.T, p spinSetParams) *setCommits {
	t.Helper()
	ref := runSpinSetWorkload(t, p, false, true, nil)
	commits := &setCommits{}
	diffSpinObs(t, "batched+inline", ref, runSpinSetWorkload(t, p, true, true, commits))
	diffSpinObs(t, "batched+noinline", ref, runSpinSetWorkload(t, p, true, false, nil))
	return commits
}

// FuzzSpinSetDifferential drives 2–8 interleaved spinners — random probe
// node, pause, MaxIters and slice, identical-profile twins, probe-less
// spinners, module contention and random releases — batched and per
// charge, requiring identical (now, seq)-stamped logs, busy accrual and
// module accounting.
func FuzzSpinSetDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(0), uint8(2))
	f.Add(uint64(5), uint8(8), uint8(0), uint8(3))
	f.Add(uint64(11), uint8(6), uint8(0), uint8(1))
	f.Add(uint64(23), uint8(4), uint8(2), uint8(2))
	f.Add(uint64(42), uint8(7), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, spinners, svcUnits, rounds uint8) {
		diffSpinSetModes(t, spinSetParams{
			seed:     seed%1000 + 1,
			spinners: int(spinners%7) + 2,
			svc:      Time(svcUnits%4) * 300 * Nanosecond,
			rounds:   int(rounds%3) + 1,
		})
	})
}

// TestSpinSetCommitsEngage keeps the fuzz target's regime honest: eight
// interleaved spinners must be committed together, not one at a time,
// and most of their iterations must be skipped in closed form.
func TestSpinSetCommitsEngage(t *testing.T) {
	p := spinSetParams{seed: 5, spinners: 8, rounds: 3}
	commits := diffSpinSetModes(t, p)
	if commits.sets == 0 {
		t.Fatal("no set commit advanced more than one spinner")
	}
	if commits.iters == 0 {
		t.Fatal("no iterations were committed")
	}
	t.Logf("%d multi-member commits, %d iterations skipped", commits.sets, commits.iters)
}
