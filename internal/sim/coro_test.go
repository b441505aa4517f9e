package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestKilledBeforeDispatchNeverRuns: a coro that shutdown kills before its
// first dispatch reports Done without entering its body; the kill unwind
// is its only dispatch.
func TestKilledBeforeDispatchNeverRuns(t *testing.T) {
	e := NewEngine()
	ran := false
	c := e.Spawn("idle", func(c *Coro) { ran = true })
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if ran {
		t.Fatal("body of a never-dispatched coro ran at shutdown")
	}
	if !c.Done() || e.Live() != 0 {
		t.Fatalf("Done = %v, Live = %d; want true, 0", c.Done(), e.Live())
	}
	if n := e.Counts().Dispatches; n != 1 {
		t.Fatalf("Dispatches = %d, want 1 (the kill unwind)", n)
	}
}

// TestCoroPanicUnwindsOthers: one coro's panic fails the run with its
// name, and every other coro — finished, sleeping, parked, or never
// started — is wound down.
func TestCoroPanicUnwindsOthers(t *testing.T) {
	e := NewEngine()
	unwound := map[string]bool{}
	body := func(name string, f func(c *Coro)) *Coro {
		return e.Spawn(name, func(c *Coro) {
			defer func() { unwound[name] = true }()
			f(c)
		})
	}
	coros := []*Coro{
		body("quick", func(c *Coro) {}),
		body("sleeper", func(c *Coro) { c.Sleep(Second) }),
		body("parker", func(c *Coro) { c.Park() }),
		body("x", func(c *Coro) { c.Sleep(5); panic("kaboom") }),
	}
	for _, c := range coros {
		c.Start(0)
	}
	idle := e.Spawn("idle", func(c *Coro) { t.Error("never-started coro ran") })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `sim: coro "x" panicked: kaboom`) {
		t.Fatalf("Run = %v, want the panic of coro x", err)
	}
	for _, name := range []string{"quick", "sleeper", "parker", "x"} {
		if !unwound[name] {
			t.Errorf("coro %s did not unwind", name)
		}
	}
	for _, c := range append(coros, idle) {
		if !c.Done() {
			t.Errorf("coro %s not Done after Run", c.Name())
		}
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d, want 0", e.Live())
	}
}

// waitGoroutines polls until the goroutine count is back at base; a
// stopped carrier exits within its stop call, so the wait is a guard
// against unrelated runtime goroutines, not a required delay.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("NumGoroutine = %d, want %d: carriers leaked", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// leakWorkload spawns coros that finish early (their carriers go idle on
// the free list), coros that park forever, a coro that never starts, and
// one that ends the run in the given way.
func leakWorkload(e *Engine, end string) {
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("short%d", i), func(c *Coro) { c.Sleep(Time(i)) }).Start(0)
		e.Spawn(fmt.Sprintf("park%d", i), func(c *Coro) { c.Park() }).Start(Time(i))
	}
	e.Spawn("idle", func(c *Coro) {})
	e.Spawn("end", func(c *Coro) {
		c.Sleep(10)
		switch end {
		case "stop":
			e.Stop()
			c.Park()
		case "fail":
			panic("fail")
		default:
			c.Park()
		}
	}).Start(0)
}

// TestRunLeavesNoGoroutines: whether Run ends on deadlock, Stop, or a
// coro failure, it stops every carrier it started — busy and idle — so
// the goroutine count returns to its baseline across many engines.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, end := range []string{"deadlock", "stop", "fail"} {
		t.Run(end, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 100; i++ {
				e := NewEngine()
				leakWorkload(e, end)
				err := e.Run()
				switch end {
				case "deadlock":
					if !errors.Is(err, ErrDeadlock) {
						t.Fatalf("Run = %v, want ErrDeadlock", err)
					}
				case "stop":
					if err != nil {
						t.Fatalf("Run = %v, want nil", err)
					}
				case "fail":
					if err == nil || !strings.Contains(err.Error(), `"end" panicked`) {
						t.Fatalf("Run = %v, want the panic of coro end", err)
					}
				}
				if e.Live() != 0 {
					t.Fatalf("Live = %d after Run", e.Live())
				}
			}
			waitGoroutines(t, base)
		})
	}
	t.Run("sharded", func(t *testing.T) {
		base := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			sh := NewSharded(Config{Nodes: 4, Seed: 1}, ShardOptions{Shards: 2, Workers: 2})
			leakWorkload(sh.Machine(0).Engine(), "deadlock")
			leakWorkload(sh.Machine(1).Engine(), "deadlock")
			if err := sh.Run(); !errors.Is(err, ErrDeadlock) {
				t.Fatalf("Run = %v, want ErrDeadlock", err)
			}
		}
		waitGoroutines(t, base)
	})
}

// TestSpawnAllocs bounds the heap cost of one simulated thread's whole
// life — Spawn, Start, dispatch, finish — once the engine has an idle
// carrier to reuse: only the Coro itself is allocated.
func TestSpawnAllocs(t *testing.T) {
	e := NewEngine()
	body := func(c *Coro) {}
	life := func() {
		e.Spawn("t", body).Start(0)
		if err := e.RunFor(0); err != nil {
			t.Fatal(err)
		}
	}
	life() // the first life creates the carrier later ones reuse
	if a := testing.AllocsPerRun(100, life); a > 1 {
		t.Errorf("Spawn+Start+finish = %v allocs, want <= 1", a)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
