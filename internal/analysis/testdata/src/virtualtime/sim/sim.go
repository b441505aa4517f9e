// Package sim is a virtualtime fixture: it defines a stand-in Coro
// (path base "sim" makes it match), so receiver and parameter
// positions mark coroutine context exactly as in the real tree.
package sim

import (
	"iter"
	"sync"

	"virtualtime/cthreads"
)

type Coro struct {
	ch chan int
	mu sync.Mutex
}

func work() {}

func (c *Coro) badConcurrency() {
	go work()   // want `go statement`
	c.ch <- 1   // want `channel send`
	<-c.ch      // want `channel receive`
	c.mu.Lock() // want `sync.Mutex operation`
}

func (c *Coro) badMake() {
	ch := make(chan int) // want `make\(chan\)`
	_ = ch
}

func (c *Coro) badSelect() {
	select { // want `select statement`
	default:
	}
}

func (c *Coro) badRange() {
	for range c.ch { // want `range over channel`
	}
}

// param position marks coroutine context too.
func viaParam(c *Coro, wg *sync.WaitGroup) {
	wg.Wait() // want `sync.WaitGroup operation`
}

func viaThread(t *cthreads.Thread, ch chan int) {
	close(ch) // want `close of channel`
}

func viaCond(c *Coro, cond *sync.Cond) {
	cond.Broadcast() // want `sync.Cond operation`
}

func count(yield func(int) bool) {}

func pairs(yield func(int, int) bool) {}

// A runtime coroutine built from coroutine context is a second handoff
// beside the engine's.
func (c *Coro) badPull() {
	next, stop := iter.Pull(count) // want `iter.Pull coroutine`
	defer stop()
	next()
}

func viaThreadPull2(t *cthreads.Thread) {
	next, stop := iter.Pull2[int, int](pairs) // want `iter.Pull2 coroutine`
	defer stop()
	next()
}

// free functions without coroutine context may use native concurrency,
// and may build a runtime coroutine (the engine's carriers do).
func free(ch chan int) {
	ch <- 1
	close(ch)
	next, stop := iter.Pull(count)
	defer stop()
	next()
}

func (c *Coro) allowed() {
	//simlint:allow virtualtime -- fixture: a justified suppression is honored
	c.ch <- 1
}
