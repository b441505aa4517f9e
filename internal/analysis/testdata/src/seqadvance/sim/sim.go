// Package sim is a seqadvance fixture with stand-in Engine and Machine
// types carrying the protected field names.
package sim

type Time int64

type Engine struct {
	now              Time
	seq              uint64
	spinFastForwards int64
	spinCommits      int64
}

type Machine struct {
	moduleFree []Time
	queueDelay []Time
	accesses   []int64
}

type event struct {
	when, at Time
	seq      uint64
}

type eventQueue struct {
	a []event
}

// advanceInline is on the allowlist: writes are legal here.
func (e *Engine) advanceInline(t Time) {
	e.now = t
	e.seq++
}

// commitSpinSet is on the allowlist too, re-stamping queued events
// included.
func commitSpinSet(e *Engine, m *Machine, q *eventQueue, node int) {
	e.spinCommits++
	e.spinFastForwards++
	m.queueDelay[node] = 0
	ev := &q.a[0]
	ev.when, ev.at, ev.seq = 1, 0, 2
}

// schedule stamps a fresh event's key.
func schedule(e *Engine, ev event) {
	ev.when, ev.at, ev.seq = e.now, e.now, e.seq
}

func restamp(q *eventQueue, ev *event) {
	q.a[0].when = 9 // want `write to event.when outside the engine allowlist`
	ev.at = 1       // want `write to event.at outside the engine allowlist`
	ev.seq++        // want `write to event.seq outside the engine allowlist`
}

// fastForwardSpin is no longer on the allowlist: the set commit
// replaced it.
func fastForwardSpin(e *Engine) {
	e.spinFastForwards++ // want `write to Engine.spinFastForwards outside the engine allowlist`
}

// Only the set commit counts commits.
func countCommit(e *Engine) {
	e.spinCommits++ // want `write to Engine.spinCommits outside the engine allowlist`
}

func hackEngine(e *Engine) {
	e.now = 5 // want `write to Engine.now outside the engine allowlist`
	e.seq++   // want `write to Engine.seq outside the engine allowlist`
}

func hackMachine(m *Machine, i int) {
	m.accesses[i]++     // want `write to Machine.accesses outside the engine allowlist`
	m.moduleFree[i] = 3 // want `write to Machine.moduleFree outside the engine allowlist`
}

func escape(e *Engine) *Time {
	return &e.now // want `Engine.now \(address taken\)`
}

// reads are always legal.
func read(e *Engine) Time { return e.now }

func allowed(e *Engine) {
	//simlint:allow seqadvance -- fixture: a justified suppression is honored
	e.now = 9
}
