package sim

import "fmt"

// Cell is one word of simulated shared memory that lives on a specific
// node. Every operation charges the accessing context the local or remote
// reference cost before taking effect, so two contexts racing on a cell
// serialize in completion-time order — exactly the semantics of the
// hardware word the paper's locks are built on.
//
// Because the simulation is sequential, the mutation itself is trivially
// atomic; what the Cell models is the *cost* and the *ordering*.
type Cell struct {
	m    *Machine
	node int
	name string
	v    uint64
}

// NewCell allocates a cell in the memory module of the given node.
func (m *Machine) NewCell(node int, name string, init uint64) *Cell {
	if node < 0 || node >= m.cfg.Nodes {
		panic(fmt.Sprintf("sim: cell %q on nonexistent node %d (machine has %d)", name, node, m.cfg.Nodes))
	}
	return &Cell{m: m, node: node, name: name, v: init}
}

// Node reports the memory node the cell lives on.
func (c *Cell) Node() int { return c.node }

// Name returns the cell's diagnostic name.
func (c *Cell) Name() string { return c.name }

// charge advances a by the plain-reference cost to this cell, including
// any module-contention delay. The Advance usually accrues in place via
// the engine's inline self-wakeup fast path (see Coro.Sleep): a cell
// access whose completion time precedes every pending event advances the
// clock without a coroutine round-trip, and the mutation below still
// lands at the same virtual instant it would have on the slow path.
func (c *Cell) charge(a Accessor) {
	c.m.chargeAccess(a, c.node, 0)
}

// chargeAtomic advances a by the read-modify-write cost to this cell,
// including any module-contention delay. Like charge, it is an in-place
// accrual candidate on the fast path.
func (c *Cell) chargeAtomic(a Accessor) {
	c.m.chargeAccess(a, c.node, c.m.cfg.AtomicExtra)
}

// Load reads the cell, charging one reference.
func (c *Cell) Load(a Accessor) uint64 {
	c.charge(a)
	return c.v
}

// Store writes the cell, charging one reference.
func (c *Cell) Store(a Accessor, v uint64) {
	c.charge(a)
	c.v = v
}

// AtomicOr performs the Butterfly "atomior" primitive: OR the mask into the
// cell and return the previous value, charging one read-modify-write. With
// mask 1 it acts as test-and-set.
func (c *Cell) AtomicOr(a Accessor, mask uint64) uint64 {
	c.chargeAtomic(a)
	old := c.v
	c.v |= mask
	return old
}

// AtomicAdd adds delta (two's-complement) to the cell and returns the new
// value, charging one read-modify-write.
func (c *Cell) AtomicAdd(a Accessor, delta int64) uint64 {
	c.chargeAtomic(a)
	c.v = uint64(int64(c.v) + delta)
	return c.v
}

// CompareAndSwap installs new if the cell holds old, charging one
// read-modify-write. It reports whether the swap happened.
func (c *Cell) CompareAndSwap(a Accessor, old, new uint64) bool {
	c.chargeAtomic(a)
	if c.v != old {
		return false
	}
	c.v = new
	return true
}

// Posted operations are one-way remote references: the accessor's
// processor is occupied for the wire latency, and the operation lands at
// the cell's memory module when the reference completes — the sender
// never observes the result. They are the remote-access form that
// shards: a synchronous Load/Store reads remote state *now* (zero
// lookahead, legal only within the owning shard), while a posted
// operation is a message with at least one full reference latency of
// lookahead, so Machine.Route can carry it across a window barrier with
// semantics identical to the serial engine. On a standalone machine the
// three Post methods behave exactly the same way (the landing is an
// ordinary engine event), so workloads written with them produce
// byte-identical histories at every shard count.

// post routes one posted reference: wire latency d from the accessor to
// the cell's node, module booking and the mutation at the landing
// instant, the accessor occupied for d. The route is issued from the
// *accessor's* machine — the caller's own shard, whose outbox is the
// only one the caller may touch — while the landing runs on the cell's
// owner and books the module there.
func (c *Cell) post(a Accessor, extra Time, apply func()) {
	from := a.Node()
	src := c.m
	if sh := c.m.sharded; sh != nil {
		src = sh.MachineFor(from)
	}
	d := c.m.AccessCost(from, c.node) + extra
	src.Route(from, c.node, d, func() {
		c.m.reserveAccess(from, c.node, extra)
		apply()
	})
	a.Advance(d)
}

// PostStore writes v to the cell one reference latency from now without
// waiting for completion, charging the accessor the plain reference cost.
func (c *Cell) PostStore(a Accessor, v uint64) {
	c.post(a, 0, func() { c.v = v })
}

// PostOr ORs mask into the cell one read-modify-write latency from now
// without waiting for completion or observing the previous value.
func (c *Cell) PostOr(a Accessor, mask uint64) {
	c.post(a, c.m.cfg.AtomicExtra, func() { c.v |= mask })
}

// PostAdd adds delta (two's-complement) to the cell one read-modify-write
// latency from now without waiting for completion or observing the sum.
func (c *Cell) PostAdd(a Accessor, delta int64) {
	c.post(a, c.m.cfg.AtomicExtra, func() { c.v = uint64(int64(c.v) + delta) })
}

// Peek reads the cell without charging time. For setup and assertions only;
// simulated code paths must use Load.
func (c *Cell) Peek() uint64 { return c.v }

// Poke writes the cell without charging time. For setup only.
//
//simlint:allow chargepath -- documented setup-only escape hatch, never used on simulated paths
func (c *Cell) Poke(v uint64) { c.v = v }
