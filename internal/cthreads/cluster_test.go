package cthreads

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// clusterTopo abstracts "one thread package over one big machine" over
// its two implementations: a standalone System or a Cluster partition.
type clusterTopo struct {
	systemFor func(node int) *System
	systems   []*System
	run       func() error
}

func serialClusterTopo(cfg sim.Config) *clusterTopo {
	sys := New(cfg)
	return &clusterTopo{
		systemFor: func(int) *System { return sys },
		systems:   []*System{sys},
		run:       sys.Run,
	}
}

func shardedClusterTopo(cfg sim.Config, shards, workers int) *clusterTopo {
	cl := NewCluster(cfg, sim.ShardOptions{Shards: shards, Workers: workers})
	return &clusterTopo{
		systemFor: cl.SystemFor,
		systems:   cl.systems,
		run:       cl.Run,
	}
}

func (tp *clusterTopo) setModes(batched, inline bool) {
	for _, sys := range tp.systems {
		sys.Engine().SetBatchedSpins(batched)
		sys.Engine().SetInlineWakeups(inline)
	}
}

func (tp *clusterTopo) stats() Stats {
	var total Stats
	for _, sys := range tp.systems {
		st := sys.Stats()
		total.Forks += st.Forks
		total.ContextSwitches += st.ContextSwitches
		total.Wakeups += st.Wakeups
		total.Timeouts += st.Timeouts
		total.Preemptions += st.Preemptions
	}
	return total
}

// clusterParams shapes one differential client/server workload.
type clusterParams struct {
	seed    uint64
	nodes   int
	rounds  int
	quantum sim.Time
	svc     sim.Time
}

// clusterObs is everything observable the workload produced. Identical
// params must yield deeply equal clusterObs at every (shards, workers,
// batched, inline) combination.
type clusterObs struct {
	driverLog    [][]string
	driverFinish []sim.Time
	driverBusy   []sim.Time
	serverBusy   []sim.Time
	serverBlock  []sim.Time
	mail         []uint64
	flags        []uint64
	hub          uint64
	stats        Stats
	accesses     []uint64
	qdelay       []sim.Time
	err          string
}

// runClusterWorkload drives a ring of client/server pairs through every
// cross-shard primitive: driver n computes, posts work into the mailbox
// cell of the server on node (n+1)%N, sends it a WakePost, and spins on
// a local flag the server posts acknowledgements to; the server sleeps
// on BlockTimeout (immune to dropped wake messages), drains its
// mailbox, and acknowledges each unit. After its last round each driver
// ForkPosts a child onto the node halfway across the machine, which
// computes and posts into a hub counter on node 0. With a quantum
// configured, drivers, servers, and migrated children share processors
// preemptively. The same code runs on a standalone System and on any
// Cluster partition; randomness is seeded per (seed, node) only.
func runClusterWorkload(tb testing.TB, p clusterParams, tp *clusterTopo, batched, inline bool) clusterObs {
	tb.Helper()
	tp.setModes(batched, inline)
	n := p.nodes
	obs := clusterObs{
		driverLog:    make([][]string, n),
		driverFinish: make([]sim.Time, n),
		driverBusy:   make([]sim.Time, n),
		serverBusy:   make([]sim.Time, n),
		serverBlock:  make([]sim.Time, n),
		mail:         make([]uint64, n),
		flags:        make([]uint64, n),
	}
	mail := make([]*sim.Cell, n)  // work queue depth, on the server's node
	flags := make([]*sim.Cell, n) // acks for driver i, on driver i's node
	for i := 0; i < n; i++ {
		mach := tp.systemFor(i).Machine()
		mail[i] = mach.NewCell(i, fmt.Sprintf("mail%d", i), 0)
		flags[i] = mach.NewCell(i, fmt.Sprintf("flag%d", i), 0)
	}
	hub := tp.systemFor(0).Machine().NewCell(0, "hub", 0)

	servers := make([]*Thread, n)
	for i := 0; i < n; i++ {
		i := i
		r := sim.NewRNG(p.seed*2_000_003 + uint64(i)*104_729 + 5)
		servers[i] = tp.systemFor(i).Fork(i, fmt.Sprintf("srv%d", i), func(t *Thread) {
			box := mail[i]
			ack := flags[(i-1+n)%n] // serves the driver one node back
			consumed := uint64(0)
			for consumed < uint64(p.rounds) {
				if box.Load(t) == consumed {
					t.BlockTimeout(sim.Time(400+r.Intn(300)) * sim.Microsecond)
					continue
				}
				for box.Load(t) > consumed {
					t.Compute(50 + r.Intn(400))
					consumed++
					ack.PostAdd(t, 1)
				}
			}
			obs.serverBusy[i] = t.Busy()
			obs.serverBlock[i] = t.BlockedTime()
		})
	}
	for i := 0; i < n; i++ {
		i := i
		r := sim.NewRNG(p.seed*3_000_017 + uint64(i)*15_485_863 + 9)
		logf := func(t *Thread, format string, args ...any) {
			obs.driverLog[i] = append(obs.driverLog[i],
				fmt.Sprintf("%d ", t.Now())+fmt.Sprintf(format, args...))
		}
		tp.systemFor(i).Fork(i, fmt.Sprintf("drv%d", i), func(t *Thread) {
			srv := servers[(i+1)%n]
			box := mail[(i+1)%n]
			flag := flags[i]
			for round := 0; round < p.rounds; round++ {
				t.Compute(100 + r.Intn(1500))
				box.PostAdd(t, 1)
				t.WakePost(srv)
				// Spin-then-yield: the server shares this processor, so an
				// unbounded spin would starve it forever under cooperative
				// scheduling — the paper's spin-vs-block pathology.
				want := uint64(round + 1)
				pause := sim.Time(300 + r.Intn(700))
				probes := int64(0)
				for {
					iters, ok := t.SpinUntil(&sim.SpinSpec{
						ProbeCell: flag,
						Probe:     func() bool { return flag.Peek() >= want },
						PauseCost: func() sim.Time { return pause },
						MaxIters:  64 + int64(r.Intn(64)),
					})
					probes += iters
					if ok {
						break
					}
					t.Yield()
				}
				logf(t, "r%d acked after %d probes", round, probes)
			}
			child := (i + n/2) % n
			work := 200 + r.Intn(800)
			t.ForkPost(child, fmt.Sprintf("mig%d", i), func(t *Thread) {
				t.Compute(work)
				hub.PostAdd(t, 1)
			})
			logf(t, "migrated child to %d", child)
			obs.driverFinish[i] = t.Now()
			obs.driverBusy[i] = t.Busy()
		})
	}
	if err := tp.run(); err != nil {
		obs.err = err.Error()
	}
	for i := 0; i < n; i++ {
		obs.mail[i] = mail[i].Peek()
		obs.flags[i] = flags[i].Peek()
		mach := tp.systemFor(i).Machine()
		obs.accesses = append(obs.accesses, mach.ModuleAccesses(i))
		obs.qdelay = append(obs.qdelay, mach.ModuleQueueDelay(i))
	}
	obs.hub = hub.Peek()
	obs.stats = tp.stats()
	return obs
}

// diffClusterObs compares a variant run against the serial reference.
func diffClusterObs(t *testing.T, name string, ref, got clusterObs) {
	t.Helper()
	if ref.err != got.err {
		t.Errorf("%s: err %q, want %q", name, got.err, ref.err)
	}
	if got.hub != ref.hub {
		t.Errorf("%s: hub %d, want %d", name, got.hub, ref.hub)
	}
	if got.stats != ref.stats {
		t.Errorf("%s: stats %+v, want %+v", name, got.stats, ref.stats)
	}
	pairs := []struct {
		what     string
		ref, got any
	}{
		{"mail", ref.mail, got.mail},
		{"flags", ref.flags, got.flags},
		{"driver finish", ref.driverFinish, got.driverFinish},
		{"driver busy", ref.driverBusy, got.driverBusy},
		{"server busy", ref.serverBusy, got.serverBusy},
		{"server blocked", ref.serverBlock, got.serverBlock},
		{"module accesses", ref.accesses, got.accesses},
		{"module queue delay", ref.qdelay, got.qdelay},
	}
	for _, pr := range pairs {
		if !reflect.DeepEqual(pr.ref, pr.got) {
			t.Errorf("%s: %s %v, want %v", name, pr.what, pr.got, pr.ref)
		}
	}
	for w := range ref.driverLog {
		if !reflect.DeepEqual(ref.driverLog[w], got.driverLog[w]) {
			t.Fatalf("%s: driver %d log %q, want %q", name, w, got.driverLog[w], ref.driverLog[w])
		}
	}
}

// diffClusterModes runs one workload across the full (shards × workers
// × batched × inline) cross-product against the serial slow-path
// reference.
func diffClusterModes(t *testing.T, p clusterParams) {
	t.Helper()
	cfg := sim.Config{Nodes: p.nodes, Quantum: p.quantum, ModuleService: p.svc, Seed: p.seed%89 + 1}
	ref := runClusterWorkload(t, p, serialClusterTopo(cfg), false, false)
	modes := []struct {
		name            string
		batched, inline bool
	}{
		{"slow+inline", false, true},
		{"batched+noinline", true, false},
		{"batched+inline", true, true},
	}
	for _, mode := range modes {
		diffClusterObs(t, "serial/"+mode.name, ref,
			runClusterWorkload(t, p, serialClusterTopo(cfg), mode.batched, mode.inline))
	}
	shardGrid := []int{1}
	for _, s := range []int{2, 4, 8} {
		if s <= p.nodes {
			shardGrid = append(shardGrid, s)
		}
	}
	for _, shards := range shardGrid {
		for _, workers := range []int{1, 4} {
			tag := fmt.Sprintf("shards=%d/j=%d", shards, workers)
			diffClusterObs(t, tag+"/slow+noinline", ref,
				runClusterWorkload(t, p, shardedClusterTopo(cfg, shards, workers), false, false))
			for _, mode := range modes {
				diffClusterObs(t, tag+"/"+mode.name, ref,
					runClusterWorkload(t, p, shardedClusterTopo(cfg, shards, workers), mode.batched, mode.inline))
			}
		}
	}
}

func TestClusterDifferential(t *testing.T) {
	for _, tc := range []struct {
		name    string
		quantum sim.Time
		svc     sim.Time
	}{
		{"coop", 0, 0},
		{"preempt", 150 * sim.Microsecond, 0},
		{"preempt+contention", 150 * sim.Microsecond, 300 * sim.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := clusterParams{seed: 13, nodes: 8, rounds: 2, quantum: tc.quantum, svc: tc.svc}
			diffClusterModes(t, p)
			if tc.name == "preempt" {
				requireSpinSetCommits(t, p)
			}
		})
	}
}

// requireSpinSetCommits keeps the differential's batched modes from
// passing vacuously: serially and on every shard count, interleaved
// drivers must be advanced together by multi-member set commits.
func requireSpinSetCommits(t *testing.T, p clusterParams) {
	t.Helper()
	cfg := sim.Config{Nodes: p.nodes, Quantum: p.quantum, ModuleService: p.svc, Seed: p.seed%89 + 1}
	for _, shards := range []int{1, 2, 4} {
		tp := serialClusterTopo(cfg)
		if shards > 1 {
			tp = shardedClusterTopo(cfg, shards, 1)
		}
		if obs := runClusterWorkload(t, p, tp, true, true); obs.err != "" {
			t.Fatalf("shards=%d: %s", shards, obs.err)
		}
		// Every commit advances at least its committer, so more advanced
		// spinners than commits means some commit advanced several.
		var commits, advanced uint64
		for _, sys := range tp.systems {
			c := sys.Engine().Counts()
			commits += c.SpinCommits
			advanced += c.FastForwards
		}
		if advanced <= commits {
			t.Errorf("shards=%d: no spin set commit advanced more than one spinner", shards)
		}
	}
}

// FuzzClusterDifferential drives randomized topologies and schedules —
// node count, rounds, preemption quantum, module contention — through
// the whole grid.
func FuzzClusterDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(6), uint8(2), uint8(2), uint8(1))
	f.Add(uint64(23), uint8(8), uint8(2), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nodes, rounds, quantumUnits, svcUnits uint8) {
		p := clusterParams{
			seed:    seed%1000 + 1,
			nodes:   int(nodes%7) + 2,
			rounds:  int(rounds%2) + 1,
			quantum: sim.Time(quantumUnits%4) * 80 * sim.Microsecond,
			svc:     sim.Time(svcUnits%4) * 250 * sim.Nanosecond,
		}
		diffClusterModes(t, p)
	})
}

// TestClusterCrossShardEngages proves the differential suite is not
// passing vacuously: the standard workload on 4 shards must exchange
// wake, ack, work, and migration messages across partitions.
func TestClusterCrossShardEngages(t *testing.T) {
	p := clusterParams{seed: 13, nodes: 8, rounds: 2}
	cfg := sim.Config{Nodes: p.nodes, Seed: 2}
	cl := NewCluster(cfg, sim.ShardOptions{Shards: 4})
	tp := &clusterTopo{systemFor: cl.SystemFor, systems: cl.systems, run: cl.Run}
	obs := runClusterWorkload(t, p, tp, true, true)
	if obs.err != "" {
		t.Fatalf("workload failed: %s", obs.err)
	}
	var delivered uint64
	for src := 0; src < cl.Shards(); src++ {
		for dst := 0; dst < cl.Shards(); dst++ {
			c, _ := cl.Sharded().EdgeStats(src, dst)
			delivered += c
		}
	}
	// Each boundary driver alone sends rounds×(work+wake) messages, plus
	// acks back and n migrations: far more than nodes×rounds.
	if delivered < uint64(p.nodes*p.rounds) {
		t.Fatalf("only %d cross-shard messages delivered; the partition never engaged", delivered)
	}
	if obs.hub != uint64(p.nodes) {
		t.Fatalf("hub %d, want %d (one migrated child per driver)", obs.hub, p.nodes)
	}
}

// TestClusterForkOwnership pins the guard against forking a thread onto
// a processor another shard owns.
func TestClusterForkOwnership(t *testing.T) {
	cl := NewCluster(sim.Config{Nodes: 4, Seed: 1}, sim.ShardOptions{Shards: 2})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-shard Fork did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "owned by shard 1") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	cl.System(0).Fork(3, "trespasser", func(*Thread) {})
}

// TestClusterDeadlockNamesShards checks Cluster.Run's deadlock report
// names each stuck thread's shard.
func TestClusterDeadlockNamesShards(t *testing.T) {
	cl := NewCluster(sim.Config{Nodes: 4, Seed: 1}, sim.ShardOptions{Shards: 2})
	cl.Fork(3, "sleeper", func(t *Thread) { t.Block() })
	err := cl.Run()
	if err == nil {
		t.Fatal("want deadlock")
	}
	for _, want := range []string{"stuck threads", "sleeper(blocked, shard 1)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report %q does not contain %q", err, want)
		}
	}
}
