package monitor

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/sim"
)

func monSys(procs int) *cthreads.System {
	return cthreads.New(sim.Config{
		Nodes:         procs,
		LocalAccess:   10,
		RemoteAccess:  40,
		AtomicExtra:   5,
		Instr:         1,
		ContextSwitch: 100,
		Wakeup:        200,
		Seed:          1,
	})
}

func TestRecordsFlowToSubscriber(t *testing.T) {
	sys := monSys(2)
	m := NewLocal(sys, Config{Node: 1, Poll: 1000})
	var got []Record
	m.Subscribe(func(mt *cthreads.Thread, r Record) { got = append(got, r) })
	m.Start()
	sys.Fork(0, "app", func(th *cthreads.Thread) {
		for i := 0; i < 10; i++ {
			m.Probe(th, 7, int64(i))
			th.Advance(500)
		}
		m.RequestStop()
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d records, want 10", len(got))
	}
	for i, r := range got {
		if r.Sensor != 7 || r.Value != int64(i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if !m.Stopped() {
		t.Fatal("monitor thread did not stop")
	}
}

func TestDeliveryLagIsPositive(t *testing.T) {
	sys := monSys(2)
	m := NewLocal(sys, Config{Node: 1, Poll: 5000})
	m.Subscribe(func(mt *cthreads.Thread, r Record) {})
	m.Start()
	sys.Fork(0, "app", func(th *cthreads.Thread) {
		for i := 0; i < 20; i++ {
			m.Probe(th, 1, int64(i))
			th.Advance(1000)
		}
		m.RequestStop()
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := m.Stats()
	if st.Delivered != 20 {
		t.Fatalf("delivered = %d, want 20", st.Delivered)
	}
	// Records wait for the poll; the mean lag reflects the loose coupling.
	if st.MeanLag <= 0 {
		t.Fatalf("MeanLag = %v, want > 0", st.MeanLag)
	}
}

// TestDeliveriesReachSystemLedger: with a ledger attached to the system,
// the monitor thread appends one deliver entry per delivered record (none
// for dropped ones), and the entries' lags sum to the monitor's own total
// collection-to-delivery lag.
func TestDeliveriesReachSystemLedger(t *testing.T) {
	sys := monSys(2)
	led := core.NewLedger(0)
	sys.SetLedger(led)
	m := NewLocal(sys, Config{Node: 1, BufferCap: 4, Poll: 5000})
	var got []Record
	var totalLag sim.Time
	m.Subscribe(func(mt *cthreads.Thread, r Record) {
		got = append(got, r)
		totalLag += mt.Now() - r.At
	})
	m.Start()
	sys.Fork(0, "app", func(th *cthreads.Thread) {
		for i := 0; i < 20; i++ {
			m.Probe(th, 3, int64(i+1))
			th.Advance(700)
		}
		m.RequestStop()
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := m.Stats()
	if st.Drops == 0 || st.Delivered == 0 {
		t.Fatalf("drops/delivered = %d/%d, want both > 0", st.Drops, st.Delivered)
	}
	entries := led.Entries()
	if uint64(len(entries)) != st.Delivered || len(entries) != len(got) {
		t.Fatalf("%d ledger entries, want one per delivered record (%d)", len(entries), st.Delivered)
	}
	var lagSum int64
	for i, e := range entries {
		if e.Kind != core.EntryDeliver || e.Object != "monitor" || e.Sensor != "sensor-3" || e.Value != got[i].Value {
			t.Errorf("entry %d = %+v, want a deliver of record %+v", i, e, got[i])
		}
		lagSum += e.Lag
	}
	if lagSum != int64(totalLag) {
		t.Errorf("entries' lag sum = %d, want the monitor's total lag %d", lagSum, totalLag)
	}
	if mean := sim.Time(lagSum) / sim.Time(st.Delivered); mean != st.MeanLag {
		t.Errorf("entries' mean lag = %v, want Stats().MeanLag %v", mean, st.MeanLag)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	sys := monSys(2)
	m := NewLocal(sys, Config{Node: 1, BufferCap: 4, Poll: sim.Second})
	m.Subscribe(func(mt *cthreads.Thread, r Record) {})
	m.Start()
	sys.Fork(0, "app", func(th *cthreads.Thread) {
		for i := 0; i < 20; i++ {
			m.Probe(th, 1, int64(i)) // far faster than the 1s poll
		}
		m.RequestStop()
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := m.Stats()
	if st.Drops == 0 {
		t.Fatal("no drops despite a tiny ring and a slow poll")
	}
	if st.Records != 20 {
		t.Fatalf("records = %d, want 20", st.Records)
	}
	if st.Drops+st.Delivered != 20 {
		t.Fatalf("drops (%d) + delivered (%d) != 20", st.Drops, st.Delivered)
	}
}

func TestProbeChargesRemoteDelivery(t *testing.T) {
	sys := monSys(2)
	m := NewLocal(sys, Config{Node: 1, Poll: 1000})
	m.Start()
	var cost sim.Time
	sys.Fork(0, "app", func(th *cthreads.Thread) {
		start := th.Now()
		m.Probe(th, 1, 42)
		cost = th.Now() - start
		m.RequestStop()
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Two remote references at 40 each.
	if cost != 80 {
		t.Fatalf("probe cost = %v, want 80", cost)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	sys := monSys(2)
	m := NewLocal(sys, Config{Node: 1})
	m.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
		m.RequestStop()
		_ = sys.Run()
	}()
	m.Start()
}

func TestCentralForwardDelaysDeliveries(t *testing.T) {
	run := func(forward int) sim.Time {
		sys := monSys(2)
		m := NewLocal(sys, Config{Node: 1, Poll: 1000, CentralForwardSteps: forward})
		m.Subscribe(func(mt *cthreads.Thread, r Record) {})
		m.Start()
		sys.Fork(0, "app", func(th *cthreads.Thread) {
			for i := 0; i < 50; i++ {
				m.Probe(th, 1, int64(i))
				th.Advance(500)
			}
			m.RequestStop()
		})
		if err := sys.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return m.Stats().MeanLag
	}
	without := run(0)
	with := run(5000)
	// Forwarding each batch to the central monitor keeps the monitor
	// thread busy, so records sit in the ring longer — the loosening of
	// the feedback loop §3 warns about.
	if with <= without {
		t.Fatalf("central forwarding did not increase delivery lag: %v vs %v", with, without)
	}
}
