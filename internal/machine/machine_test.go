package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
)

// testConfig is a small machine with tiny caches so that eviction
// behaviour is exercised quickly.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NodeBytes = 1 << 30
	cfg.L1 = cache.Config{Name: "L1", Bytes: 1 << 10, Ways: 2}
	cfg.L2 = cache.Config{Name: "L2", Bytes: 4 << 10, Ways: 4}
	cfg.L3 = cache.Config{Name: "L3", Bytes: 16 << 10, Ways: 4}
	return cfg
}

func TestTopology(t *testing.T) {
	m := New(DefaultConfig())
	if m.Nodes() != 2 {
		t.Fatalf("nodes = %d, want 2", m.Nodes())
	}
	if m.Node(0).Kind().String() != "DRAM" {
		t.Errorf("node 0 kind = %v, want DRAM", m.Node(0).Kind())
	}
	if m.Node(1).Kind().String() != "PCM" {
		t.Errorf("node 1 kind = %v, want PCM", m.Node(1).Kind())
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero sockets")
		}
	}()
	New(Config{Sockets: 0})
}

func TestWriteStaysInCacheUntilEviction(t *testing.T) {
	m := New(testConfig())
	th := m.NewThread("app", 0, 0)
	// A single line written repeatedly never reaches memory.
	for i := 0; i < 100; i++ {
		th.Access(0, 8, true)
	}
	if got := m.Node(0).WriteLines(); got != 0 {
		t.Errorf("writes reached memory without eviction: %d", got)
	}
	if m.Node(0).ReadLines() != 1 {
		t.Errorf("fill reads = %d, want 1", m.Node(0).ReadLines())
	}
}

func TestDirtyEvictionReachesHomeNode(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	th := m.NewThread("app", 0, 0)
	// Remote (node 1) address: write a working set far beyond all
	// cache capacity, then stream over it again to force evictions.
	base := cfg.NodeBytes // first address on node 1
	lines := 4 * (16 << 10) / 64
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			th.Access(base+uint64(i)*97*64, 8, true) // stride to spread sets
		}
	}
	if got := m.Node(1).WriteLines(); got == 0 {
		t.Error("no writebacks reached the remote node")
	}
	if got := m.Node(0).WriteLines(); got != 0 {
		t.Errorf("writebacks leaked to node 0: %d", got)
	}
	if m.QPI().WriteLines == 0 {
		t.Error("remote writebacks should cross QPI")
	}
}

func TestSmallWorkingSetAbsorbedByL3(t *testing.T) {
	// The paper's key cache effect: a working set that fits in L3 is
	// absorbed; one that does not leaks writes to memory.
	cfg := testConfig()
	m := New(cfg)
	th := m.NewThread("app", 0, 0)
	small := (4 << 10) / 64 // fits L3 (16 KB)
	for pass := 0; pass < 50; pass++ {
		for i := 0; i < small; i++ {
			th.Access(uint64(i*64), 8, true)
		}
	}
	absorbed := m.Node(0).WriteLines()

	m2 := New(cfg)
	th2 := m2.NewThread("app", 0, 0)
	big := (64 << 10) / 64 // 4x L3
	for pass := 0; pass < 50; pass++ {
		for i := 0; i < big; i++ {
			th2.Access(uint64(i*64), 8, true)
		}
	}
	leaked := m2.Node(0).WriteLines()
	if absorbed*10 > leaked {
		t.Errorf("L3 absorption too weak: small-set writes %d vs big-set %d", absorbed, leaked)
	}
}

func TestClockAdvances(t *testing.T) {
	m := New(testConfig())
	th := m.NewThread("app", 0, 0)
	if th.Cycles() != 0 {
		t.Fatal("fresh thread clock should be 0")
	}
	th.Compute(100)
	if th.Cycles() != 100 {
		t.Errorf("compute cycles = %v, want 100", th.Cycles())
	}
	before := th.Cycles()
	th.Access(0, 8, false) // cold miss -> MemLocal
	if th.Cycles()-before != m.Config().Costs.MemLocal {
		t.Errorf("cold local miss cost = %v, want %v", th.Cycles()-before, m.Config().Costs.MemLocal)
	}
	before = th.Cycles()
	th.Access(0, 8, false) // now an L1 hit
	if th.Cycles()-before != m.Config().Costs.L1Hit {
		t.Errorf("L1 hit cost = %v, want %v", th.Cycles()-before, m.Config().Costs.L1Hit)
	}
}

func TestRemoteCostsMore(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	th := m.NewThread("app", 0, 0)
	th.Access(0, 8, false)
	localCost := th.Cycles()
	th2 := m.NewThread("app2", 0, 1)
	th2.Access(cfg.NodeBytes, 8, false)
	remoteCost := th2.Cycles()
	if remoteCost <= localCost {
		t.Errorf("remote access (%v) should cost more than local (%v)", remoteCost, localCost)
	}
}

func TestParallelismSpeedsClock(t *testing.T) {
	m := New(testConfig())
	th := m.NewThread("app", 0, 0)
	th.Parallelism = 4
	th.Compute(400)
	if th.Cycles() != 100 {
		t.Errorf("4-way parallel compute of 400 = %v cycles, want 100", th.Cycles())
	}
}

func TestSMTPenalty(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	th := m.NewThread("app", 0, 0)
	m.SetRunnable(0, cfg.CoresPerSocket+1) // oversubscribed
	th.Compute(100)
	if th.Cycles() <= 100 {
		t.Errorf("oversubscribed compute = %v cycles, want > 100", th.Cycles())
	}
}

func TestAccessSpanningLines(t *testing.T) {
	m := New(testConfig())
	th := m.NewThread("app", 0, 0)
	// 100 bytes starting at offset 60 spans 3 lines (60..159).
	th.Access(60, 100, false)
	if got := m.Node(0).ReadLines(); got != 3 {
		t.Errorf("spanning access read %d lines, want 3", got)
	}
}

func TestDrainCaches(t *testing.T) {
	m := New(testConfig())
	th := m.NewThread("app", 0, 0)
	th.Access(0, 8, true)
	if m.Node(0).WriteLines() != 0 {
		t.Fatal("write should still be cached")
	}
	m.DrainCaches()
	if m.Node(0).WriteLines() != 1 {
		t.Errorf("drain wrote %d lines, want 1", m.Node(0).WriteLines())
	}
}

func TestResetCounters(t *testing.T) {
	m := New(testConfig())
	th := m.NewThread("app", 0, 0)
	th.Access(0, 8, true)
	m.DrainCaches()
	m.ResetCounters()
	if m.Node(0).WriteLines() != 0 || m.QPI().WriteLines != 0 {
		t.Error("counters not reset")
	}
}

// Property: total memory writes never exceed total lines written by the
// program (each dirty line is written back at most once per dirtying).
func TestWritebackBoundProperty(t *testing.T) {
	cfg := testConfig()
	f := func(addrs []uint16) bool {
		m := New(cfg)
		th := m.NewThread("p", 0, 0)
		for _, a := range addrs {
			th.Access(uint64(a)*64, 8, true)
		}
		m.DrainCaches()
		total := m.Node(0).WriteLines() + m.Node(1).WriteLines()
		return total <= uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: after draining, every distinct line written appears at
// least once as a memory write (no write is lost).
func TestNoWriteLostProperty(t *testing.T) {
	cfg := testConfig()
	f := func(addrs []uint16) bool {
		if len(addrs) == 0 {
			return true
		}
		m := New(cfg)
		th := m.NewThread("p", 0, 0)
		distinct := map[uint64]bool{}
		for _, a := range addrs {
			th.Access(uint64(a)*64, 8, true)
			distinct[uint64(a)*64&^63] = true
		}
		m.DrainCaches()
		total := m.Node(0).WriteLines() + m.Node(1).WriteLines()
		return total >= uint64(len(distinct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReleasedMachinePanics(t *testing.T) {
	m := New(testConfig())
	th := m.NewThread("t", 0, 0)
	th.Access(0x1000, 8, true)
	m.Release()
	defer func() {
		if recover() == nil {
			t.Error("an access on a released machine did not panic")
		}
	}()
	th.Access(0x1000, 8, true)
}
