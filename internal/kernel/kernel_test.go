package kernel

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
)

func testMachine() *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.NodeBytes = 256 << 20
	cfg.L1 = cache.Config{Name: "L1", Bytes: 1 << 10, Ways: 2}
	cfg.L2 = cache.Config{Name: "L2", Bytes: 4 << 10, Ways: 4}
	cfg.L3 = cache.Config{Name: "L3", Bytes: 16 << 10, Ways: 4}
	return machine.New(cfg)
}

func simOS() Config {
	return Config{EmulateOS: false}
}

func TestMMapAndAccess(t *testing.T) {
	k := New(testMachine(), simOS())
	var resident uint64
	p := k.NewProcess("t", 0, func(p *Process) {
		if err := p.AS.MMap(0x10000000, 1<<20, 0); err != nil {
			t.Errorf("mmap: %v", err)
		}
		p.Access(0x10000000, 64, true)
		resident = p.AS.Resident
	})
	if err := k.RunSolo(p, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	if resident != 1 {
		t.Errorf("resident pages = %d, want 1", resident)
	}
}

func TestSegfault(t *testing.T) {
	k := New(testMachine(), simOS())
	p := k.NewProcess("t", 0, func(p *Process) {
		p.Access(0xDEAD0000, 8, false)
	})
	err := k.RunSolo(p, RunConfig{})
	if err == nil || !strings.Contains(err.Error(), "segmentation fault") {
		t.Errorf("err = %v, want segmentation fault", err)
	}
}

func TestMMapRejectsOverlapAndKernelRange(t *testing.T) {
	k := New(testMachine(), simOS())
	as := newAddressSpace(k)
	if err := as.MMap(0x1000, 0x2000, NodeFirstTouch); err != nil {
		t.Fatalf("mmap: %v", err)
	}
	if err := as.MMap(0x2000, 0x1000, NodeFirstTouch); err == nil {
		t.Error("overlapping mmap should fail")
	}
	if err := as.MMap(KernelBase-0x1000, 0x2000, NodeFirstTouch); err == nil {
		t.Error("mmap into kernel range should fail")
	}
	if err := as.MMap(0x1001, 0x1000, NodeFirstTouch); err == nil {
		t.Error("unaligned mmap should fail")
	}
}

func TestMBindPlacesPagesOnNode(t *testing.T) {
	k := New(testMachine(), simOS())
	p := k.NewProcess("t", 0, func(p *Process) {
		const base, size = 0x20000000, uint64(1 << 20)
		if err := p.AS.MMap(base, size, NodeFirstTouch); err != nil {
			panic(err)
		}
		if err := p.AS.MBind(base, size, 1); err != nil {
			panic(err)
		}
		// Stream writes over 4x the L3 to force evictions to node 1.
		for i := uint64(0); i < 64<<10; i += 64 {
			p.Access(base+i, 8, true)
		}
		for i := uint64(0); i < 64<<10; i += 64 {
			p.Access(base+i, 8, true)
		}
	})
	if err := k.RunSolo(p, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	if k.Machine().Node(1).WriteLines() == 0 {
		t.Error("bound pages should write back to node 1")
	}
	if k.Machine().Node(0).WriteLines() != 0 {
		t.Error("no traffic should reach node 0")
	}
}

func TestMBindSplitsVMA(t *testing.T) {
	k := New(testMachine(), simOS())
	as := newAddressSpace(k)
	if err := as.MMap(0x1000, 0x4000, 0); err != nil {
		t.Fatal(err)
	}
	if err := as.MBind(0x2000, 0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if n, _ := as.policyFor(0x1000); n != 0 {
		t.Errorf("policy before split range = %d, want 0", n)
	}
	if n, _ := as.policyFor(0x2800); n != 1 {
		t.Errorf("policy in split range = %d, want 1", n)
	}
	if n, _ := as.policyFor(0x3000); n != 0 {
		t.Errorf("policy after split range = %d, want 0", n)
	}
	if err := as.MBind(0x900000, 0x1000, 1); err == nil {
		t.Error("mbind of unmapped range should fail")
	}
}

func TestFirstTouchPolicy(t *testing.T) {
	k := New(testMachine(), simOS())
	p := k.NewProcess("t", 1, func(p *Process) { // thread on socket 1
		if err := p.AS.MMap(0x30000000, 1<<20, NodeFirstTouch); err != nil {
			panic(err)
		}
		for i := uint64(0); i < 64<<10; i += 64 {
			p.Access(0x30000000+i, 8, true)
		}
		for i := uint64(0); i < 64<<10; i += 64 {
			p.Access(0x30000000+i, 8, true)
		}
	})
	if err := k.RunSolo(p, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	if k.Machine().Node(1).WriteLines() == 0 {
		t.Error("first-touch from socket 1 should place pages on node 1")
	}
	if k.Machine().Node(0).WriteLines() != 0 {
		t.Error("node 0 should be untouched")
	}
}

func TestPageZeroingOnlyInEmulateOS(t *testing.T) {
	run := func(osCfg Config) uint64 {
		k := New(testMachine(), osCfg)
		p := k.NewProcess("t", 0, func(p *Process) {
			if err := p.AS.MMap(0x10000000, 1<<20, 0); err != nil {
				panic(err)
			}
			p.Access(0x10000000, 8, false) // single cold read
		})
		if err := k.RunSolo(p, RunConfig{}); err != nil {
			t.Fatal(err)
		}
		return k.ZeroedPages()
	}
	if got := run(simOS()); got != 0 {
		t.Errorf("sim mode zeroed %d pages, want 0", got)
	}
	if got := run(DefaultConfig()); got != 1 {
		t.Errorf("emulate-OS mode zeroed %d pages, want 1", got)
	}
}

func TestMUnmapReleasesFrames(t *testing.T) {
	k := New(testMachine(), simOS())
	p := k.NewProcess("t", 0, func(p *Process) {
		if err := p.AS.MMap(0x10000000, PageSize, 0); err != nil {
			panic(err)
		}
		p.Access(0x10000000, 8, true)
		if err := p.AS.MUnmap(0x10000000, PageSize); err != nil {
			panic(err)
		}
		if p.AS.Resident != 0 {
			t.Errorf("resident after munmap = %d", p.AS.Resident)
		}
		if err := p.AS.MUnmap(0x10000000, PageSize); err == nil {
			t.Error("double munmap should fail")
		}
	})
	if err := k.RunSolo(p, RunConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerInterleavesByClock(t *testing.T) {
	k := New(testMachine(), simOS())
	order := []string{}
	mk := func(name string, work int) *Process {
		return k.NewProcess(name, 0, func(p *Process) {
			for i := 0; i < work; i++ {
				p.Compute(50_000) // one quantum each iteration
				order = append(order, name)
			}
		})
	}
	a := mk("a", 4)
	b := mk("b", 4)
	if err := k.Run([]*Process{a, b}, RunConfig{QuantumCycles: 40_000}); err != nil {
		t.Fatal(err)
	}
	// Min-clock scheduling must alternate a and b rather than running
	// one to completion.
	if order[0] == order[1] && order[1] == order[2] {
		t.Errorf("scheduler did not interleave: %v", order)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	k := New(testMachine(), simOS())
	barriers := 0
	after := []string{}
	mk := func(name string, pre int) *Process {
		return k.NewProcess(name, 0, func(p *Process) {
			p.Compute(pre)
			p.Barrier()
			after = append(after, name)
		})
	}
	// b has far more pre-barrier work than a.
	a := mk("a", 1000)
	b := mk("b", 900_000)
	err := k.Run([]*Process{a, b}, RunConfig{
		QuantumCycles: 10_000,
		OnBarrier:     func() { barriers++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if barriers != 1 {
		t.Errorf("OnBarrier fired %d times, want 1", barriers)
	}
	if len(after) != 2 {
		t.Errorf("post-barrier work ran %d times, want 2", len(after))
	}
}

func TestProcessPanicBecomesError(t *testing.T) {
	k := New(testMachine(), simOS())
	p := k.NewProcess("t", 0, func(p *Process) {
		panic("deliberate")
	})
	err := k.RunSolo(p, RunConfig{})
	if err == nil || !strings.Contains(err.Error(), "deliberate") {
		t.Errorf("err = %v, want panic text", err)
	}
}

func TestNoiseInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoisePeriodSec = 1e-6 // very frequent for the test
	k := New(testMachine(), cfg)
	p := k.NewProcess("t", 0, func(p *Process) {
		p.Compute(10_000_000) // ~5.5 ms of simulated time
	})
	if err := k.RunSolo(p, RunConfig{QuantumCycles: 10_000}); err != nil {
		t.Fatal(err)
	}
	if k.Machine().Node(0).WriteLines() == 0 {
		t.Error("kernel noise should write to node 0")
	}
}

func TestOnQuantumReportsAdvancingTime(t *testing.T) {
	k := New(testMachine(), simOS())
	var times []float64
	p := k.NewProcess("t", 0, func(p *Process) {
		for i := 0; i < 10; i++ {
			p.Compute(100_000)
		}
	})
	err := k.RunSolo(p, RunConfig{
		QuantumCycles: 50_000,
		OnQuantum:     func(now float64) { times = append(times, now) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) < 2 {
		t.Fatalf("OnQuantum fired %d times", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Errorf("time went backwards: %v", times)
		}
	}
}

func TestOOMIsReported(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NodeBytes = 1 << 20 // 1 MB per node
	cfg.L1 = cache.Config{Name: "L1", Bytes: 1 << 10, Ways: 2}
	cfg.L2 = cache.Config{Name: "L2", Bytes: 4 << 10, Ways: 4}
	cfg.L3 = cache.Config{Name: "L3", Bytes: 16 << 10, Ways: 4}
	k := New(machine.New(cfg), simOS())
	p := k.NewProcess("t", 0, func(p *Process) {
		if err := p.AS.MMap(0x10000000, 4<<20, 0); err != nil {
			panic(err)
		}
		for off := uint64(0); off < 4<<20; off += PageSize {
			p.Access(0x10000000+off, 8, true)
		}
	})
	err := k.RunSolo(p, RunConfig{})
	if err == nil || !strings.Contains(err.Error(), "out of physical memory") {
		t.Errorf("err = %v, want OOM", err)
	}
}

func TestLookupDoesNotFault(t *testing.T) {
	k := New(testMachine(), simOS())
	p := k.NewProcess("t", 0, func(p *Process) {
		if err := p.AS.MMap(0x10000000, 1<<20, 0); err != nil {
			t.Errorf("mmap: %v", err)
		}
		if _, ok := p.AS.Lookup(0x10000000); ok {
			t.Error("Lookup reported an untouched page resident")
		}
		if p.AS.Resident != 0 {
			t.Error("Lookup faulted a page in")
		}
		p.Access(0x10000000, 8, true)
		pa, ok := p.AS.Lookup(0x10000000 + 8)
		if !ok {
			t.Error("Lookup missed a resident page")
		}
		if pa%PageSize != 8 {
			t.Errorf("Lookup offset = %d, want 8", pa%PageSize)
		}
	})
	if err := k.RunSolo(p, RunConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestMovePagesMigratesAndCharges(t *testing.T) {
	m := testMachine()
	cfg := simOS()
	cfg.MigrationPageCycles = 1000
	cfg.TLBShootdownCycles = 5000
	k := New(m, cfg)
	p := k.NewProcess("t", 0, func(p *Process) {
		const base, length = uint64(0x10000000), uint64(16 * PageSize)
		if err := p.AS.MMap(base, length, 1); err != nil {
			t.Errorf("mmap: %v", err)
		}
		for off := uint64(0); off < length; off += PageSize {
			p.Access(base+off, 8, true)
		}
		if got := p.AS.Residency(base, base+length); got[1] != 16 || got[0] != 0 {
			t.Fatalf("residency before = %v, want [0 16]", got)
		}
		before := p.Th.Cycles()
		r0Writes := m.Node(0).WriteLines()
		r1Reads := m.Node(1).ReadLines()

		moved, stall, err := p.MovePages(base, length, 1, 0)
		if err != nil {
			t.Fatalf("MovePages: %v", err)
		}
		if moved != 16 {
			t.Errorf("moved = %d, want 16", moved)
		}
		if want := 1000.0*16 + 5000; stall != want {
			t.Errorf("stall = %v, want %v", stall, want)
		}
		if p.Th.Cycles()-before < stall {
			t.Error("stall cycles were not charged to the thread")
		}
		if got := p.AS.Residency(base, base+length); got[0] != 16 || got[1] != 0 {
			t.Errorf("residency after = %v, want [16 0]", got)
		}
		// The copy traffic: 64 lines read per page on the source, 64
		// written per page on the destination.
		if got := m.Node(1).ReadLines() - r1Reads; got != 16*64 {
			t.Errorf("source reads = %d, want %d", got, 16*64)
		}
		if got := m.Node(0).WriteLines() - r0Writes; got != 16*64 {
			t.Errorf("destination writes = %d, want %d", got, 16*64)
		}
		// Pages already on the destination are left alone.
		moved, stall, err = p.MovePages(base, length, 1, 0)
		if err != nil || moved != 0 || stall != 0 {
			t.Errorf("second MovePages = (%d, %v, %v), want (0, 0, nil)", moved, stall, err)
		}
	})
	if err := k.RunSolo(p, RunConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestMovePagesRotationChangesFrames(t *testing.T) {
	k := New(testMachine(), simOS())
	p := k.NewProcess("t", 0, func(p *Process) {
		const base = uint64(0x10000000)
		if err := p.AS.MMap(base, 4*PageSize, 1); err != nil {
			t.Errorf("mmap: %v", err)
		}
		for off := uint64(0); off < 4*PageSize; off += PageSize {
			p.Access(base+off, 8, true)
		}
		before := make([]uint64, 4)
		for i := range before {
			before[i], _ = p.AS.Lookup(base + uint64(i)*PageSize)
		}
		moved, _, err := p.MovePages(base, 4*PageSize, 1, 1)
		if err != nil || moved != 4 {
			t.Fatalf("rotate = (%d, %v), want (4, nil)", moved, err)
		}
		for i := range before {
			after, ok := p.AS.Lookup(base + uint64(i)*PageSize)
			if !ok {
				t.Fatalf("page %d unmapped by rotation", i)
			}
			if after == before[i] {
				t.Errorf("page %d kept its frame %#x after rotation", i, after)
			}
			if k.homeNodeOf(after) != 1 {
				t.Errorf("page %d left node 1", i)
			}
		}
	})
	if err := k.RunSolo(p, RunConfig{}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelStopsScheduling pins the cooperative cancellation
// contract: closing RunConfig.Cancel stops the session between quanta,
// every process goroutine unwinds (no leaks — asserted by the -race
// run's goroutine accounting and by the run returning at all), and Run
// reports ErrCancelled.
func TestCancelStopsScheduling(t *testing.T) {
	k := New(testMachine(), simOS())
	cancel := make(chan struct{})
	endless := k.NewProcess("endless", 0, func(p *Process) {
		for {
			p.Compute(50_000)
		}
	})
	// A second endless process: after the cancel fires, both must come
	// back finished even though neither body ever returns.
	endless2 := k.NewProcess("endless2", 0, func(p *Process) {
		for {
			p.Compute(50_000)
		}
	})
	quanta := 0
	err := k.Run([]*Process{endless, endless2}, RunConfig{
		QuantumCycles: 40_000,
		Cancel:        cancel,
		OnQuantum: func(float64) {
			// Fires on the scheduler goroutine between timeslices —
			// exactly where the cancellation check runs.
			if quanta++; quanta == 3 {
				close(cancel)
			}
		},
	})
	if err != ErrCancelled {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	for _, p := range []*Process{endless, endless2} {
		if p.state != procFinished {
			t.Errorf("process %s state = %v after cancel, want finished", p.Name, p.state)
		}
	}
}

// TestNilCancelRunsToCompletion guards the default path: a RunConfig
// without a Cancel channel behaves exactly as before.
func TestNilCancelRunsToCompletion(t *testing.T) {
	k := New(testMachine(), simOS())
	done := false
	p := k.NewProcess("t", 0, func(p *Process) {
		p.Compute(200_000)
		done = true
	})
	if err := k.RunSolo(p, RunConfig{QuantumCycles: 10_000}); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("body did not finish")
	}
}

// TestNewPanicsWhenFramesOverflowPTE checks that a machine whose frames
// a 32-bit page-table entry cannot number is refused, not aliased.
func TestNewPanicsWhenFramesOverflowPTE(t *testing.T) {
	for _, tc := range []struct {
		nodeBytes uint64
		ok        bool
	}{
		{nodeBytes: 1<<43 - PageSize, ok: true}, // 2 nodes: 2^32-2 frames
		{nodeBytes: 1 << 43},                    // 2 nodes: 2^32 frames
		{nodeBytes: 256<<20 + 64},               // frames not page-aligned
	} {
		cfg := machine.DefaultConfig()
		cfg.NodeBytes = tc.nodeBytes
		cfg.L3 = cache.Config{Name: "L3", Bytes: 16 << 10, Ways: 4}
		m := machine.New(cfg)
		func() {
			defer func() {
				if r := recover(); (r == nil) != tc.ok {
					t.Errorf("NodeBytes %#x: panic = %v, want a panic: %v", tc.nodeBytes, r, !tc.ok)
				}
			}()
			New(m, simOS())
		}()
	}
}

// touchedKernel runs one process that maps and touches a page at
// 0x10000000, and returns its finished kernel and process.
func touchedKernel(t *testing.T) (*Kernel, *Process) {
	t.Helper()
	k := New(testMachine(), simOS())
	p := k.NewProcess("t", 0, func(p *Process) {
		if err := p.AS.MMap(0x10000000, 1<<20, 0); err != nil {
			panic(err)
		}
		p.Access(0x10000000, 64, true)
	})
	if err := k.RunSolo(p, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.AS.Lookup(0x10000000); !ok {
		t.Fatal("touched page is not resident")
	}
	return k, p
}

func TestReleasedAddressSpacePanics(t *testing.T) {
	k, p := touchedKernel(t)
	k.Release()
	k.Release() // a second release must not hand the page table out twice
	defer func() {
		if recover() == nil {
			t.Error("Lookup on a released address space did not panic")
		}
	}()
	p.AS.Lookup(0x10000000)
}

// TestRecycledPageTableStartsEmpty checks that an address space built
// after a release maps nothing, including when it reuses the released
// page table.
func TestRecycledPageTableStartsEmpty(t *testing.T) {
	reused := false
	for i := 0; i < 4; i++ {
		k, p := touchedKernel(t)
		released := p.AS.pages
		k.Release()
		as := newAddressSpace(New(testMachine(), simOS()))
		reused = reused || as.pages == released
		if _, ok := as.Lookup(0x10000000); ok {
			t.Fatal("a new address space sees a page of the released one")
		}
	}
	if !reused {
		t.Log("no released page table was reused")
	}
}
