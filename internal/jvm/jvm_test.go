package jvm

import (
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/objmodel"
)

// testPlanCfg is a small configuration so tests trigger many GCs fast.
func testPlanCfg() PlanConfig {
	return PlanConfig{
		BaseNurseryBytes: 128 << 10,
		HeapBytes:        6 << 20,
		BootBytes:        1 << 20,
		ThreadSocket:     -1,
	}
}

// runJVM boots a runtime inside a kernel process, runs body, and
// returns the machine for counter inspection plus the runtime for
// stats (safe to read after the run: everything is single-threaded).
func runJVM(t *testing.T, kind Kind, body func(r *Runtime)) (*machine.Machine, *Runtime) {
	t.Helper()
	mcfg := machine.DefaultConfig()
	mcfg.NodeBytes = 2 << 30
	m := machine.New(mcfg)
	k := kernel.New(m, kernel.Config{EmulateOS: false})
	var rt *Runtime
	p := k.NewProcess("jvm", NewPlan(kind, testPlanCfg()).ThreadSocket, func(p *kernel.Process) {
		r, err := NewRuntime(p, NewPlan(kind, testPlanCfg()))
		if err != nil {
			panic(err)
		}
		rt = r
		body(r)
	})
	if err := k.RunSolo(p, kernel.RunConfig{}); err != nil {
		t.Fatal(err)
	}
	return m, rt
}

func TestPlanNames(t *testing.T) {
	want := map[Kind]string{
		PCMOnly: "PCM-Only", KGN: "KG-N", KGB: "KG-B",
		KGNLOO: "KG-N+LOO", KGBLOO: "KG-B+LOO",
		KGW: "KG-W", KGWNoLOO: "KG-W-LOO", KGWNoMDO: "KG-W-MDO",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
}

// TestPlanTableI checks the space-to-socket mapping of the paper's
// Table I for the three published columns.
func TestPlanTableI(t *testing.T) {
	cfg := testPlanCfg()

	kgn := NewPlan(KGN, cfg)
	if kgn.Bindings[objmodel.SpaceNursery] != DRAMSocket {
		t.Error("KG-N: nursery must be on S0")
	}
	if _, ok := kgn.Bindings[objmodel.SpaceObserver]; ok {
		t.Error("KG-N: no observer space")
	}
	if kgn.Bindings[objmodel.SpaceMaturePCM] != PCMSocket ||
		kgn.Bindings[objmodel.SpaceLargePCM] != PCMSocket {
		t.Error("KG-N: mature and large must be on S1")
	}
	if _, ok := kgn.Bindings[objmodel.SpaceMatureDRAM]; ok {
		t.Error("KG-N: no DRAM mature space")
	}
	if kgn.Bindings[objmodel.SpaceMetaPCM] != PCMSocket ||
		kgn.Bindings[objmodel.SpaceMetaDRAM] != PCMSocket {
		t.Error("KG-N: metadata only on S1")
	}

	kgw := NewPlan(KGW, cfg)
	for _, s := range []objmodel.SpaceID{
		objmodel.SpaceNursery, objmodel.SpaceObserver,
		objmodel.SpaceMatureDRAM, objmodel.SpaceLargeDRAM, objmodel.SpaceMetaDRAM,
	} {
		if kgw.Bindings[s] != DRAMSocket {
			t.Errorf("KG-W: %v must be on S0", s)
		}
	}
	for _, s := range []objmodel.SpaceID{
		objmodel.SpaceMaturePCM, objmodel.SpaceLargePCM, objmodel.SpaceMetaPCM,
	} {
		if kgw.Bindings[s] != PCMSocket {
			t.Errorf("KG-W: %v must be on S1", s)
		}
	}
	if !kgw.MDO || !kgw.LOO || !kgw.Monitor || !kgw.UseObserver {
		t.Error("KG-W must enable MDO, LOO, monitoring, observer")
	}
	if kgw.ObserverBytes != 2*kgw.NurseryBytes {
		t.Error("KG-W observer must be twice the nursery")
	}

	mdo := NewPlan(KGWNoMDO, cfg)
	if mdo.MDO {
		t.Error("KG-W-MDO must disable MDO")
	}
	if !mdo.LOO {
		t.Error("KG-W-MDO keeps LOO")
	}

	pcm := NewPlan(PCMOnly, cfg)
	for s, n := range pcm.Bindings {
		if n != PCMSocket {
			t.Errorf("PCM-Only: %v bound to %d, want S1", s, n)
		}
	}
	if pcm.ThreadSocket != PCMSocket {
		t.Error("PCM-Only threads run on S1")
	}

	kgb := NewPlan(KGB, cfg)
	if kgb.NurseryBytes != 3*cfg.BaseNurseryBytes {
		t.Errorf("KG-B nursery = %d, want 3x base", kgb.NurseryBytes)
	}
}

func TestAllocAndMinorGC(t *testing.T) {
	_, rt := runJVM(t, KGN, func(r *Runtime) {
		// Allocate 4 nurseries' worth of garbage.
		for i := 0; i < 4*1024; i++ {
			r.Alloc(128, 2)
		}
	})
	if rt.Stats.MinorGCs < 3 {
		t.Errorf("minor GCs = %d, want >= 3", rt.Stats.MinorGCs)
	}
	if rt.Table.Live() > 1200 {
		t.Errorf("dead objects not reclaimed: %d live", rt.Table.Live())
	}
}

func TestReachabilitySurvival(t *testing.T) {
	_, rt := runJVM(t, KGN, func(r *Runtime) {
		keep := r.Alloc(64, 1)
		slot := r.AddRoot(keep)
		child := r.Alloc(64, 0)
		r.WriteRef(keep, 0, child)
		for i := 0; i < 4*1024; i++ {
			r.Alloc(128, 0) // garbage storm forcing several GCs
		}
		ko := r.Table.Get(keep)
		if ko.Space == objmodel.SpaceNursery {
			t.Error("rooted object should have been promoted")
		}
		co := r.Table.Get(r.Root(slot))
		if co.Addr == 0 {
			t.Error("rooted object record lost")
		}
		cc := r.Table.Get(r.ReadRef(keep, 0))
		if cc.Addr == 0 {
			t.Error("child of rooted object collected while reachable")
		}
		if cc.Space == objmodel.SpaceNursery {
			t.Error("reachable child left behind in the nursery")
		}
	})
	_ = rt
}

func TestDeadObjectsCollected(t *testing.T) {
	_, _ = runJVM(t, KGN, func(r *Runtime) {
		id := r.Alloc(64, 0)
		slot := r.AddRoot(id)
		r.DropRoot(slot) // immediately dead
		before := r.Table.Live()
		r.Collect(false)
		if got := r.Table.Live(); got >= before {
			t.Errorf("live objects %d -> %d; dead object not reclaimed", before, got)
		}
		_ = id
	})
}

func TestRemsetKeepsNurseryObjectAlive(t *testing.T) {
	_, _ = runJVM(t, KGN, func(r *Runtime) {
		// Promote a container to the mature space.
		container := r.Alloc(64, 1)
		r.AddRoot(container)
		for i := 0; i < 2*1024; i++ {
			r.Alloc(128, 0)
		}
		if r.Table.Get(container).Space != objmodel.SpaceMaturePCM {
			t.Fatal("container should be mature by now")
		}
		// Store a nursery reference into the mature container: the
		// write barrier must remember it.
		child := r.Alloc(64, 0)
		r.WriteRef(container, 0, child)
		// Next minor GC: child must survive via the remset even
		// though no root points at it.
		for i := 0; i < 2*1024; i++ {
			r.Alloc(128, 0)
		}
		co := r.Table.Get(r.ReadRef(container, 0))
		if co.Addr == 0 {
			t.Fatal("remembered-set child was collected")
		}
		if co.Space == objmodel.SpaceNursery {
			t.Error("remembered child never promoted")
		}
	})
}

func TestKGNPlacement(t *testing.T) {
	m, rt := runJVM(t, KGN, func(r *Runtime) {
		keep := r.Alloc(64, 1)
		r.AddRoot(keep)
		for i := 0; i < 8*1024; i++ {
			id := r.Alloc(128, 0)
			r.Write(id, 8, 32)
		}
	})
	m.DrainCaches()
	// Nursery (and boot) traffic lands on node 0; promotion copies,
	// mature marks and zero-init of promoted data land on node 1.
	if m.Node(0).WriteLines() == 0 {
		t.Error("KG-N: no DRAM writes observed")
	}
	if m.Node(1).WriteLines() == 0 {
		t.Error("KG-N: no PCM writes observed (promotions must land there)")
	}
	if rt.Stats.SurvivorBytes == 0 {
		t.Error("no survivors promoted")
	}
}

func TestPCMOnlyPlacement(t *testing.T) {
	m, _ := runJVM(t, PCMOnly, func(r *Runtime) {
		for i := 0; i < 4*1024; i++ {
			id := r.Alloc(128, 0)
			r.Write(id, 8, 32)
		}
	})
	m.DrainCaches()
	if m.Node(0).WriteLines() != 0 {
		t.Errorf("PCM-Only: %d writes leaked to the DRAM node", m.Node(0).WriteLines())
	}
	if m.Node(1).WriteLines() == 0 {
		t.Error("PCM-Only: no PCM writes observed")
	}
}

func TestKGWObserverDispatch(t *testing.T) {
	_, rt := runJVM(t, KGW, func(r *Runtime) {
		// A long-lived object that the mutator keeps writing: it must
		// end up in the DRAM mature space.
		hot := r.Alloc(64, 0)
		r.AddRoot(hot)
		// A long-lived object never written after creation: PCM.
		cold := r.Alloc(64, 0)
		r.AddRoot(cold)
		// A rotating window of medium-lived objects generates enough
		// nursery survivors to fill the observer and force
		// evacuations (pure garbage would never exercise dispatch).
		const window = 256
		ring := make([]int, window)
		for i := range ring {
			ring[i] = r.AddRoot(r.Alloc(256, 0))
		}
		for i := 0; i < 16*1024; i++ {
			slot := ring[i%window]
			r.SetRoot(slot, r.Alloc(256, 0))
			if i%16 == 0 {
				r.Write(hot, 8, 8)
			}
		}
		ho := r.Table.Get(hot)
		co := r.Table.Get(cold)
		if ho.Space != objmodel.SpaceMatureDRAM {
			t.Errorf("hot object in %v, want mature-dram", ho.Space)
		}
		if co.Space != objmodel.SpaceMaturePCM {
			t.Errorf("cold object in %v, want mature-pcm", co.Space)
		}
	})
	if rt.Stats.ObserverGCs == 0 {
		t.Error("observer never evacuated")
	}
	if rt.Stats.ToMatureDRAMBytes == 0 || rt.Stats.ToMaturePCMBytes == 0 {
		t.Errorf("dispatch stats: dram=%d pcm=%d",
			rt.Stats.ToMatureDRAMBytes, rt.Stats.ToMaturePCMBytes)
	}
}

func TestLOOPolicy(t *testing.T) {
	_, _ = runJVM(t, KGNLOO, func(r *Runtime) {
		// Moderate large object (<= nursery/16 = 8 KB at 128 KB
		// nursery): allocated in the nursery under LOO.
		mod := r.Alloc(8<<10, 0)
		if got := r.Table.Get(mod).Space; got != objmodel.SpaceNursery {
			t.Errorf("moderate large object in %v, want nursery", got)
		}
		// Huge object: straight to PCM large space.
		huge := r.Alloc(64<<10, 0)
		if got := r.Table.Get(huge).Space; got != objmodel.SpaceLargePCM {
			t.Errorf("huge object in %v, want large-pcm", got)
		}
	})
	// Without LOO every large object goes straight to PCM.
	_, _ = runJVM(t, KGN, func(r *Runtime) {
		mod := r.Alloc(8<<10, 0)
		if got := r.Table.Get(mod).Space; got != objmodel.SpaceLargePCM {
			t.Errorf("no-LOO large object in %v, want large-pcm", got)
		}
	})
}

func TestFullGCReclaimsAndReleasesChunks(t *testing.T) {
	_, rt := runJVM(t, KGN, func(r *Runtime) {
		// Large garbage churn beyond the 6 MB budget forces full GCs.
		for i := 0; i < 64; i++ {
			id := r.Alloc(512<<10, 0)
			r.Write(id, 0, 64)
		}
	})
	if rt.Stats.FullGCs == 0 {
		t.Fatal("no full GC despite exceeding the heap budget")
	}
	if rt.HeapUsed() > 4<<20 {
		t.Errorf("heap used after churn = %d MB, garbage not reclaimed", rt.HeapUsed()>>20)
	}
	lo, _ := rt.FreeLists()
	if lo.Recycles == 0 {
		t.Error("full GC never released/recycled chunks")
	}
}

func TestKGWLargeRelocation(t *testing.T) {
	_, rt := runJVM(t, KGW, func(r *Runtime) {
		// A big long-lived array, written constantly: LOO's collector
		// half must relocate it from PCM large to DRAM large.
		arr := r.Alloc(64<<10, 0)
		r.AddRoot(arr)
		if got := r.Table.Get(arr).Space; got != objmodel.SpaceLargePCM {
			t.Fatalf("array in %v, want large-pcm", got)
		}
		for round := 0; round < 80; round++ {
			r.Write(arr, round*64, 64)
			r.Alloc(512<<10, 0) // budget pressure -> full GCs
		}
		if got := r.Table.Get(arr).Space; got != objmodel.SpaceLargeDRAM {
			t.Errorf("hot array in %v, want large-dram after relocation", got)
		}
	})
	if rt.Stats.LargeRelocBytes == 0 {
		t.Error("no large-object relocation recorded")
	}
}

func TestMDOMarkPlacement(t *testing.T) {
	// Compare PCM writes of full GCs under KG-W (MDO on) vs KG-W-MDO:
	// mark metadata of PCM objects must hit PCM only without MDO.
	run := func(kind Kind) uint64 {
		m, _ := runJVM(t, kind, func(r *Runtime) {
			// Build a sizable live PCM population.
			for i := 0; i < 256; i++ {
				id := r.Alloc(4<<10, 0)
				r.AddRoot(id)
			}
			for i := 0; i < 30; i++ {
				r.Collect(true)
			}
		})
		m.DrainCaches()
		return m.Node(1).WriteLines()
	}
	with := run(KGW)
	without := run(KGWNoMDO)
	if without <= with {
		t.Errorf("MDO off should write more PCM: with=%d without=%d", with, without)
	}
}

func TestBarrierCountsAndRemsetCharges(t *testing.T) {
	_, rt := runJVM(t, KGN, func(r *Runtime) {
		container := r.Alloc(64, 4)
		r.AddRoot(container)
		for i := 0; i < 2*1024; i++ {
			r.Alloc(128, 0)
		}
		// Mature -> nursery pointer stores must hit the remset.
		for i := 0; i < 4; i++ {
			r.WriteRef(container, i, r.Alloc(64, 0))
		}
	})
	if rt.Stats.RemsetEntries < 4 {
		t.Errorf("remset entries = %d, want >= 4", rt.Stats.RemsetEntries)
	}
}

func TestStatsAccounting(t *testing.T) {
	_, rt := runJVM(t, KGW, func(r *Runtime) {
		for i := 0; i < 100; i++ {
			id := r.Alloc(256, 1)
			r.Write(id, 16, 8)
			r.Read(id, 16, 8)
		}
	})
	if rt.Stats.AllocObjects != 100 {
		t.Errorf("AllocObjects = %d, want 100", rt.Stats.AllocObjects)
	}
	if rt.Stats.AllocBytes < 100*256 {
		t.Errorf("AllocBytes = %d", rt.Stats.AllocBytes)
	}
	if rt.Stats.MutatorWrites != 100 || rt.Stats.MutatorReads != 100 {
		t.Errorf("mutator ops: w=%d r=%d", rt.Stats.MutatorWrites, rt.Stats.MutatorReads)
	}
}

// TestNoLiveObjectLost is a property-style stress test: a deterministic
// mutator builds and tears down a linked structure under heavy garbage
// pressure across all plans; every object reachable from roots must
// survive with its references intact.
func TestNoLiveObjectLost(t *testing.T) {
	kinds := []Kind{PCMOnly, KGN, KGB, KGNLOO, KGBLOO, KGW, KGWNoLOO, KGWNoMDO}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			_, _ = runJVM(t, kind, func(r *Runtime) {
				const N = 64
				ids := make([]objmodel.ObjID, N)
				slots := make([]int, N)
				seed := uint64(42)
				next := func(n uint64) uint64 { seed = seed*6364136223846793005 + 1442695040888963407; return seed % n }
				for i := 0; i < N; i++ {
					ids[i] = r.Alloc(96, 2)
					slots[i] = r.AddRoot(ids[i])
				}
				// Link a random graph among the kept objects.
				for i := 0; i < N; i++ {
					r.WriteRef(ids[i], 0, ids[next(N)])
					r.WriteRef(ids[i], 1, ids[next(N)])
				}
				// Garbage storm with periodic mutation.
				for i := 0; i < 24*1024; i++ {
					g := r.Alloc(64+int(next(512)), 1)
					if next(4) == 0 {
						r.WriteRef(g, 0, ids[next(N)])
					}
					if next(16) == 0 {
						r.Write(ids[next(N)], 8, 16)
					}
					if next(64) == 0 {
						// Relink the kept graph.
						r.WriteRef(ids[next(N)], 0, ids[next(N)])
					}
				}
				// Verify every kept object and its refs.
				for i := 0; i < N; i++ {
					o := r.Table.Get(ids[i])
					if o.Addr == 0 {
						t.Fatalf("kept object %d lost", i)
					}
					if o.Space == objmodel.SpaceNursery {
						t.Fatalf("kept object %d still in nursery after storms", i)
					}
					for s := 0; s < 2; s++ {
						ref := r.Table.Ref(o, s)
						if ref == objmodel.Nil {
							continue
						}
						if r.Table.Get(ref).Addr == 0 {
							t.Fatalf("kept object %d ref %d dangles", i, s)
						}
					}
				}
			})
		})
	}
}

// TestMinorGCReusesWorkLists checks that a steady-state minor
// collection reuses the previous one's work lists: rotating 256 rooted
// survivors through the nursery and collecting them allocates at most
// once (the collection's candidate filter).
func TestMinorGCReusesWorkLists(t *testing.T) {
	for _, kind := range []Kind{KGN, KGW} {
		t.Run(kind.String(), func(t *testing.T) {
			rt := benchRuntime(t, kind)
			slots := make([]int, 256)
			for i := range slots {
				slots[i] = rt.AddRoot(objmodel.Nil)
			}
			cycle := func() {
				rotateWindow(rt, slots)
				rt.Collect(false)
			}
			for i := 0; i < 8; i++ {
				cycle()
			}
			if got := testing.AllocsPerRun(50, cycle); got > 1 {
				t.Errorf("%v allocations per minor collection, want at most 1", got)
			}
		})
	}
}

// TestReleaseEmptiesLists checks that Release hands on every list of
// the runtime empty, and that the released runtime fails loudly.
func TestReleaseEmptiesLists(t *testing.T) {
	_, rt := runJVM(t, KGN, func(r *Runtime) {
		// A mature container holding a nursery child: the run ends
		// with roots, mature, nursery and remembered-set entries.
		container := r.Alloc(64, 1)
		r.AddRoot(container)
		for i := 0; i < 2*1024; i++ {
			r.Alloc(128, 0)
		}
		r.WriteRef(container, 0, r.Alloc(64, 0))
	})
	l := rt.lists
	if len(l.roots) == 0 || len(l.matureObjs) == 0 || len(l.nurseryObjs) == 0 || len(l.remNursery) == 0 {
		t.Fatalf("the run left %d roots, %d mature, %d nursery and %d remembered entries; want some of each",
			len(l.roots), len(l.matureObjs), len(l.nurseryObjs), len(l.remNursery))
	}
	rt.Release()
	rt.Release() // a second release must not hand the lists out twice
	v := reflect.ValueOf(l).Elem()
	for i := 0; i < v.NumField(); i++ {
		if n := v.Field(i).Len(); n != 0 {
			t.Errorf("released list %s holds %d entries", v.Type().Field(i).Name, n)
		}
	}
	if rt.Table != nil {
		t.Error("a released runtime still holds its object table")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddRoot on a released runtime did not panic")
		}
	}()
	rt.AddRoot(objmodel.Nil)
}
