package jvm

import (
	"fmt"
	"sync"

	"repro/internal/heap"
	"repro/internal/kernel"
	"repro/internal/objmodel"
)

// Stats are the runtime's cumulative counters.
type Stats struct {
	MinorGCs    int
	ObserverGCs int // young collections that also evacuated the observer
	FullGCs     int

	AllocObjects    uint64
	AllocBytes      uint64
	LargeAllocBytes uint64
	NurserySlowPath uint64

	SurvivorBytes     uint64 // bytes copied out of the nursery
	ObserverOutBytes  uint64 // bytes dispatched out of the observer
	ToMatureDRAMBytes uint64
	ToMaturePCMBytes  uint64
	LargeRelocBytes   uint64 // KG-W LOO: large PCM -> DRAM copies

	BarrierStores uint64
	RemsetEntries uint64
	MutatorWrites uint64
	MutatorReads  uint64
}

// remEntry is one slot-remembering write-barrier record.
type remEntry struct {
	src  objmodel.ObjID
	slot int32
}

// Runtime is one managed-language VM instance running inside a kernel
// process on the emulated machine.
type Runtime struct {
	Proc   *kernel.Process
	Plan   Plan
	Layout heap.Layout
	Table  *objmodel.Table
	Stats  Stats

	// PageMap is the mutable page-group→tier map of the managed heap,
	// seeded from the plan's bindings and rewritten by the placement
	// engine as it migrates groups.
	PageMap *heap.PageMap
	// Safepoint, when set, runs at the end of every collection — the
	// GC-safepoint quantum the placement-policy engine hooks.
	Safepoint func()

	flLo *heap.FreeList
	flHi *heap.FreeList

	nursery  *heap.ContiguousSpace
	observer *heap.ContiguousSpace
	boot     *heap.ContiguousSpace

	matureDRAM *heap.ChunkedSpace
	maturePCM  *heap.ChunkedSpace
	largeDRAM  *heap.ChunkedSpace
	largePCM   *heap.ChunkedSpace

	// The growable lists; nil once the runtime is released.
	*lists
	remCursor uint64

	epoch     uint32
	iteration int // 1 = warmup (JIT active), 2 = measured
	bootCur   uint64
	allocTick int
	gcActive  bool
	// dynBudget is the adaptive full-GC trigger implementing the
	// paper's "heap twice the minimum" methodology: after each
	// full-heap collection the budget becomes max(plan budget,
	// 2x live), so workloads whose live set grows (large datasets)
	// keep the paper's 2x-minimum sizing instead of thrashing.
	dynBudget uint64
}

// lists are a runtime's growable object lists. Release hands them,
// emptied, to a later runtime, so that its lists grow into the
// capacity an earlier run already paid for.
type lists struct {
	roots     []objmodel.ObjID
	freeSlots []int

	nurseryObjs  []objmodel.ObjID
	observerObjs []objmodel.ObjID
	matureObjs   []objmodel.ObjID // mature + large, both sockets

	remNursery  []remEntry
	remObserver []remEntry

	// Collection work lists: each collection appends into the arrays
	// the previous one stored back, so a steady-state collection
	// allocates none.
	gcStack, gcReached    []objmodel.ObjID
	gcNursery, gcObserver []objmodel.ObjID
	gcPromoted            []objmodel.ObjID
}

// listPool holds released runtimes' lists for later runtimes.
var listPool sync.Pool

// newLists returns empty lists, recycled when a released set is pooled.
func newLists() *lists {
	if l, _ := listPool.Get().(*lists); l != nil {
		return l
	}
	return new(lists)
}

// Release hands the runtime's object table and lists to later runtimes.
// Call it once the runtime's process has finished and its statistics
// have been read: a released runtime panics on any use.
func (r *Runtime) Release() {
	if r.lists == nil {
		return
	}
	l := r.lists
	l.roots, l.freeSlots = l.roots[:0], l.freeSlots[:0]
	l.nurseryObjs, l.observerObjs, l.matureObjs = l.nurseryObjs[:0], l.observerObjs[:0], l.matureObjs[:0]
	l.remNursery, l.remObserver = l.remNursery[:0], l.remObserver[:0]
	l.gcStack, l.gcReached = l.gcStack[:0], l.gcReached[:0]
	l.gcNursery, l.gcObserver, l.gcPromoted = l.gcNursery[:0], l.gcObserver[:0], l.gcPromoted[:0]
	listPool.Put(l)
	r.Table.Release()
	r.lists, r.Table = nil, nil
}

// NewRuntime boots a VM: lays out the heap, maps and binds every
// region per the plan's Table I row, and loads the boot image (a burst
// of writes the paper observed to be significant, hence boot-in-DRAM
// for all plans but PCM-Only).
func NewRuntime(proc *kernel.Process, plan Plan) (*Runtime, error) {
	layout, err := heap.NewLayout(plan.NurseryBytes, plan.ObserverBytes)
	if err != nil {
		return nil, err
	}
	layout.BootBytes = plan.BootBytes

	r := &Runtime{
		Proc:      proc,
		Plan:      plan,
		Layout:    layout,
		Table:     objmodel.NewTable(),
		lists:     newLists(),
		iteration: 1,
	}
	mem := proc.AS
	bind := func(s objmodel.SpaceID, def int) int {
		if n, ok := plan.Bindings[s]; ok {
			return n
		}
		return def
	}
	// heapBind resolves the binding of a managed-heap space, which the
	// first-touch placement policy leaves to the OS.
	heapBind := func(s objmodel.SpaceID, def int) int {
		if plan.FirstTouchHeap {
			return kernel.NodeFirstTouch
		}
		return bind(s, def)
	}

	// Boot space, below the heap.
	r.boot, err = heap.NewContiguousSpace(objmodel.SpaceBoot,
		heap.BootBase, heap.BootBase+plan.BootBytes, bind(objmodel.SpaceBoot, DRAMSocket), mem)
	if err != nil {
		return nil, err
	}

	// Side-metadata regions: meta-lo covers the PCM portion, meta-hi
	// the DRAM portion, plus the remembered-set buffers and, under
	// MDO, the DRAM-bound shadow of meta-lo.
	if _, err = heap.NewContiguousSpace(objmodel.SpaceMetaPCM,
		layout.MetaLoStart, layout.MetaLoEnd, bind(objmodel.SpaceMetaPCM, PCMSocket), mem); err != nil {
		return nil, err
	}
	if _, err = heap.NewContiguousSpace(objmodel.SpaceMetaDRAM,
		layout.MetaHiStart, layout.MetaHiEnd, bind(objmodel.SpaceMetaDRAM, DRAMSocket), mem); err != nil {
		return nil, err
	}
	if err = mem.MMap(layout.RemsetStart, layout.RemsetEnd-layout.RemsetStart, kernel.NodeFirstTouch); err != nil {
		return nil, err
	}
	if err = mem.MBind(layout.RemsetStart, layout.RemsetEnd-layout.RemsetStart, plan.RemsetNode); err != nil {
		return nil, err
	}
	if plan.MDO {
		if err = mem.MMap(layout.MetaExtraStart, layout.MetaExtraEnd-layout.MetaExtraStart, kernel.NodeFirstTouch); err != nil {
			return nil, err
		}
		if err = mem.MBind(layout.MetaExtraStart, layout.MetaExtraEnd-layout.MetaExtraStart, DRAMSocket); err != nil {
			return nil, err
		}
	}

	// The nursery is reserved at boot time at one end of virtual
	// memory, enabling the fast boundary write barrier.
	r.nursery, err = heap.NewContiguousSpace(objmodel.SpaceNursery,
		layout.NurseryStart, layout.DRAMEnd, heapBind(objmodel.SpaceNursery, DRAMSocket), mem)
	if err != nil {
		return nil, err
	}
	if plan.UseObserver {
		r.observer, err = heap.NewContiguousSpace(objmodel.SpaceObserver,
			layout.ObserverStart, layout.NurseryStart, heapBind(objmodel.SpaceObserver, DRAMSocket), mem)
		if err != nil {
			return nil, err
		}
	}

	// The two free lists of Fig 1, each binding its chunks to its
	// portion's socket.
	r.flLo = heap.NewFreeList("lo", layout.PCMStart, layout.PCMEnd,
		heapBind(objmodel.SpaceMaturePCM, PCMSocket), mem)
	r.flHi = heap.NewFreeList("hi", layout.PCMEnd, layout.ChunkedHiEnd,
		heapBind(objmodel.SpaceMatureDRAM, DRAMSocket), mem)
	r.flLo.UnmapOnRelease = plan.UnmapFreedChunks
	r.flHi.UnmapOnRelease = plan.UnmapFreedChunks

	r.maturePCM = heap.NewChunkedSpace(objmodel.SpaceMaturePCM, r.flLo, heap.LineBytes)
	r.largePCM = heap.NewChunkedSpace(objmodel.SpaceLargePCM, r.flLo, heap.PageBytes)
	if plan.HasDRAMSide() {
		r.matureDRAM = heap.NewChunkedSpace(objmodel.SpaceMatureDRAM, r.flHi, heap.LineBytes)
		r.largeDRAM = heap.NewChunkedSpace(objmodel.SpaceLargeDRAM, r.flHi, heap.PageBytes)
	}

	// The page→tier map: the plan's Table I row materialized per page
	// group, mutable thereafter by the placement engine. Under
	// first-touch the tiers start unknown and are learned as the OS
	// places pages.
	r.PageMap = heap.NewPageMap(layout.PCMStart, layout.DRAMEnd)
	if !plan.FirstTouchHeap {
		r.PageMap.SetRange(layout.PCMStart, layout.PCMEnd, bind(objmodel.SpaceMaturePCM, PCMSocket))
		r.PageMap.SetRange(layout.PCMEnd, layout.DRAMEnd, bind(objmodel.SpaceMatureDRAM, DRAMSocket))
		r.PageMap.SetRange(layout.NurseryStart, layout.DRAMEnd, bind(objmodel.SpaceNursery, DRAMSocket))
		if plan.UseObserver {
			r.PageMap.SetRange(layout.ObserverStart, layout.NurseryStart, bind(objmodel.SpaceObserver, DRAMSocket))
		}
	}

	r.loadBootImage()
	proc.Th.Parallelism = plan.MutatorParallelism()
	return r, nil
}

// loadBootImage writes the boot image into the boot space: the boot
// image runner loading Jikes RVM's image files.
func (r *Runtime) loadBootImage() {
	lines := int(r.Plan.BootBytes / 64)
	r.Proc.AccessLines(heap.BootBase, lines, true)
	r.bootCur = heap.BootBase + r.Plan.BootBytes/2
}

// SetIteration tells the runtime which replay-compilation iteration is
// running: 1 compiles methods (heavy boot/code-space writes), 2 is the
// measured steady-state iteration.
func (r *Runtime) SetIteration(n int) { r.iteration = n }

// bootServiceWrite models ongoing JVM service writes (JIT-compiled
// code installation, profiling counters, class metadata) into the boot
// space. Replay compilation makes iteration 1 much heavier.
func (r *Runtime) bootServiceWrite() {
	r.allocTick++
	var every, lines int
	if r.iteration <= 1 {
		every, lines = 64, 8 // compiler active
	} else {
		every, lines = 256, 2 // steady state
	}
	if r.allocTick%every != 0 {
		return
	}
	limit := heap.BootBase + r.Plan.BootBytes
	if r.bootCur+uint64(lines*64) >= limit {
		r.bootCur = heap.BootBase + r.Plan.BootBytes/2
	}
	r.Proc.AccessLines(r.bootCur, lines, true)
	r.bootCur += uint64(lines * 64)
}

// Alloc allocates a managed object of size bytes (header included,
// minimum header+refs) with nrefs reference slots, zero-initialized as
// the JVM guarantees. It may trigger garbage collection.
func (r *Runtime) Alloc(size, nrefs int) objmodel.ObjID {
	min := objmodel.HeaderBytes + nrefs*objmodel.RefBytes
	if size < min {
		size = min
	}
	r.Stats.AllocObjects++
	r.Stats.AllocBytes += uint64(size)
	r.bootServiceWrite()

	if uint64(size) >= heap.LargeThreshold {
		return r.allocLarge(size, nrefs)
	}

	addr, ok := r.nursery.Alloc(uint64(size))
	if !ok {
		r.Stats.NurserySlowPath++
		r.collectYoung()
		r.maybeFullGC()
		addr, ok = r.nursery.Alloc(uint64(size))
		if !ok {
			panic(fmt.Errorf("jvm: object of %d bytes cannot fit an empty nursery", size))
		}
	}
	// Allocation sequence plus zero initialization.
	r.Proc.Compute(8)
	r.zero(addr, size)
	id := r.Table.Alloc(addr, uint32(size), objmodel.SpaceNursery, nrefs)
	r.nurseryObjs = append(r.nurseryObjs, id)
	return id
}

// allocLarge applies the large-object policy: under LOO, moderate
// large objects start in the nursery to give them time to die; the
// rest go straight to the PCM large space (the traditional design).
func (r *Runtime) allocLarge(size, nrefs int) objmodel.ObjID {
	if r.Plan.LOO && uint64(size) <= r.Plan.LOONurseryLimit() {
		addr, ok := r.nursery.Alloc(uint64(size))
		if !ok {
			r.Stats.NurserySlowPath++
			r.collectYoung()
			r.maybeFullGC()
			addr, ok = r.nursery.Alloc(uint64(size))
			if !ok {
				return r.allocLargeDirect(size, nrefs)
			}
		}
		r.Proc.Compute(8)
		r.zero(addr, size)
		id := r.Table.Alloc(addr, uint32(size), objmodel.SpaceNursery, nrefs)
		r.Table.Get(id).Flags |= objmodel.FlagLarge
		r.nurseryObjs = append(r.nurseryObjs, id)
		return id
	}
	return r.allocLargeDirect(size, nrefs)
}

// allocLargeDirect places a large object in the PCM large-object
// space, collecting first when the mature budget is exhausted.
func (r *Runtime) allocLargeDirect(size, nrefs int) objmodel.ObjID {
	r.Stats.LargeAllocBytes += uint64(size)
	if r.matureUsed()+uint64(size) > r.budget() {
		r.collectFull()
	}
	addr, err := r.largePCM.Alloc(uint64(size))
	if err != nil {
		panic(err)
	}
	r.Proc.Compute(12)
	r.zero(addr, size)
	id := r.Table.Alloc(addr, uint32(size), objmodel.SpaceLargePCM, nrefs)
	r.Table.Get(id).Flags |= objmodel.FlagLarge
	r.matureObjs = append(r.matureObjs, id)
	return id
}

// zero charges the zero-initialization writes for a fresh object.
func (r *Runtime) zero(addr uint64, size int) {
	r.Proc.AccessLines(addr, (size+63)/64, true)
}

// matureUsed is the mature-heap occupancy measured against the budget.
func (r *Runtime) matureUsed() uint64 {
	u := r.maturePCM.Used() + r.largePCM.Used()
	if r.matureDRAM != nil {
		u += r.matureDRAM.Used() + r.largeDRAM.Used()
	}
	return u
}

// Write models a mutator field store of size bytes at the given offset.
func (r *Runtime) Write(id objmodel.ObjID, off, size int) {
	o := r.Table.Get(id)
	r.Stats.MutatorWrites++
	r.Proc.Access(o.Addr+uint64(off), size, true)
	r.monitorWrite(o)
}

// monitorWrite is KG-W's write-monitoring barrier: the first write to
// an observed object raises its write bit (a header write).
func (r *Runtime) monitorWrite(o *objmodel.Object) {
	if !r.Plan.Monitor {
		return
	}
	r.Proc.Compute(2) // barrier check
	switch o.Space {
	case objmodel.SpaceObserver, objmodel.SpaceLargePCM, objmodel.SpaceMaturePCM:
		if o.Flags&objmodel.FlagWritten == 0 {
			o.Flags |= objmodel.FlagWritten
			r.Proc.Access(o.Addr, 1, true)
		}
	case objmodel.SpaceNursery:
		// Large objects are observed from birth: a written large
		// nursery survivor belongs in the DRAM large space.
		if o.Flags&objmodel.FlagLarge != 0 && o.Flags&objmodel.FlagWritten == 0 {
			o.Flags |= objmodel.FlagWritten
			r.Proc.Access(o.Addr, 1, true)
		}
	}
}

// Read models a mutator field load.
func (r *Runtime) Read(id objmodel.ObjID, off, size int) {
	o := r.Table.Get(id)
	r.Stats.MutatorReads++
	r.Proc.Access(o.Addr+uint64(off), size, false)
}

// WriteRef stores a reference into slot i of src, running the
// generational boundary write barrier.
func (r *Runtime) WriteRef(src objmodel.ObjID, slot int, dst objmodel.ObjID) {
	so := r.Table.Get(src)
	r.Table.SetRef(so, slot, dst)
	r.Stats.BarrierStores++
	r.Proc.Compute(2) // boundary test
	r.Proc.Access(so.RefSlotAddr(slot), objmodel.RefBytes, true)
	r.monitorWrite(so)
	if dst == objmodel.Nil {
		return
	}
	do := r.Table.Get(dst)
	srcYoung := r.Layout.InYoung(so.Addr) && so.Space != objmodel.SpaceBoot
	switch {
	case r.Layout.InNursery(do.Addr) && !r.Layout.InNursery(so.Addr):
		r.remember(&r.remNursery, src, slot)
	case r.Plan.UseObserver && do.Space == objmodel.SpaceObserver && !srcYoung:
		r.remember(&r.remObserver, src, slot)
	}
}

// remember appends a sequential-store-buffer entry, charging the
// buffer write in the remset region.
func (r *Runtime) remember(set *[]remEntry, src objmodel.ObjID, slot int) {
	*set = append(*set, remEntry{src: src, slot: int32(slot)})
	r.Stats.RemsetEntries++
	off := r.remCursor % (r.Layout.RemsetEnd - r.Layout.RemsetStart)
	r.Proc.Access(r.Layout.RemsetStart+off, 8, true)
	r.remCursor += 8
}

// ReadRef loads the reference in slot i of src.
func (r *Runtime) ReadRef(src objmodel.ObjID, slot int) objmodel.ObjID {
	so := r.Table.Get(src)
	r.Proc.Access(so.RefSlotAddr(slot), objmodel.RefBytes, false)
	return r.Table.Ref(so, slot)
}

// AddRoot registers a new root slot holding id and returns the slot
// index (a stand-in for a stack or global reference).
func (r *Runtime) AddRoot(id objmodel.ObjID) int {
	if n := len(r.freeSlots); n > 0 {
		s := r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
		r.roots[s] = id
		return s
	}
	r.roots = append(r.roots, id)
	return len(r.roots) - 1
}

// SetRoot repoints a root slot.
func (r *Runtime) SetRoot(slot int, id objmodel.ObjID) { r.roots[slot] = id }

// Root returns the object a root slot holds.
func (r *Runtime) Root(slot int) objmodel.ObjID { return r.roots[slot] }

// DropRoot clears and recycles a root slot.
func (r *Runtime) DropRoot(slot int) {
	r.roots[slot] = objmodel.Nil
	r.freeSlots = append(r.freeSlots, slot)
}

// Collect forces a collection (System.gc analogue).
func (r *Runtime) Collect(full bool) {
	if full {
		r.collectFull()
	} else {
		r.collectYoung()
	}
}

// HeapUsed returns current mature occupancy (for diagnostics).
func (r *Runtime) HeapUsed() uint64 { return r.matureUsed() }

// FreeLists exposes the two free lists (ablation study, diagnostics).
func (r *Runtime) FreeLists() (lo, hi *heap.FreeList) { return r.flLo, r.flHi }
