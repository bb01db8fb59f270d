package jvm

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/objmodel"
)

// budget is the current full-GC trigger (see dynBudget).
func (r *Runtime) budget() uint64 {
	if r.dynBudget > r.Plan.HeapBytes {
		return r.dynBudget
	}
	return r.Plan.HeapBytes
}

// maybeFullGC triggers a full-heap collection when the mature budget
// is exhausted. Frequent large-object allocation in PCM fills the heap
// quickly and drives this trigger — the effect behind the paper's
// KG-B and KG-W−LOO analyses.
func (r *Runtime) maybeFullGC() {
	if r.matureUsed() > r.budget() {
		r.collectFull()
	}
}

// gcEnter flips the runtime into collector mode: the world is stopped
// and the paper's two GC threads do the work.
func (r *Runtime) gcEnter() func() {
	r.gcActive = true
	old := r.Proc.Th.Parallelism
	r.Proc.Th.Parallelism = float64(r.Plan.GCThreads)
	return func() {
		r.Proc.Th.Parallelism = old
		r.gcActive = false
	}
}

// tracer marks the objects a collection reaches: accept selects the
// collection candidates, stack holds those still to scan, and reached
// lists every one marked, in marking order.
type tracer struct {
	r       *Runtime
	stack   []objmodel.ObjID
	reached []objmodel.ObjID
	accept  func(*objmodel.Object) bool
}

// newTracer starts a trace on the work lists the previous collection
// stored back in the runtime.
func (r *Runtime) newTracer(accept func(*objmodel.Object) bool) tracer {
	return tracer{r: r, stack: r.gcStack[:0], reached: r.gcReached[:0], accept: accept}
}

func (t *tracer) consider(id objmodel.ObjID) {
	if id == objmodel.Nil {
		return
	}
	o := t.r.Table.Get(id)
	if !t.accept(o) || o.Marked(t.r.epoch) {
		return
	}
	o.SetMark(t.r.epoch)
	t.stack = append(t.stack, id)
	t.reached = append(t.reached, id)
}

// drain scans queued objects (charging the header+refslot reads) and
// follows their references. Slots whose targets satisfy moves (i.e.
// will be copied by this collection) are charged a forwarding write,
// as the copying collector rewrites them.
func (t *tracer) drain(moves func(*objmodel.Object) bool) {
	r := t.r
	for len(t.stack) > 0 {
		id := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		o := r.Table.Get(id)
		n := o.NumRefs()
		r.Proc.Access(o.Addr, objmodel.HeaderBytes+n*objmodel.RefBytes, false)
		for i := 0; i < n; i++ {
			ref := r.Table.Ref(o, i)
			if ref == objmodel.Nil {
				continue
			}
			if moves != nil && moves(r.Table.Get(ref)) {
				r.Proc.Access(o.RefSlotAddr(i), objmodel.RefBytes, true)
			}
			t.consider(ref)
		}
	}
}

// isYoung reports whether an object lives in a to-be-evacuated space.
func isYoung(o *objmodel.Object) bool {
	return o.Space == objmodel.SpaceNursery || o.Space == objmodel.SpaceObserver
}

// scanRoots charges the stack/global scan and feeds root targets.
func (r *Runtime) scanRoots(t *tracer) {
	r.Proc.Compute(4 * len(r.roots))
	for _, id := range r.roots {
		t.consider(id)
	}
}

// scanRemset reads each remembered slot and feeds its current target.
func (r *Runtime) scanRemset(t *tracer, set []remEntry) {
	for _, e := range set {
		so := r.Table.Get(e.src)
		if so.Addr == 0 {
			continue // source died in an earlier collection
		}
		r.Proc.Access(so.RefSlotAddr(int(e.slot)), objmodel.RefBytes, false)
		if ref := r.Table.Ref(so, int(e.slot)); ref != objmodel.Nil {
			t.consider(ref)
		}
	}
}

// collectYoung runs a nursery collection, evacuating the observer
// space too when it cannot absorb another nursery of survivors.
func (r *Runtime) collectYoung() {
	if r.gcActive {
		return
	}
	defer r.gcEnter()()

	evac := r.Plan.UseObserver &&
		r.observer.Capacity()-r.observer.Used() < r.nursery.Used()
	r.Stats.MinorGCs++
	if evac {
		r.Stats.ObserverGCs++
	}
	r.epoch++

	t := r.newTracer(func(o *objmodel.Object) bool {
		if o.Space == objmodel.SpaceNursery {
			return true
		}
		return evac && o.Space == objmodel.SpaceObserver
	})
	r.scanRoots(&t)
	r.scanRemset(&t, r.remNursery)
	if evac {
		r.scanRemset(&t, r.remObserver)
	}
	t.drain(t.accept)

	nurseryReached, observerReached := r.gcNursery[:0], r.gcObserver[:0]
	for _, id := range t.reached {
		if r.Table.Get(id).Space == objmodel.SpaceNursery {
			nurseryReached = append(nurseryReached, id)
		} else {
			observerReached = append(observerReached, id)
		}
	}

	// Evacuate observer residents first (dispatch by write history),
	// freeing the observer for this round's nursery survivors.
	promoted := r.gcPromoted[:0]
	if evac {
		for _, id := range observerReached {
			r.dispatchObserver(id)
			promoted = append(promoted, id)
		}
		for _, id := range r.observerObjs {
			if o := r.Table.Get(id); o.Addr != 0 && o.Space == objmodel.SpaceObserver {
				r.Table.Free(id)
			}
		}
		r.observerObjs = r.observerObjs[:0]
		r.observer.Reset()
	}

	for _, id := range nurseryReached {
		if r.promoteNursery(id) {
			promoted = append(promoted, id)
		}
	}
	for _, id := range r.nurseryObjs {
		if o := r.Table.Get(id); o.Addr != 0 && o.Space == objmodel.SpaceNursery {
			r.Table.Free(id)
		}
	}
	r.nurseryObjs = r.nurseryObjs[:0]
	r.nursery.Reset()

	r.fixupRemsets(evac, promoted)
	r.gcStack, r.gcReached = t.stack, t.reached
	r.gcNursery, r.gcObserver, r.gcPromoted = nurseryReached, observerReached, promoted
	// The collection's safepoint quantum: the placement-policy engine
	// migrates page groups while the world is still stopped.
	if r.Safepoint != nil {
		r.Safepoint()
	}
}

// promoteNursery copies one surviving nursery object to its plan
// target: the observer under KG-W, the PCM mature space otherwise;
// large objects go to a large-object space by write history. It
// reports whether the object left the young generation (so the caller
// can re-remember its young references).
func (r *Runtime) promoteNursery(id objmodel.ObjID) bool {
	o := r.Table.Get(id)
	size := uint64(o.Size)
	r.Stats.SurvivorBytes += size

	switch {
	case o.Flags&objmodel.FlagLarge != 0:
		if r.Plan.Monitor && o.Flags&objmodel.FlagWritten != 0 && r.largeDRAM != nil {
			r.copyChunked(o, r.largeDRAM, objmodel.SpaceLargeDRAM)
		} else {
			r.copyChunked(o, r.largePCM, objmodel.SpaceLargePCM)
		}
		r.matureObjs = append(r.matureObjs, id)
		return true
	case r.Plan.UseObserver:
		addr, ok := r.observer.Alloc(size)
		if !ok {
			// The observer sizing invariant guarantees room; running
			// out is a bug worth failing loudly on.
			panic(fmt.Errorf("jvm: observer overflow copying %d bytes", size))
		}
		r.copyTo(o, addr, objmodel.SpaceObserver)
		o.Flags &^= objmodel.FlagWritten // observation starts now
		r.observerObjs = append(r.observerObjs, id)
		return false
	default:
		r.copyChunked(o, r.maturePCM, objmodel.SpaceMaturePCM)
		r.Stats.ToMaturePCMBytes += size
		r.matureObjs = append(r.matureObjs, id)
		return true
	}
}

// dispatchObserver copies one surviving observer object to the DRAM
// mature space if it was written while observed, else to PCM — the
// core of write-rationing: past writes predict future writes.
func (r *Runtime) dispatchObserver(id objmodel.ObjID) {
	o := r.Table.Get(id)
	size := uint64(o.Size)
	r.Stats.ObserverOutBytes += size
	if o.Flags&objmodel.FlagWritten != 0 && r.matureDRAM != nil {
		r.copyChunked(o, r.matureDRAM, objmodel.SpaceMatureDRAM)
		r.Stats.ToMatureDRAMBytes += size
	} else {
		r.copyChunked(o, r.maturePCM, objmodel.SpaceMaturePCM)
		r.Stats.ToMaturePCMBytes += size
	}
	r.matureObjs = append(r.matureObjs, id)
}

// copyChunked copies an object into a chunked space.
func (r *Runtime) copyChunked(o *objmodel.Object, dst *heap.ChunkedSpace, space objmodel.SpaceID) {
	addr, err := dst.Alloc(uint64(o.Size))
	if err != nil {
		panic(err)
	}
	r.copyTo(o, addr, space)
}

// copyTo charges the copy (read source, install forwarding pointer,
// write destination) and retargets the record.
func (r *Runtime) copyTo(o *objmodel.Object, dst uint64, space objmodel.SpaceID) {
	lines := int((uint64(o.Size) + 63) / 64)
	r.Proc.AccessLines(o.Addr, lines, false)
	r.Proc.Access(o.Addr, objmodel.HeaderBytes, true) // forwarding word
	r.Proc.AccessLines(dst, lines, true)
	o.Addr = dst
	o.Space = space
}

// fixupRemsets rebuilds the remembered sets after a young collection:
// nursery entries whose targets moved into the observer become
// observer entries, and objects promoted to the mature spaces re-
// remember any references they retain into the (young) observer.
func (r *Runtime) fixupRemsets(evac bool, promoted []objmodel.ObjID) {
	oldNursery := r.remNursery
	r.remNursery = r.remNursery[:0]
	if !r.Plan.UseObserver {
		return
	}
	if evac {
		r.remObserver = r.remObserver[:0]
	}
	for _, e := range oldNursery {
		so := r.Table.Get(e.src)
		if so.Addr == 0 || r.Layout.InYoung(so.Addr) {
			continue
		}
		if ref := r.Table.Ref(so, int(e.slot)); ref != objmodel.Nil &&
			r.Table.Get(ref).Space == objmodel.SpaceObserver {
			r.remember(&r.remObserver, e.src, int(e.slot))
		}
	}
	for _, id := range promoted {
		o := r.Table.Get(id)
		for i := 0; i < o.NumRefs(); i++ {
			if ref := r.Table.Ref(o, i); ref != objmodel.Nil &&
				r.Table.Get(ref).Space == objmodel.SpaceObserver {
				r.remember(&r.remObserver, id, i)
			}
		}
	}
}

// collectFull runs a full-heap collection: trace and mark the whole
// graph (writing mark metadata — to DRAM under MDO, to the portion's
// metadata region otherwise), evacuate the young spaces, relocate
// written large PCM objects to DRAM (KG-W's LOO), then sweep the
// mark-region and large spaces, releasing empty chunks for recycling.
func (r *Runtime) collectFull() {
	if r.gcActive {
		return
	}
	defer r.gcEnter()()
	r.Stats.FullGCs++
	r.epoch++

	t := r.newTracer(func(o *objmodel.Object) bool { return true })
	r.scanRoots(&t)
	t.drain(isYoung)

	// Mark metadata writes for mature/large objects.
	for _, id := range t.reached {
		o := r.Table.Get(id)
		switch o.Space {
		case objmodel.SpaceMatureDRAM, objmodel.SpaceMaturePCM,
			objmodel.SpaceLargeDRAM, objmodel.SpaceLargePCM:
			r.markWrite(o)
		}
	}

	// Young evacuation, observer residents first.
	nurseryReached, observerReached := r.gcNursery[:0], r.gcObserver[:0]
	for _, id := range t.reached {
		switch r.Table.Get(id).Space {
		case objmodel.SpaceNursery:
			nurseryReached = append(nurseryReached, id)
		case objmodel.SpaceObserver:
			observerReached = append(observerReached, id)
		}
	}
	for _, id := range observerReached {
		r.dispatchObserver(id)
	}
	for _, id := range r.observerObjs {
		if o := r.Table.Get(id); o.Addr != 0 && o.Space == objmodel.SpaceObserver {
			r.Table.Free(id)
		}
	}
	r.observerObjs = r.observerObjs[:0]
	if r.observer != nil {
		r.observer.Reset()
	}
	for _, id := range nurseryReached {
		r.promoteNursery(id)
	}
	for _, id := range r.nurseryObjs {
		if o := r.Table.Get(id); o.Addr != 0 && o.Space == objmodel.SpaceNursery {
			r.Table.Free(id)
		}
	}
	r.nurseryObjs = r.nurseryObjs[:0]
	r.nursery.Reset()
	r.gcStack, r.gcReached = t.stack, t.reached
	r.gcNursery, r.gcObserver = nurseryReached, observerReached

	// KG-W Large Object Optimization, collector half: move written
	// large PCM objects to the DRAM large space.
	if r.Plan.LOO && r.Plan.Monitor && r.largeDRAM != nil {
		for _, id := range r.matureObjs {
			o := r.Table.Get(id)
			if o.Addr != 0 && o.Space == objmodel.SpaceLargePCM &&
				o.Marked(r.epoch) && o.Flags&objmodel.FlagWritten != 0 {
				r.Stats.LargeRelocBytes += uint64(o.Size)
				r.copyChunked(o, r.largeDRAM, objmodel.SpaceLargeDRAM)
				o.Flags &^= objmodel.FlagWritten
			}
		}
	}

	r.sweep()
	r.rebuildRemsets()
	// Re-derive the paper's 2x-minimum heap sizing from the live set.
	if live := 2 * r.matureUsed(); live > r.Plan.HeapBytes {
		r.dynBudget = live
	}
	if r.Safepoint != nil {
		r.Safepoint()
	}
}

// markWrite charges the mark metadata writes for one live object:
// per-line mark bytes for mark-region spaces, one mark byte for
// large-object spaces. Under MDO the metadata of PCM-portion objects
// lives in the DRAM-bound shadow region.
func (r *Runtime) markWrite(o *objmodel.Object) {
	var bytes int
	switch o.Space {
	case objmodel.SpaceMatureDRAM, objmodel.SpaceMaturePCM:
		bytes = int((uint64(o.Size) + heap.LineBytes - 1) / heap.LineBytes)
	default:
		bytes = 1
	}
	var meta uint64
	if r.Layout.PCMPortion(o.Addr) && r.Plan.MDO {
		meta = r.Layout.MarkByteAddrMDO(o.Addr)
	} else {
		meta = r.Layout.MarkByteAddr(o.Addr)
	}
	r.Proc.Access(meta, bytes, true)
}

// sweep rebuilds granule occupancy from live objects, frees dead
// records, charges the line-mark scans, and releases empty chunks.
func (r *Runtime) sweep() {
	spaces := []*heap.ChunkedSpace{r.maturePCM, r.largePCM}
	if r.matureDRAM != nil {
		spaces = append(spaces, r.matureDRAM, r.largeDRAM)
	}
	spaceFor := func(id objmodel.SpaceID) *heap.ChunkedSpace {
		switch id {
		case objmodel.SpaceMaturePCM:
			return r.maturePCM
		case objmodel.SpaceMatureDRAM:
			return r.matureDRAM
		case objmodel.SpaceLargePCM:
			return r.largePCM
		case objmodel.SpaceLargeDRAM:
			return r.largeDRAM
		}
		return nil
	}

	// The sweep reads the line-mark metadata of every chunk.
	for _, s := range spaces {
		for _, chunk := range s.ChunkAddrs() {
			meta := r.Layout.MarkByteAddr(chunk)
			if r.Layout.PCMPortion(chunk) && r.Plan.MDO {
				meta = r.Layout.MarkByteAddrMDO(chunk)
			}
			r.Proc.AccessLines(meta, int(heap.ChunkBytes/heap.MarkGranule/64), false)
		}
		s.SweepPrepare()
	}

	live := r.matureObjs[:0]
	for _, id := range r.matureObjs {
		o := r.Table.Get(id)
		if o.Addr == 0 {
			continue
		}
		if o.Marked(r.epoch) {
			spaceFor(o.Space).SweepMark(o.Addr, uint64(o.Size))
			live = append(live, id)
		} else {
			r.Table.Free(id)
		}
	}
	r.matureObjs = live
	for _, s := range spaces {
		s.SweepFinish()
	}
}

// rebuildRemsets reconstructs the remembered sets precisely after a
// full-heap trace (the trace visited every live reference anyway; no
// extra memory traffic is charged beyond the SSB writes).
func (r *Runtime) rebuildRemsets() {
	r.remNursery = r.remNursery[:0]
	r.remObserver = r.remObserver[:0]
	if !r.Plan.UseObserver {
		return
	}
	for _, id := range r.matureObjs {
		o := r.Table.Get(id)
		for i := 0; i < o.NumRefs(); i++ {
			if ref := r.Table.Ref(o, i); ref != objmodel.Nil &&
				r.Table.Get(ref).Space == objmodel.SpaceObserver {
				r.remember(&r.remObserver, id, i)
			}
		}
	}
}
