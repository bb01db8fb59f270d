// Package objmodel defines the managed object model: object records
// with headers, reference slots, and write-history bits, plus the
// object table that maps stable object identifiers to records.
//
// Objects live at virtual addresses in the managed heap; the record is
// the runtime's bookkeeping view (type information block, GC state),
// mirroring how a JVM sees objects through headers and reference maps.
// Identifiers stay stable across copying collections — the record's
// Addr field is updated when an object moves, exactly as a real
// reference is forwarded.
//
// The table stores records in fixed-size chunks that are never copied
// or moved, so record pointers stay valid as it grows. A record is 40
// bytes and holds no Go pointers: the first four reference slots are
// inline, and the rest are a run in an overflow arena the table owns,
// addressed by offset and recycled when the object is freed.
package objmodel

import (
	"fmt"
	"math"
	"sync"
)

// HeaderBytes is the object header size: a status word and a type
// (TIB) word, as in the 32-bit Jikes RVM object model.
const HeaderBytes = 8

// RefBytes is the size of one reference slot (32-bit addressing).
const RefBytes = 4

// ObjID identifies an object in an object table. 0 is the nil
// reference.
type ObjID uint32

// Nil is the null object reference.
const Nil ObjID = 0

// SpaceID identifies a heap space. The set matches the paper's Table I
// plus the boot space.
type SpaceID uint8

const (
	SpaceNone SpaceID = iota
	SpaceBoot
	SpaceNursery
	SpaceObserver
	SpaceMatureDRAM
	SpaceMaturePCM
	SpaceLargeDRAM
	SpaceLargePCM
	SpaceMetaDRAM
	SpaceMetaPCM
	NumSpaces
)

// String returns the space's conventional name.
func (s SpaceID) String() string {
	switch s {
	case SpaceNone:
		return "none"
	case SpaceBoot:
		return "boot"
	case SpaceNursery:
		return "nursery"
	case SpaceObserver:
		return "observer"
	case SpaceMatureDRAM:
		return "mature-dram"
	case SpaceMaturePCM:
		return "mature-pcm"
	case SpaceLargeDRAM:
		return "large-dram"
	case SpaceLargePCM:
		return "large-pcm"
	case SpaceMetaDRAM:
		return "meta-dram"
	case SpaceMetaPCM:
		return "meta-pcm"
	default:
		return fmt.Sprintf("space(%d)", uint8(s))
	}
}

// Flags hold per-object state bits.
type Flags uint8

const (
	// FlagWritten is set by the write barrier when the mutator writes
	// the object while it is being observed (KG-W monitoring, large
	// object write tracking).
	FlagWritten Flags = 1 << iota
	// FlagLarge marks objects allocated under the large-object
	// policy.
	FlagLarge
	// FlagPinned marks objects the collector must not move (boot
	// image objects).
	FlagPinned
)

// inlineRefs is the number of reference slots stored inline in the
// record; objects with more keep the rest in the table's overflow
// arena. Most managed objects have a handful of reference fields, so
// the common case never touches the arena.
const inlineRefs = 4

// Object is one managed object's record: 40 bytes holding no Go
// pointers, so a table of them costs the host collector nothing to
// scan. Its reference slots are read and written through the owning
// Table (Ref, SetRef), which keeps those past the inline ones.
type Object struct {
	Addr  uint64 // current payload address (includes header)
	Size  uint32 // total size in bytes, header included
	Space SpaceID
	Flags Flags
	nref  uint16
	mark  uint32 // last mark epoch that reached this object
	refs  [inlineRefs]ObjID
	ext   uint32 // start of the overflow run in Table.ext, if nref > inlineRefs
}

// NumRefs reports the number of reference slots.
func (o *Object) NumRefs() int { return int(o.nref) }

// RefSlotAddr returns the virtual address of the i'th reference slot,
// used to charge the memory write of a pointer store.
func (o *Object) RefSlotAddr(i int) uint64 {
	return o.Addr + HeaderBytes + uint64(i)*RefBytes
}

// Marked reports whether the object was marked in the given epoch.
func (o *Object) Marked(epoch uint32) bool { return o.mark == epoch }

// SetMark records the mark epoch.
func (o *Object) SetMark(epoch uint32) { o.mark = epoch }

// A table chunk holds chunkLen records (160 KB).
const (
	chunkBits = 12
	chunkLen  = 1 << chunkBits
)

// Table is an object table. Records live in fixed-size chunks that are
// added as the table grows and never copied, so a *Object from Get
// stays valid across later Allocs; freed slots are recycled LIFO
// before the table grows. IDs are slot indices + 1 so that 0 stays
// nil. Reference slots beyond an object's inline ones are a run in the
// table's overflow arena, and Free recycles the run for the next
// object with as many overflow slots. Tables are not safe for
// concurrent use.
type Table struct {
	chunks  []*[chunkLen]Object
	n       ObjID // highest ID handed out
	free    []ObjID
	live    int
	ext     []ObjID          // overflow arena
	extFree map[int][]uint32 // freed arena runs by length, LIFO
}

// tables holds released tables (see Release) for later NewTable calls.
var tables sync.Pool

// NewTable returns an empty table: a released one with its chunks and
// list capacity kept when one is pooled, else one with its first chunk
// allocated.
func NewTable() *Table {
	if t, _ := tables.Get().(*Table); t != nil {
		return t
	}
	return &Table{
		chunks:  []*[chunkLen]Object{new([chunkLen]Object)},
		extFree: make(map[int][]uint32),
	}
}

// Release empties the table and hands it, chunks included, to a later
// NewTable. The chunks are not cleared: Alloc overwrites a whole
// record before handing out its ID. The caller must drop the table;
// until a NewTable takes it back, Get panics on every ID.
func (t *Table) Release() {
	t.n, t.live = 0, 0
	t.free = t.free[:0]
	t.ext = t.ext[:0]
	clear(t.extFree)
	tables.Put(t)
}

// Alloc creates a record and returns its ID. The record starts with
// the given placement and nrefs empty reference slots.
func (t *Table) Alloc(addr uint64, size uint32, space SpaceID, nrefs int) ObjID {
	var id ObjID
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if int(t.n) == len(t.chunks)*chunkLen {
			t.chunks = append(t.chunks, new([chunkLen]Object))
		}
		t.n++
		id = t.n
	}
	o := t.Get(id)
	*o = Object{Addr: addr, Size: size, Space: space, nref: uint16(nrefs)}
	if nrefs > inlineRefs {
		o.ext = t.allocRun(nrefs - inlineRefs)
	}
	t.live++
	return id
}

// allocRun returns the start of a zeroed arena run of n slots, reusing
// the run Free returned last for that length.
func (t *Table) allocRun(n int) uint32 {
	if runs := t.extFree[n]; len(runs) > 0 {
		off := runs[len(runs)-1]
		t.extFree[n] = runs[:len(runs)-1]
		clear(t.ext[off : int(off)+n])
		return off
	}
	off := len(t.ext)
	if uint64(off+n) > math.MaxUint32 {
		panic("objmodel: overflow arena exceeds 32-bit offsets")
	}
	t.ext = append(t.ext, make([]ObjID, n)...)
	return uint32(off)
}

// Get returns the record for id. It panics on nil or out-of-range IDs:
// a bad ID is a runtime bug, the managed equivalent of a corrupted
// reference.
func (t *Table) Get(id ObjID) *Object {
	i := id - 1 // Nil wraps past every valid index
	if i >= t.n {
		panic(invalidID(id))
	}
	return &t.chunks[i>>chunkBits][i&(chunkLen-1)]
}

// Ref returns the i'th reference slot of o, a record of this table.
func (t *Table) Ref(o *Object, i int) ObjID {
	if i < inlineRefs {
		return o.refs[i]
	}
	return t.ext[t.extIndex(o, i)]
}

// SetRef stores into the i'th reference slot of o, a record of this
// table.
func (t *Table) SetRef(o *Object, i int, id ObjID) {
	if i < inlineRefs {
		o.refs[i] = id
		return
	}
	t.ext[t.extIndex(o, i)] = id
}

// extIndex returns the arena index of o's overflow slot i. A slot past
// the object's last would land in another object's run, so it panics.
func (t *Table) extIndex(o *Object, i int) int {
	if i >= int(o.nref) {
		panic(fmt.Sprintf("objmodel: reference slot %d out of range [0:%d]", i, o.nref))
	}
	return int(o.ext) + i - inlineRefs
}

// OverflowRun reports the arena slots [lo, hi) that hold o's reference
// slots beyond the inline ones; lo == hi when it has none.
func (t *Table) OverflowRun(o *Object) (lo, hi int) {
	if o.nref <= inlineRefs {
		return 0, 0
	}
	lo = int(o.ext)
	return lo, lo + int(o.nref) - inlineRefs
}

// ArenaLen reports the overflow arena's length in slots.
func (t *Table) ArenaLen() int { return len(t.ext) }

// Free releases the record, and its overflow run, for reuse.
func (t *Table) Free(id ObjID) {
	o := t.Get(id)
	if n := int(o.nref) - inlineRefs; n > 0 {
		t.extFree[n] = append(t.extFree[n], o.ext)
	}
	*o = Object{}
	t.free = append(t.free, id)
	t.live--
}

// Live reports the number of live records.
func (t *Table) Live() int { return t.live }

// invalidID is Get's panic value. A value rather than a formatted
// string keeps Get small enough to inline; it prints the same message.
type invalidID ObjID

func (id invalidID) String() string {
	return fmt.Sprintf("objmodel: invalid object id %d", ObjID(id))
}
