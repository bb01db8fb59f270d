package objmodel

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSpaceStrings(t *testing.T) {
	cases := map[SpaceID]string{
		SpaceBoot:       "boot",
		SpaceNursery:    "nursery",
		SpaceObserver:   "observer",
		SpaceMatureDRAM: "mature-dram",
		SpaceMaturePCM:  "mature-pcm",
		SpaceLargeDRAM:  "large-dram",
		SpaceLargePCM:   "large-pcm",
		SpaceMetaDRAM:   "meta-dram",
		SpaceMetaPCM:    "meta-pcm",
	}
	for id, want := range cases {
		if id.String() != want {
			t.Errorf("%d.String() = %q, want %q", id, id.String(), want)
		}
	}
}

func TestAllocGetFree(t *testing.T) {
	tb := NewTable()
	id := tb.Alloc(0x1000, 64, SpaceNursery, 2)
	if id == Nil {
		t.Fatal("Alloc returned nil id")
	}
	o := tb.Get(id)
	if o.Addr != 0x1000 || o.Size != 64 || o.Space != SpaceNursery || o.NumRefs() != 2 {
		t.Errorf("object = %+v", o)
	}
	if tb.Live() != 1 {
		t.Errorf("Live = %d, want 1", tb.Live())
	}
	tb.Free(id)
	if tb.Live() != 0 {
		t.Errorf("Live after free = %d, want 0", tb.Live())
	}
	// Slot reuse.
	id2 := tb.Alloc(0x2000, 32, SpaceMaturePCM, 0)
	if id2 != id {
		t.Errorf("expected slot reuse, got %d (was %d)", id2, id)
	}
}

func TestGetInvalidPanics(t *testing.T) {
	tb := NewTable()
	defer func() {
		if recover() == nil {
			t.Error("Get(Nil) should panic")
		}
	}()
	tb.Get(Nil)
}

func TestRefsInlineAndOverflow(t *testing.T) {
	tb := NewTable()
	id := tb.Alloc(0x1000, 256, SpaceNursery, 7) // 4 inline + 3 overflow
	o := tb.Get(id)
	for i := 0; i < 7; i++ {
		tb.SetRef(o, i, ObjID(i+100))
	}
	for i := 0; i < 7; i++ {
		if tb.Ref(o, i) != ObjID(i+100) {
			t.Errorf("Ref(%d) = %d, want %d", i, tb.Ref(o, i), i+100)
		}
	}
}

func TestRefSlotAddr(t *testing.T) {
	tb := NewTable()
	id := tb.Alloc(0x1000, 64, SpaceNursery, 3)
	o := tb.Get(id)
	if got := o.RefSlotAddr(0); got != 0x1000+HeaderBytes {
		t.Errorf("slot 0 addr = %#x", got)
	}
	if got := o.RefSlotAddr(2); got != 0x1000+HeaderBytes+2*RefBytes {
		t.Errorf("slot 2 addr = %#x", got)
	}
}

func TestMarkEpochs(t *testing.T) {
	tb := NewTable()
	o := tb.Get(tb.Alloc(0x1000, 64, SpaceNursery, 0))
	if o.Marked(1) {
		t.Error("fresh object should be unmarked in epoch 1")
	}
	o.SetMark(1)
	if !o.Marked(1) {
		t.Error("object should be marked in epoch 1")
	}
	if o.Marked(2) {
		t.Error("epoch 2 should not see epoch-1 marks")
	}
}

func TestFlags(t *testing.T) {
	tb := NewTable()
	o := tb.Get(tb.Alloc(0x1000, 64, SpaceLargePCM, 0))
	o.Flags |= FlagLarge | FlagWritten
	if o.Flags&FlagLarge == 0 || o.Flags&FlagWritten == 0 {
		t.Error("flags not set")
	}
	o.Flags &^= FlagWritten
	if o.Flags&FlagWritten != 0 {
		t.Error("FlagWritten not cleared")
	}
	if o.Flags&FlagLarge == 0 {
		t.Error("FlagLarge lost while clearing FlagWritten")
	}
}

// Property: live count equals allocs minus frees, and freed slots are
// recycled, last freed first, before the table grows.
func TestTableAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tb := NewTable()
		var ids, freed []ObjID
		var high ObjID
		for _, op := range ops {
			if op&1 == 0 || len(ids) == 0 {
				want := high + 1
				if n := len(freed); n > 0 {
					want, freed = freed[n-1], freed[:n-1]
				} else {
					high++
				}
				if id := tb.Alloc(0x1000, 64, SpaceNursery, 1); id != want {
					t.Logf("Alloc = %d, want %d", id, want)
					return false
				}
				ids = append(ids, want)
			} else {
				i := int(op>>1) % len(ids)
				tb.Free(ids[i])
				freed = append(freed, ids[i])
				ids = append(ids[:i], ids[i+1:]...)
			}
		}
		return tb.Live() == len(ids)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: reference slots hold exactly what was stored, for any slot
// count up to 16.
func TestRefsRoundtripProperty(t *testing.T) {
	f := func(n uint8, vals []uint32) bool {
		nrefs := int(n % 16)
		tb := NewTable()
		o := tb.Get(tb.Alloc(0x1000, 64, SpaceNursery, nrefs))
		want := make([]ObjID, nrefs)
		for i := 0; i < nrefs && i < len(vals); i++ {
			want[i] = ObjID(vals[i])
			tb.SetRef(o, i, want[i])
		}
		for i := 0; i < nrefs; i++ {
			if tb.Ref(o, i) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A record pointer stays valid while the table grows by whole chunks,
// and so does its overflow run while the arena grows; every record
// keeps its own fields.
func TestObjectPointerStableAcrossGrowth(t *testing.T) {
	tb := NewTable()
	id := tb.Alloc(0, 64, SpaceNursery, 6)
	o := tb.Get(id)
	for i := 1; i < 3*chunkLen; i++ {
		tb.Alloc(uint64(i)*64, 64, SpaceNursery, 6)
	}
	if len(tb.chunks) != 3 {
		t.Fatalf("table has %d chunks, want 3", len(tb.chunks))
	}
	o.Size = 128
	tb.SetRef(o, 5, 42)
	if got := tb.Get(id); got != o || got.Size != 128 || tb.Ref(got, 5) != 42 {
		t.Errorf("record moved or lost its writes: Get = %p (held %p), Size %d, Ref(5) = %d",
			got, o, got.Size, tb.Ref(got, 5))
	}
	for i := 1; i < 3*chunkLen; i++ {
		if got := tb.Get(ObjID(i + 1)); got.Addr != uint64(i)*64 || tb.Ref(got, 5) != Nil {
			t.Fatalf("record %d: Addr %#x, Ref(5) = %d; want %#x, Nil", i+1, got.Addr, tb.Ref(got, 5), i*64)
		}
	}
}

// Freeing an object returns its overflow run, and the next object
// with as many overflow slots takes it back zeroed.
func TestOverflowRunReuse(t *testing.T) {
	tb := NewTable()
	a := tb.Alloc(0x1000, 64, SpaceNursery, 7)
	o := tb.Get(a)
	for i := 0; i < 7; i++ {
		tb.SetRef(o, i, ObjID(i+100))
	}
	lo, hi := tb.OverflowRun(o)
	arena := len(tb.ext)
	tb.Free(a)
	o = tb.Get(tb.Alloc(0x2000, 64, SpaceNursery, 7))
	for i := 0; i < 7; i++ {
		if got := tb.Ref(o, i); got != Nil {
			t.Errorf("reused object's Ref(%d) = %d, want Nil", i, got)
		}
	}
	if l, h := tb.OverflowRun(o); l != lo || h != hi {
		t.Errorf("run [%d,%d), want the freed run [%d,%d)", l, h, lo, hi)
	}
	if len(tb.ext) != arena {
		t.Errorf("arena grew %d -> %d slots on reuse", arena, len(tb.ext))
	}
}

// An index past the object's slots panics instead of reaching into the
// next object's run.
func TestOverflowIndexPastRefsPanics(t *testing.T) {
	tb := NewTable()
	a := tb.Get(tb.Alloc(0x1000, 64, SpaceNursery, 6))
	b := tb.Get(tb.Alloc(0x2000, 64, SpaceNursery, 6))
	inline := tb.Get(tb.Alloc(0x3000, 64, SpaceNursery, 4))
	for name, f := range map[string]func(){
		"Ref":           func() { tb.Ref(a, 6) },
		"SetRef":        func() { tb.SetRef(a, 6, 1) },
		"inline-only":   func() { tb.Ref(inline, 4) },
		"inline-SetRef": func() { tb.SetRef(inline, 4, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		})
	}
	for i := 0; i < 6; i++ {
		if got := tb.Ref(b, i); got != Nil {
			t.Errorf("neighbour's Ref(%d) = %d, want Nil", i, got)
		}
	}
}

// The record stays 40 bytes with no Go pointers: the table is a
// no-scan allocation the host collector never walks.
func TestObjectIs40BytesWithoutPointers(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 40 {
		t.Errorf("Object is %d bytes, want 40", got)
	}
	if typ := reflect.TypeOf(Object{}); hasPointers(typ) {
		t.Errorf("%v holds Go pointers", typ)
	}
}

func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

var sinkAddr uint64

// BenchmarkTableGet prices Get's chunk lookup: random IDs over a
// million records (40 MB), well beyond the host's caches.
func BenchmarkTableGet(b *testing.B) {
	const n = 1 << 20
	tb := NewTable()
	for i := 0; i < n; i++ {
		tb.Alloc(uint64(i)*64, 64, SpaceNursery, 0)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	ids := make([]ObjID, 1<<16)
	for i := range ids {
		ids[i] = ObjID(rng.IntN(n) + 1)
	}
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += tb.Get(ids[i&(len(ids)-1)]).Addr
	}
	sinkAddr = sum
}

func TestReleasedTablePanics(t *testing.T) {
	tb := NewTable()
	id := tb.Alloc(0x1000, 16, SpaceNursery, 0)
	tb.Release()
	defer func() {
		if recover() == nil {
			t.Error("Get on a released table did not panic")
		}
	}()
	tb.Get(id)
}

// TestRecycledTableStartsEmpty checks that a table built after a
// release behaves as a fresh one: IDs start at 1 and the overflow
// arena is empty, including when it reuses the released table.
func TestRecycledTableStartsEmpty(t *testing.T) {
	for i := 0; i < 4; i++ {
		tb := NewTable()
		a := tb.Alloc(0x1000, 64, SpaceNursery, 6)
		tb.Alloc(0x2000, 64, SpaceNursery, 6)
		tb.SetRef(tb.Get(a), 5, a)
		tb.Free(a) // leaves a free slot and a free overflow run
		tb.Release()

		nt := NewTable()
		if nt.Live() != 0 || nt.ArenaLen() != 0 {
			t.Fatalf("new table: %d live, arena %d, want 0 and 0", nt.Live(), nt.ArenaLen())
		}
		id := nt.Alloc(0x3000, 64, SpaceNursery, 6)
		if id != 1 {
			t.Fatalf("first ID of a new table = %d, want 1", id)
		}
		o := nt.Get(id)
		for s := 0; s < o.NumRefs(); s++ {
			if ref := nt.Ref(o, s); ref != Nil {
				t.Fatalf("slot %d of a new object holds %d", s, ref)
			}
		}
		if lo, hi := nt.OverflowRun(o); lo != 0 || hi != 2 {
			t.Fatalf("overflow run [%d,%d), want [0,2)", lo, hi)
		}
	}
}
