package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refCache is the reference model Cache is checked against: per set, a
// list of resident lines in MRU→LRU order, each with its full line
// address and a separate dirty flag. It is deliberately naive.
type refCache struct {
	sets, ways uint64
	lines      [][]refLine
	stats      Stats
}

type refLine struct {
	addr  uint64 // 64-byte-aligned line address
	dirty bool
}

func newRefCache(cfg Config) *refCache {
	sets := uint64(cfg.Bytes / 64 / cfg.Ways)
	return &refCache{sets: sets, ways: uint64(cfg.Ways), lines: make([][]refLine, sets)}
}

func (r *refCache) access(addr uint64, write bool) (bool, Victim) {
	la, set := addr&^63, addr/64%r.sets
	l := r.lines[set]
	r.stats.Accesses++
	for i, e := range l {
		if e.addr == la {
			e.dirty = e.dirty || write
			l = append(append([]refLine{e}, l[:i]...), l[i+1:]...)
			r.lines[set] = l
			r.stats.Hits++
			return true, Victim{}
		}
	}
	var v Victim
	if uint64(len(l)) == r.ways {
		last := l[len(l)-1]
		l = l[:len(l)-1]
		v = Victim{LineAddr: last.addr, Dirty: last.dirty, Valid: true}
		r.stats.Evictions++
		if last.dirty {
			r.stats.DirtyEvicts++
		}
	}
	r.lines[set] = append([]refLine{{addr: la, dirty: write}}, l...)
	return false, v
}

func (r *refCache) contains(addr uint64) bool {
	for _, e := range r.lines[addr/64%r.sets] {
		if e.addr == addr&^63 {
			return true
		}
	}
	return false
}

// flush returns the dirty lines set by set, each set MRU first: the
// order Cache.Flush produces, which DrainCaches feeds to the next level.
func (r *refCache) flush() []uint64 {
	var dirty []uint64
	for set, l := range r.lines {
		for _, e := range l {
			if e.dirty {
				dirty = append(dirty, e.addr)
			}
		}
		r.lines[set] = nil
	}
	return dirty
}

// paperTopPA is the paper machine's top physical address: two sockets
// of 66 GB (machine.DefaultConfig).
const paperTopPA = 2 * 66 << 30

// TestMatchesReferenceLRU drives Cache and refCache with the same
// random read/write stream on every geometry the platform builds, plus
// a dense 3-set toy and a 1-set cache, and compares every hit and
// victim, then the statistics, residency and flushed dirty lines.
func TestMatchesReferenceLRU(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "L1D", Bytes: 32 << 10, Ways: 8},
		{Name: "L2", Bytes: 256 << 10, Ways: 8},
		{Name: "L3", Bytes: 20 << 20, Ways: 20},
		{Name: "L3-4MB", Bytes: 4 << 20, Ways: 2},    // 32768 sets
		{Name: "L3-15MB", Bytes: 15 << 20, Ways: 20}, // 12288 sets
		{Name: "toy", Bytes: 3 * 4 * 64, Ways: 4},    // 3 sets
		{Name: "one-set", Bytes: 8 * 64, Ways: 8},
	} {
		t.Run(cfg.Name, func(t *testing.T) { checkAgainstRef(t, cfg) })
	}
}

func checkAgainstRef(t *testing.T, cfg Config) {
	c, ref := New(cfg), newRefCache(cfg)
	rng := rand.New(rand.NewSource(1))

	// Lines come from below the paper machine's top address, or from
	// below the largest address whose tag fits the word where that is
	// lower: for a 1-set cache the tag is the whole line number, which
	// passes 31 bits in the top 3% of the paper machine's range.
	topLine := min(uint64(paperTopPA), (maxTag+1)*ref.sets*64) / 64
	// Half the pool is spread over all sets. The other half crowds up
	// to eight hot sets at twice their associativity, so every LRU
	// position sees hits, and evictions and re-fetches recur.
	hot := make([]uint64, min(8, ref.sets))
	for i := range hot {
		hot[i] = rng.Uint64() % ref.sets
	}
	pool := make([]uint64, 0, 4096+2*len(hot)*cfg.Ways)
	for len(pool) < 4096 {
		pool = append(pool, rng.Uint64()%topLine)
	}
	for _, set := range hot {
		for range 2 * cfg.Ways {
			line := rng.Uint64()%topLine/ref.sets*ref.sets + set
			if line >= topLine {
				line -= ref.sets
			}
			pool = append(pool, line)
		}
	}

	var recent [16]uint64
	for i := range 200_000 {
		var line uint64
		switch r := rng.Intn(10); {
		case i > 0 && r < 2: // the line just touched: a way-0 hit
			line = recent[(i-1)%len(recent)]
		case i >= len(recent) && r < 4: // a recent line: a shallow hit
			line = recent[rng.Intn(len(recent))]
		case r < 7:
			line = pool[len(pool)-1-rng.Intn(2*len(hot)*cfg.Ways)]
		default:
			line = pool[rng.Intn(len(pool))]
		}
		recent[i%len(recent)] = line
		addr, write := line*64+uint64(rng.Intn(64)), rng.Intn(3) == 0

		hit, v := c.Access(addr, write)
		wantHit, wantV := ref.access(addr, write)
		if hit != wantHit || v != wantV {
			t.Fatalf("access %d (%#x, write=%v): hit=%v victim=%+v, reference hit=%v victim=%+v",
				i, addr, write, hit, v, wantHit, wantV)
		}
	}

	if c.Stats() != ref.stats {
		t.Errorf("stats = %+v, reference %+v", c.Stats(), ref.stats)
	}
	for _, line := range pool {
		if got, want := c.Contains(line*64), ref.contains(line*64); got != want {
			t.Fatalf("Contains(%#x) = %v, reference %v", line*64, got, want)
		}
	}
	dirty, wantDirty := c.Flush(), ref.flush()
	if len(wantDirty) == 0 {
		t.Fatal("the stream left no dirty lines to flush")
	}
	if !slices.Equal(dirty, wantDirty) {
		t.Errorf("Flush returned %d dirty lines, reference %d; first difference at %d",
			len(dirty), len(wantDirty), firstDiff(dirty, wantDirty))
	}
	for _, line := range pool {
		if c.Contains(line * 64) {
			t.Fatalf("line %#x resident after Flush", line*64)
		}
	}
}

func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestTagTooWideForWordPanics checks the word's tag limit on a 1-set
// cache, where the tag is the whole line number: the widest tag that
// fits round-trips through a dirty eviction and Flush, and one more
// panics instead of aliasing.
func TestTagTooWideForWordPanics(t *testing.T) {
	for _, ways := range []int{1, 4} {
		t.Run(fmt.Sprint(ways, "-way"), func(t *testing.T) {
			c := New(Config{Name: "one-set", Bytes: ways * 64, Ways: ways})
			widest := uint64(maxTag) * 64
			c.Access(widest, true)
			for i := uint64(1); i < uint64(ways); i++ {
				c.Access(i*64, false)
			}
			if _, v := c.Access(uint64(ways)*64, false); v != (Victim{LineAddr: widest, Dirty: true, Valid: true}) {
				t.Errorf("victim = %+v, want the dirty line %#x", v, widest)
			}
			c.Access(widest+63, true)
			if got := c.Flush(); !slices.Contains(got, widest) {
				t.Errorf("Flush = %#x, want it to hold %#x", got, widest)
			}

			defer func() {
				if recover() == nil {
					t.Error("a tag wider than 31 bits must panic")
				}
			}()
			c.Access(widest+64, false)
		})
	}
}
