package cache

import (
	"sync"
	"testing"
	"testing/quick"
)

func tiny() *Cache {
	// 4 sets x 2 ways x 64B lines = 512 bytes.
	return New(Config{Name: "tiny", Bytes: 512, Ways: 2})
}

func TestHitAfterMiss(t *testing.T) {
	c := tiny()
	if hit, _ := c.Access(0x1000, false); hit {
		t.Fatal("cold access should miss")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Fatal("second access should hit")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSameLineDifferentBytes(t *testing.T) {
	c := tiny()
	c.Access(0x1000, false)
	if hit, _ := c.Access(0x103F, true); !hit {
		t.Error("access within the same 64B line should hit")
	}
	if hit, _ := c.Access(0x1040, false); hit {
		t.Error("next line should miss")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := tiny() // 4 sets: line -> set = (addr>>6) % 4
	// Three addresses mapping to set 0: line addresses 0, 4, 8.
	a0, a1, a2 := uint64(0*64), uint64(4*64), uint64(8*64)
	c.Access(a0, true)  // set0: [a0*]
	c.Access(a1, false) // set0: [a1, a0*]
	_, v := c.Access(a2, false)
	if !v.Valid || !v.Dirty || v.LineAddr != a0 {
		t.Errorf("expected dirty eviction of %#x, got %+v", a0, v)
	}
	if c.Contains(a0) {
		t.Error("evicted line still resident")
	}
	if !c.Contains(a1) || !c.Contains(a2) {
		t.Error("resident lines missing")
	}
}

func TestCleanEvictionNotDirty(t *testing.T) {
	c := tiny()
	a0, a1, a2 := uint64(0*64), uint64(4*64), uint64(8*64)
	c.Access(a0, false)
	c.Access(a1, false)
	_, v := c.Access(a2, false)
	if !v.Valid || v.Dirty {
		t.Errorf("expected clean eviction, got %+v", v)
	}
	if got := c.Stats().DirtyEvicts; got != 0 {
		t.Errorf("DirtyEvicts = %d, want 0", got)
	}
}

func TestLRUOrder(t *testing.T) {
	c := tiny()
	a0, a1, a2 := uint64(0*64), uint64(4*64), uint64(8*64)
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false) // refresh a0; a1 becomes LRU
	_, v := c.Access(a2, false)
	if v.LineAddr != a1 {
		t.Errorf("LRU victim = %#x, want %#x", v.LineAddr, a1)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := tiny()
	a0, a1, a2 := uint64(0*64), uint64(4*64), uint64(8*64)
	c.Access(a0, false) // clean
	c.Access(a0, true)  // now dirty via write hit
	c.Access(a1, false)
	c.Access(a0, false) // keep a0 MRU
	_, v := c.Access(a2, false)
	if v.LineAddr != a1 || v.Dirty {
		t.Errorf("victim = %+v, want clean %#x", v, a1)
	}
	// Evict a0 next; it must come out dirty.
	c.Access(a2, false)
	_, v = c.Access(a1, false)
	if v.LineAddr != a0 || !v.Dirty {
		t.Errorf("victim = %+v, want dirty %#x", v, a0)
	}
}

func TestFlush(t *testing.T) {
	c := tiny()
	c.Access(0, true)
	c.Access(4*64, false)
	dirty := c.Flush()
	if len(dirty) != 1 || dirty[0] != 0 {
		t.Errorf("flush dirty = %v, want [0]", dirty)
	}
	if c.Contains(0) || c.Contains(4*64) {
		t.Error("flush left lines resident")
	}
}

func TestWorkingSetFitsNoEvictions(t *testing.T) {
	// A working set equal to capacity, touched repeatedly, must stop
	// missing after the first pass — the "L3 absorbs the nursery"
	// effect in miniature.
	c := New(Config{Name: "l3", Bytes: 1 << 16, Ways: 16})
	lines := (1 << 16) / 64
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*64), true)
		}
	}
	s := c.Stats()
	if s.Evictions != 0 {
		t.Errorf("fitting working set caused %d evictions", s.Evictions)
	}
	wantHits := uint64(3 * lines)
	if s.Hits != wantHits {
		t.Errorf("hits = %d, want %d", s.Hits, wantHits)
	}
}

func TestOverflowingWorkingSetEvicts(t *testing.T) {
	c := New(Config{Name: "l3", Bytes: 1 << 14, Ways: 4})
	lines := 2 * (1 << 14) / 64 // 2x capacity
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*64), true)
		}
	}
	if c.Stats().DirtyEvicts == 0 {
		t.Error("2x working set should force dirty evictions")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero ways")
		}
	}()
	New(Config{Name: "bad", Bytes: 512, Ways: 0})
}

// Property: the number of resident lines never exceeds capacity, and
// an access to an address always leaves it resident.
func TestResidencyProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := New(Config{Name: "p", Bytes: 2048, Ways: 4})
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
			if !c.Contains(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: hits+misses == accesses and evictions <= misses.
func TestStatsConsistencyProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(Config{Name: "p", Bytes: 1024, Ways: 2})
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		s := c.Stats()
		misses := s.Accesses - s.Hits
		return s.Evictions <= misses && s.DirtyEvicts <= s.Evictions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReleasedCachePanics(t *testing.T) {
	c := tiny()
	c.Access(0x1000, true)
	c.Release()
	c.Release() // a second release must not hand the array out twice
	for name, use := range map[string]func(){
		"Access":   func() { c.Access(0x1000, false) },
		"Contains": func() { c.Contains(0x1000) },
		"Flush":    func() { c.Flush() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released cache did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestRecycledCacheStartsEmpty checks that a cache built after a
// release holds no line, including when it reuses the released array.
func TestRecycledCacheStartsEmpty(t *testing.T) {
	for i := 0; i < 4; i++ {
		c := tiny()
		c.Access(0x1000, true)
		c.Release()
		d := tiny()
		if d.Contains(0x1000) || len(d.Flush()) != 0 {
			t.Fatal("a new cache holds a line of the released one")
		}
	}
}

// TestRecycledWordsFitTheirCache releases way arrays into the pool
// that caches of a nearby length draw from: a smaller one must not be
// handed to a larger cache, and a larger one is cut to length.
func TestRecycledWordsFitTheirCache(t *testing.T) {
	small := Config{Name: "small", Bytes: 8 * 64, Ways: 2}  // 8 words
	large := Config{Name: "large", Bytes: 12 * 64, Ways: 3} // 12 words
	for _, order := range [][2]Config{{small, large}, {large, small}} {
		New(order[0]).Release()
		c := New(order[1])
		if want := order[1].Bytes / 64; len(c.words) != want {
			t.Fatalf("%s cache has %d way words, want %d", order[1].Name, len(c.words), want)
		}
		for line := uint64(0); line < 64; line++ {
			c.Access(line*64, true)
		}
		c.Release()
	}
}

// TestConcurrentRecycling builds, fills and releases caches of two
// lengths from several goroutines at once, as RunBatch workers do: no
// cache may start with another's lines. Run it under -race.
func TestConcurrentRecycling(t *testing.T) {
	cfgs := []Config{{Name: "a", Bytes: 8 * 64, Ways: 2}, {Name: "b", Bytes: 12 * 64, Ways: 3}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := New(cfgs[(g+i)%2])
				if n := len(c.Flush()); n != 0 {
					t.Errorf("a new cache holds %d dirty lines", n)
					return
				}
				for line := uint64(0); line < 16; line++ {
					c.Access(line*64, true)
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
}
