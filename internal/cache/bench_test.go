package cache

import "testing"

// BenchmarkAccessHit measures the hot path: an L1-style hit.
func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{Name: "L1", Bytes: 32 << 10, Ways: 8})
	c.Access(0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false)
	}
}

// BenchmarkAccessMissStream measures a streaming miss pattern with
// evictions — the writeback-generating path.
func BenchmarkAccessMissStream(b *testing.B) {
	c := New(Config{Name: "L3", Bytes: 1 << 20, Ways: 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*64, true)
	}
}

// BenchmarkAccessL3Associativity measures a 20-way set scan (the
// platform's L3 geometry).
func BenchmarkAccessL3Associativity(b *testing.B) {
	c := New(Config{Name: "L3", Bytes: 20 << 20, Ways: 20})
	// Warm one set with 20 resident ways.
	for w := 0; w < 20; w++ {
		c.Access(uint64(w)*(20<<20)/20, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%20)*(20<<20)/20, false)
	}
}

// BenchmarkAccessL3RandomSets measures random lines across a full
// 20 MB/20-way L3, drawn from a working set twice its capacity, with
// one access in four a write. Every access lands in a different set,
// so the figure includes the host cache misses on the model's own set
// storage, which the one-set bench above cannot see.
func BenchmarkAccessL3RandomSets(b *testing.B) {
	const capacity = 20 << 20
	const lines = 2 * capacity / 64
	c := New(Config{Name: "L3", Bytes: capacity, Ways: 20})
	for l := uint64(0); l < lines; l++ {
		c.Access(l*64, l%4 == 0)
	}
	x := uint64(88172645463325252) // xorshift64 state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.Access(x%lines*64, x>>62 == 0)
	}
}
