package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
)

var translateSink uint64

// BenchmarkTranslateResident measures the translation of resident
// pages: one page in eight across the JVM heap's 2 GB virtual range
// (heap.HeapBase to heap.DefaultDRAMEnd), visited in shuffled order, so
// the figure includes the host cache misses on the page table itself.
func BenchmarkTranslateResident(b *testing.B) {
	const heapBase, heapEnd = 0x10000000, 0x90000000
	k := New(machine.New(machine.DefaultConfig()), simOS())
	p := k.NewProcess("bench", 0, nil)
	if err := p.AS.MMap(heapBase, heapEnd-heapBase, NodeFirstTouch); err != nil {
		b.Fatal(err)
	}
	var vas []uint64
	for va := uint64(heapBase); va < heapEnd; va += 8 * PageSize {
		if _, err := p.AS.translate(va, p.Th); err != nil {
			b.Fatal(err)
		}
		vas = append(vas, va+24)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(vas), func(i, j int) { vas[i], vas[j] = vas[j], vas[i] })
	b.ResetTimer()
	j := 0
	for i := 0; i < b.N; i++ {
		pa, err := p.AS.translate(vas[j], p.Th)
		if err != nil {
			b.Fatal(err)
		}
		translateSink += pa
		if j++; j == len(vas) {
			j = 0
		}
	}
}
