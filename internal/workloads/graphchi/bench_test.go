package graphchi

import (
	"fmt"
	"testing"
)

// quickEdges is the quick scale's GraphChi input size.
const quickEdges = 150_000

// BenchmarkBuildGraph prices the generation and sharding of one quick
// input, the host work each GraphChi run does before it emulates.
// PR's shape (CC's is the same) draws two RMAT ids per edge over a
// 600k-vertex space; ALS's also shards by source.
func BenchmarkBuildGraph(b *testing.B) {
	for _, kind := range []Kind{PR, ALS} {
		b.Run(fmt.Sprint(kind), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				graphFor(kind, quickEdges)
			}
		})
	}
}
