package jvm

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/objmodel"
)

// benchRuntime builds a runtime on an unscheduled process: with no
// scheduler the timeslice stays zero, accesses never yield, and the
// runtime is usable directly from the benchmark goroutine.
func benchRuntime(b testing.TB, kind Kind) *Runtime {
	b.Helper()
	mcfg := machine.DefaultConfig()
	mcfg.NodeBytes = 2 << 30
	m := machine.New(mcfg)
	k := kernel.New(m, kernel.Config{EmulateOS: false})
	p := k.NewProcess("bench", 0, nil)
	rt, err := NewRuntime(p, NewPlan(kind, PlanConfig{
		BaseNurseryBytes: 4 << 20,
		HeapBytes:        64 << 20,
		BootBytes:        1 << 20,
		ThreadSocket:     -1,
	}))
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkAllocSmall measures the nursery fast path including
// zero-initialization and GC amortization.
func BenchmarkAllocSmall(b *testing.B) {
	rt := benchRuntime(b, KGN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Alloc(64, 2)
	}
	b.ReportMetric(float64(rt.Stats.MinorGCs), "minorGCs")
}

// BenchmarkAllocLarge measures the large-object path.
func BenchmarkAllocLarge(b *testing.B) {
	rt := benchRuntime(b, KGW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Alloc(64<<10, 0)
	}
	b.ReportMetric(float64(rt.Stats.FullGCs), "fullGCs")
}

// BenchmarkWriteBarrier measures a reference store with the boundary
// barrier and KG-W monitoring.
func BenchmarkWriteBarrier(b *testing.B) {
	rt := benchRuntime(b, KGW)
	container := rt.Alloc(64, 4)
	rt.AddRoot(container)
	target := rt.Alloc(64, 0)
	rt.AddRoot(target)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.WriteRef(container, i%4, target)
	}
}

// BenchmarkMinorGC measures a nursery collection with a live window:
// before each (untimed) a fresh 512-object window replaces the rooted
// one, so every collection copies 512 survivors.
func BenchmarkMinorGC(b *testing.B) {
	rt := benchRuntime(b, KGW)
	slots := make([]int, 512)
	for i := range slots {
		slots[i] = rt.AddRoot(objmodel.Nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rotateWindow(rt, slots)
		b.StartTimer()
		rt.Collect(false)
	}
}

// rotateWindow points each root slot at a freshly allocated nursery
// object, unrooting the previous window.
func rotateWindow(rt *Runtime, slots []int) {
	for _, s := range slots {
		rt.SetRoot(s, rt.Alloc(128, 1))
	}
}
