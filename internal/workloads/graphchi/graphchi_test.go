package graphchi

import (
	"testing"

	"repro/internal/jvm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/native"
	"repro/internal/workloads"
)

const testEdges = 60_000

func newMachine() *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.NodeBytes = 2 << 30
	return machine.New(cfg)
}

func runManaged(t *testing.T, app workloads.App, kind jvm.Kind) (*machine.Machine, jvm.Stats) {
	t.Helper()
	m := newMachine()
	k := kernel.New(m, kernel.Config{EmulateOS: false})
	var stats jvm.Stats
	plan := jvm.NewPlan(kind, jvm.PlanConfig{
		BaseNurseryBytes: 256 << 10,
		HeapBytes:        24 << 20,
		BootBytes:        1 << 20,
		ThreadSocket:     -1,
	})
	proc := k.NewProcess("java", plan.ThreadSocket, func(pr *kernel.Process) {
		rt, err := jvm.NewRuntime(pr, plan)
		if err != nil {
			panic(err)
		}
		app.Run(&workloads.ManagedEnv{R: rt}, workloads.Default, 1)
		stats = rt.Stats
	})
	if err := k.RunSolo(proc, kernel.RunConfig{}); err != nil {
		t.Fatal(err)
	}
	return m, stats
}

func runNative(t *testing.T, app workloads.App) (*machine.Machine, native.Stats, int) {
	t.Helper()
	m := newMachine()
	k := kernel.New(m, kernel.Config{EmulateOS: false})
	var stats native.Stats
	var live int
	proc := k.NewProcess("cpp", 1, func(pr *kernel.Process) {
		rt, err := native.NewRuntime(pr, 512<<20, 1)
		if err != nil {
			panic(err)
		}
		app.Run(&workloads.NativeEnv{R: rt}, workloads.Default, 1)
		stats = rt.Stats
		live = rt.LiveBlocks()
	})
	if err := k.RunSolo(proc, kernel.RunConfig{}); err != nil {
		t.Fatal(err)
	}
	return m, stats, live
}

func TestKindStrings(t *testing.T) {
	if PR.String() != "PR" || CC.String() != "CC" || ALS.String() != "ALS" {
		t.Error("kind names wrong")
	}
}

func TestAppMetadata(t *testing.T) {
	for _, a := range All() {
		if a.Suite() != workloads.GraphChi {
			t.Errorf("%s suite = %v", a.Name(), a.Suite())
		}
		if a.NurseryMB() != 32 {
			t.Errorf("%s nursery = %d, want 32 (paper's GraphChi choice)", a.Name(), a.NurseryMB())
		}
		if !a.HasLargeDataset() {
			t.Errorf("%s must have a large dataset", a.Name())
		}
	}
}

func TestGraphGeneratorDeterminism(t *testing.T) {
	a := buildGraph(testEdges, 99, true, 8192, 8192)
	b := buildGraph(testEdges, 99, true, 8192, 8192)
	if a.srcVerts != b.srcVerts || a.numShard != b.numShard {
		t.Fatal("graph geometry not deterministic")
	}
	for s := range a.shards {
		if len(a.shards[s]) != len(b.shards[s]) {
			t.Fatal("shard sizes not deterministic")
		}
		for i := range a.shards[s] {
			if a.shards[s][i] != b.shards[s][i] {
				t.Fatal("edges not deterministic")
			}
		}
	}
	total := 0
	for _, s := range a.shards {
		total += len(s)
	}
	if total != testEdges {
		t.Errorf("sharded edges = %d, want %d", total, testEdges)
	}
}

func TestGraphSkew(t *testing.T) {
	// RMAT graphs are skewed: the max out-degree should far exceed
	// the mean.
	g := buildGraph(testEdges, 7, false, 8192, 8192)
	outDeg := make([]uint32, g.srcVerts)
	for _, shard := range g.shards {
		for _, e := range shard {
			outDeg[e.src]++
		}
	}
	var max uint32
	for _, d := range outDeg {
		if d > max {
			max = d
		}
	}
	mean := float64(testEdges) / float64(g.srcVerts)
	if float64(max) < 8*mean {
		t.Errorf("degree skew too weak: max %d vs mean %.1f", max, mean)
	}
}

func TestPageRankRuns(t *testing.T) {
	app := NewWithEdges(PR, testEdges)
	_, stats := runManaged(t, app, jvm.KGN)
	if stats.AllocBytes == 0 || stats.MinorGCs == 0 {
		t.Errorf("PR stats: %+v", stats)
	}
}

func TestCCConverges(t *testing.T) {
	app := NewWithEdges(CC, testEdges)
	_, _ = runManaged(t, app, jvm.KGN)
	// Label propagation only lowers labels.
	for v, l := range app.labels {
		if int(l) > v {
			t.Fatalf("label[%d] = %d rose above its vertex id", v, l)
		}
	}
}

func TestALSRuns(t *testing.T) {
	app := NewWithEdges(ALS, testEdges)
	_, stats := runManaged(t, app, jvm.KGN)
	if stats.LargeAllocBytes == 0 && stats.AllocBytes == 0 {
		t.Error("ALS allocated nothing")
	}
}

func TestJavaAllocatesMoreThanCpp(t *testing.T) {
	// Fig 3's allocation comparison: the managed version allocates
	// more than C++ (boxing temporaries), within 1.1x-3x.
	for _, kind := range []Kind{PR, CC, ALS} {
		_, jstats := runManaged(t, NewWithEdges(kind, testEdges), jvm.PCMOnly)
		_, cstats, _ := runNative(t, NewWithEdges(kind, testEdges))
		ratio := float64(jstats.AllocBytes) / float64(cstats.AllocBytes)
		if ratio <= 1.05 {
			t.Errorf("%v: Java/C++ allocation ratio %.2f, want > 1.05", kind, ratio)
		}
		if ratio > 4 {
			t.Errorf("%v: Java/C++ allocation ratio %.2f implausibly high", kind, ratio)
		}
	}
}

func TestNativeVersionFreesBuffers(t *testing.T) {
	_, stats, live := runNative(t, NewWithEdges(PR, testEdges))
	if stats.Frees == 0 {
		t.Error("C++ version must free its shard buffers")
	}
	// Only vertex arrays may remain at iteration end... and they are
	// released too, so everything must be freed.
	if live != 0 {
		t.Errorf("C++ version leaked %d blocks", live)
	}
}

func TestShardBuffersAreLargeObjects(t *testing.T) {
	app := NewWithEdges(PR, testEdges)
	_, stats := runManaged(t, app, jvm.KGN) // no LOO: larges go to PCM LOS
	if stats.LargeAllocBytes == 0 {
		t.Error("shard buffers must follow the large-object policy")
	}
}

// TestRMATThresholdMatchesFloat checks the integer form of the RMAT
// bias against the float draw it replaces, at its boundary and on a
// stream of draws.
func TestRMATThresholdMatchesFloat(t *testing.T) {
	float := func(x uint64) bool { return float64(x>>11)/float64(1<<53) < 0.72 }
	for _, top := range []uint64{0, rmatLow - 1, rmatLow, rmatLow + 1, 1<<53 - 1} {
		x := top << 11
		if got := x>>11 < rmatLow; got != float(x) {
			t.Errorf("draw %#x: threshold says %v, Float says %v", x, got, float(x))
		}
	}
	rng := workloads.NewRNG(3)
	for i := 0; i < 1_000_000; i++ {
		x := rng.Next()
		if got := x>>11 < rmatLow; got != float(x) {
			t.Fatalf("draw %#x: threshold says %v, Float says %v", x, got, float(x))
		}
	}
}
