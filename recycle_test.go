package hybridmem

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
)

// A run hands its page tables, caches and runtimes to the runs after
// it in the same process. These tests run cells back to back and hold
// every Result to its pinned digest, so a buffer that carries state
// from one run into the next shows up as a digest mismatch.

// pinnedDigests reads the cell digests of both Result manifests.
func pinnedDigests(t *testing.T) map[string]string {
	t.Helper()
	pinned := make(map[string]string)
	readManifest(t, quickGridManifest, pinned)
	readManifest(t, graphChiManifest, pinned)
	return pinned
}

// TestRecycledRunsMatchManifests runs, in one process, a sequence that
// changes the shape of every recycled buffer from one run to the next,
// then the same sequence reversed: PR's large object table, pmd x2's
// two page tables and runtimes, native PR without a runtime, and pmd
// at a 4 MB and a 15 MB L3, whose way arrays differ in length from the
// default 20 MB one. pmd x2 is not pinned; its reference runs first,
// after two collections have emptied the buffer pools.
func TestRecycledRunsMatchManifests(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build runs the reduced TestRecycledBatchMatchesManifests")
	}
	pinned := pinnedDigests(t)
	cells := []pinnedCell{
		{"PR/KG-N", nil, RunSpec{AppName: "PR", Collector: KGN}},
		{"pmd/KG-N/x2", nil, RunSpec{AppName: "pmd", Collector: KGN, Instances: 2}},
		{"PR/native", nil, RunSpec{AppName: "PR", Native: true}},
		{"pmd/KG-N/l3mb=4", []Option{WithL3MB(4)}, RunSpec{AppName: "pmd", Collector: KGN}},
		{"pmd/KG-N/l3mb=15", []Option{WithL3MB(15)}, RunSpec{AppName: "pmd", Collector: KGN}},
	}
	runtime.GC()
	runtime.GC()
	pinned["pmd/KG-N/x2"] = cells[1].run(t).sum

	reversed := slices.Clone(cells)
	slices.Reverse(reversed)
	for pass, seq := range [][]pinnedCell{cells, reversed} {
		for _, c := range seq {
			if got := c.run(t); got.sum != pinned[c.name] {
				t.Errorf("pass %d, %s: Result digest %s, want %s", pass, c.name, got.sum, pinned[c.name])
			}
		}
	}
}

// TestRecycledBatchMatchesManifests runs pinned cells through RunBatch,
// whose workers hand buffers to each other concurrently, in both
// orders. It is the race detector's recycling check.
func TestRecycledBatchMatchesManifests(t *testing.T) {
	pinned := pinnedDigests(t)
	specs := []RunSpec{
		{AppName: "pmd", Collector: KGN},
		{AppName: "lusearch", Collector: KGW},
		{AppName: "xalan", Collector: PCMOnly},
		{AppName: "pmd", Collector: KGB},
	}
	reversed := slices.Clone(specs)
	slices.Reverse(reversed)
	for pass, seq := range [][]RunSpec{specs, reversed} {
		results, err := New(WithScale(Quick), WithSeed(7), WithParallelism(2)).RunBatch(context.Background(), seq...)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range seq {
			cell := s.AppName + "/" + s.Collector.String()
			if got := digestCell(t, cell, results[i]); got.sum != pinned[cell] {
				t.Errorf("pass %d, %s: Result digest %s, want %s", pass, cell, got.sum, pinned[cell])
			}
		}
	}
}

// cancelWriter is a trace sink that cancels its run on the first
// quantum record, which arrives mid-execute after the header.
type cancelWriter struct {
	cancel context.CancelFunc
	writes int
}

func (w *cancelWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		w.cancel()
	}
	return len(p), nil
}

// TestCancelledRunLeavesNextRunExact cancels a run mid-execute, which
// releases nothing, and holds the next run of the same spec to its
// pinned digest.
func TestCancelledRunLeavesNextRunExact(t *testing.T) {
	pinned := pinnedDigests(t)
	spec := RunSpec{AppName: "pmd", Collector: KGN}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelWriter{cancel: cancel}
	if _, err := New(WithScale(Quick), WithSeed(7), WithTrace(w)).Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if w.writes < 2 {
		t.Fatalf("the run wrote %d trace records; it was not cancelled mid-execute", w.writes)
	}
	got := pinnedCell{"pmd/KG-N", nil, spec}.run(t)
	if got.sum != pinned["pmd/KG-N"] {
		t.Errorf("run after a cancelled one: Result digest %s, want %s", got.sum, pinned["pmd/KG-N"])
	}
}
