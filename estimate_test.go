package hybridmem

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/trace/library"
)

// warmLibrary records spec live under pol with tracing on and files the
// trace plus its measured baseline Result in lib, returning the live
// Result. This is exactly what serve's /v1/trace ingest path does.
func warmLibrary(t *testing.T, lib *TraceLibrary, pol Policy, spec RunSpec) Result {
	t.Helper()
	var buf bytes.Buffer
	p := New(WithScale(Quick), WithSeed(11), WithPolicy(pol), WithTrace(&buf))
	res, err := p.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WarmTraceLibrary(lib, spec, res, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return res
}

// relErr is the estimate tier's accuracy metric: |est-live| relative to
// the live value, with a floor of 1 so zero-valued truths don't divide
// by zero.
func relErr(est, live uint64) float64 {
	d := float64(est) - float64(live)
	if d < 0 {
		d = -d
	}
	den := float64(live)
	if den < 1 {
		den = 1
	}
	return d / den
}

// checkEstimate asserts one estimate against its live run: tagged,
// within EstimateTolerance on stalls and PagesMigrated, and — when
// exact is set (the replayed policy kind matches the recorded one, or
// neither migrates) — bit-equal on both with Confidence 1.
func checkEstimate(t *testing.T, label string, est, live Result, exact bool) {
	t.Helper()
	if !est.Estimated || est.Estimate == nil {
		t.Fatalf("%s: estimated Result not tagged: Estimated=%v Estimate=%v",
			label, est.Estimated, est.Estimate)
	}
	t.Logf("%s: est stalls=%d migrated=%d | live stalls=%d migrated=%d | relerr stalls=%.4f migrated=%.4f matches=%v",
		label, est.MigrationStallCycles, est.PagesMigrated,
		live.MigrationStallCycles, live.PagesMigrated,
		relErr(est.MigrationStallCycles, live.MigrationStallCycles),
		relErr(est.PagesMigrated, live.PagesMigrated),
		est.Estimate.MatchesRecorded)
	if e := relErr(est.MigrationStallCycles, live.MigrationStallCycles); e > EstimateTolerance {
		t.Errorf("%s: stall relative error %.4f exceeds tolerance %.2f (est %d, live %d)",
			label, e, EstimateTolerance, est.MigrationStallCycles, live.MigrationStallCycles)
	}
	if e := relErr(est.PagesMigrated, live.PagesMigrated); e > EstimateTolerance {
		t.Errorf("%s: migration relative error %.4f exceeds tolerance %.2f (est %d, live %d)",
			label, e, EstimateTolerance, est.PagesMigrated, live.PagesMigrated)
	}
	if exact {
		if est.MigrationStallCycles != live.MigrationStallCycles ||
			est.PagesMigrated != live.PagesMigrated {
			t.Errorf("%s: matching-replay estimate not exact: est (%d, %d), live (%d, %d)",
				label, est.MigrationStallCycles, est.PagesMigrated,
				live.MigrationStallCycles, live.PagesMigrated)
		}
	}
}

// TestEstimateAccuracyAcrossPolicies is the estimate tier's accuracy
// contract at quick scale, per built-in policy: warm the library with
// that policy's own traced run, and the estimate for the same spec is
// exact on stalls and PagesMigrated (matching replay = recorded
// executed costs) and within EstimateTolerance by construction. The
// non-migrating policies additionally estimate correctly from a
// migrating policy's trace (their replays emit no actions), and a
// migrating policy asked of a foreign trace is a clean miss — the
// accuracy gate that keeps every served estimate inside tolerance.
func TestEstimateAccuracyAcrossPolicies(t *testing.T) {
	lib, err := OpenTraceLibrary(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := traceSpec()

	for _, pol := range Policies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			// Re-warming replaces the neighborhood's resident trace; the
			// estimator must pick up the new generation without help.
			live := warmLibrary(t, lib, pol, spec)
			p := New(WithScale(Quick), WithSeed(11), WithPolicy(pol), WithTraceLibrary(lib))
			est, ok := p.Estimate(spec)
			if !ok {
				t.Fatalf("estimate missed on a warm library (key %s)", p.SpecKey(spec))
			}
			checkEstimate(t, pol.String(), est, live, true)
			if !est.Estimate.MatchesRecorded || est.Estimate.Confidence != 1 {
				t.Errorf("same-policy estimate: MatchesRecorded=%v Confidence=%v",
					est.Estimate.MatchesRecorded, est.Estimate.Confidence)
			}
			if est.Estimate.SourceKey != p.SpecKey(spec) {
				t.Errorf("estimate source = %q, want %q", est.Estimate.SourceKey, p.SpecKey(spec))
			}
			if st := p.EstimateStats(); st.Hits == 0 {
				t.Errorf("estimator stats counted no hit: %+v", st)
			}
		})
	}

	t.Run("cross-policy", func(t *testing.T) {
		// The library now holds the wear-level trace (last warmed).
		// Non-migrating policies estimate from it exactly; a different
		// migrating policy is gated to a miss rather than served a
		// wrong answer (measured error without the gate: ~0.95).
		for _, pol := range []Policy{Static, FirstTouch} {
			p := New(WithScale(Quick), WithSeed(11), WithPolicy(pol), WithTraceLibrary(lib))
			est, ok := p.Estimate(spec)
			if !ok {
				t.Fatalf("%s: non-migrating estimate missed a warm library", pol)
			}
			live, err := New(WithScale(Quick), WithSeed(11), WithPolicy(pol)).
				Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			checkEstimate(t, "wear-level-trace/"+pol.String(), est, live, true)
		}
		p := New(WithScale(Quick), WithSeed(11), WithPolicy(WriteThreshold), WithTraceLibrary(lib))
		if est, ok := p.Estimate(spec); ok {
			t.Errorf("write-threshold estimate served from a wear-level trace: %+v", est.Estimate)
		}
		if st := p.EstimateStats(); st.Misses == 0 {
			t.Errorf("gated estimate not counted as a miss: %+v", st)
		}
	})

	t.Run("knob-variation", func(t *testing.T) {
		// The autotuner's validated path: same policy kind, different
		// knobs, priced from one trace within tolerance.
		warmLibrary(t, lib, WriteThreshold, spec)
		knobs := PolicyConfig{Kind: WriteThreshold, HotWriteLines: 8192}
		p := New(WithScale(Quick), WithSeed(11), WithPolicyConfig(knobs), WithTraceLibrary(lib))
		est, ok := p.Estimate(spec)
		if !ok {
			t.Fatal("knob-variation estimate missed a warm library")
		}
		live, err := New(WithScale(Quick), WithSeed(11), WithPolicyConfig(knobs)).
			Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		checkEstimate(t, "hot=8192", est, live, false)
		if est.Estimate.Confidence >= 1 {
			t.Errorf("diverging replay kept confidence %v", est.Estimate.Confidence)
		}
	})
}

// TestEstimateIsSideChannel pins the provably-side-channel property:
// attaching a trace library (and estimating from it) leaves Run's
// output bit-identical to a platform that has never heard of the
// estimate tier, and estimated Results never enter the cache.
func TestEstimateIsSideChannel(t *testing.T) {
	ctx := context.Background()
	lib, err := OpenTraceLibrary(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := traceSpec()
	warmLibrary(t, lib, WriteThreshold, spec)

	p := New(WithScale(Quick), WithSeed(11), WithPolicy(WriteThreshold), WithTraceLibrary(lib))
	if _, ok := p.Estimate(spec); !ok {
		t.Fatal("estimate missed on a warm library")
	}
	if st := p.CacheStats(); st.Entries != 0 || st.Misses != 0 {
		t.Errorf("estimate polluted the result cache: %+v", st)
	}
	if _, ok := p.Peek(spec); ok {
		t.Error("estimated Result visible through Peek")
	}

	withLib, err := p.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(WithScale(Quick), WithSeed(11), WithPolicy(WriteThreshold)).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withLib, plain) {
		t.Errorf("Run diverged with a trace library attached\nwith:  %+v\nplain: %+v", withLib, plain)
	}
	if withLib.Estimated || withLib.Estimate != nil {
		t.Errorf("live Run tagged as estimated: %+v", withLib)
	}
}

// TestResidentTraceAutotune: a grid priced from the estimate tier's
// decoded-trace cache equals Autotune over the resident trace's bytes.
// Grids and estimates share the cache concurrently: the trace is
// decoded once, and only the estimates count as hits. A neighborhood
// with no resident trace fails with the library's not-found error.
func TestResidentTraceAutotune(t *testing.T) {
	ctx := context.Background()
	lib, err := OpenTraceLibrary(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := traceSpec()
	warmLibrary(t, lib, WriteThreshold, spec)
	p := New(WithScale(Quick), WithSeed(11), WithTraceLibrary(lib))

	if _, err := p.ResidentTrace(RunSpec{AppName: "pmd", Collector: KGN}); !errors.Is(err, library.ErrNotFound) {
		t.Fatalf("ResidentTrace of an empty neighborhood: %v, want library.ErrNotFound", err)
	}
	grid := KnobGrid{Policy: WriteThreshold, HotWriteLines: []uint64{64, 256, 1024},
		ColdWriteLines: []uint64{0, 16, 64}}
	tr, err := lib.Get(p.SpecKey(spec))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Autotune(ctx, bytes.NewReader(tr.Bytes()), grid)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 1 {
				if _, ok := p.With(WithPolicy(WriteThreshold)).Estimate(spec); !ok {
					t.Error("estimate missed on a warm library")
				}
				return
			}
			rt, err := p.ResidentTrace(spec)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := rt.Autotune(ctx, grid)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("resident-trace report differs from Autotune over the bytes (err %v)\n got %+v\nwant %+v", err, got, want)
			}
		}()
	}
	wg.Wait()
	if st := p.EstimateStats(); st != (EstimateStats{Hits: 2, Loads: 1}) {
		t.Errorf("estimate stats = %+v, want the two estimates' hits and one load", st)
	}
}
