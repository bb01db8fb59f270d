package hybridmem_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation plus the ablation studies, each built by
// internal/experiments (docs/architecture.md describes the stack they
// run on). One benchmark iteration runs
// the complete experiment at Quick scale; custom metrics report the
// headline quantities so `go test -bench` output doubles as a compact
// reproduction report. cmd/paperfigs renders the same experiments at
// Std/Full scale.
//
// BenchmarkSweepSerial vs BenchmarkSweepRunBatch demonstrates the
// Platform's worker pool: the same 3-app x 8-collector grid executed
// one-at-a-time and across all host cores.

import (
	"context"
	"testing"

	hybridmem "repro"
	"repro/internal/experiments"
)

// ctx is the default context for driver calls in benchmarks.
var ctx = context.Background()

func quickRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Config{Scale: experiments.Quick, Seed: 1})
}

// sweepGrid is the 3-app x 8-collector acceptance sweep.
func sweepGrid() []hybridmem.RunSpec {
	return hybridmem.NewSweep("lusearch", "xalan", "pmd").
		Collectors(hybridmem.Collectors()...).Specs()
}

// BenchmarkSweepSerial runs the grid one experiment at a time on a
// fresh platform (no cache reuse between iterations).
func BenchmarkSweepSerial(b *testing.B) {
	specs := sweepGrid()
	for i := 0; i < b.N; i++ {
		p := hybridmem.New(hybridmem.WithScale(hybridmem.Quick), hybridmem.WithParallelism(1))
		if _, err := p.RunBatch(context.Background(), specs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs)), "experiments/op")
}

// BenchmarkSweepRunBatch runs the same grid through the worker pool,
// one worker per available core.
func BenchmarkSweepRunBatch(b *testing.B) {
	specs := sweepGrid()
	for i := 0; i < b.N; i++ {
		p := hybridmem.New(hybridmem.WithScale(hybridmem.Quick))
		if _, err := p.RunBatch(context.Background(), specs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs)), "experiments/op")
}

// BenchmarkTableI regenerates the space-to-socket mapping (Table I).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.RenderTableI() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableII regenerates the emulation-vs-simulation validation
// (Table II): PCM-write reductions of KG-N/KG-B/KG-W in both
// pipelines.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		res, err := r.TableII(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].EmulReduction, "KGN-emul-red-%")
		b.ReportMetric(res.Rows[2].EmulReduction, "KGW-emul-red-%")
		b.ReportMetric(res.Rows[2].SimReduction, "KGW-sim-red-%")
	}
}

// BenchmarkTableIII regenerates the PCM lifetime table.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		res, err := r.TableIII(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Years[0][0][0], "N1-P1-PCMOnly-years")
		b.ReportMetric(res.Years[1][0][1], "N4-P1-KGW-years")
	}
}

// BenchmarkFig3 regenerates the C++-vs-Java comparison (Fig 3).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		rows, err := r.Fig3(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AllocRatio, "PR-alloc-Java/C++")
	}
}

// BenchmarkFig4 regenerates the multiprogrammed write growth (Fig 4).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		res, err := r.Fig4(ctx)
		if err != nil {
			b.Fatal(err)
		}
		all := res.PCMOnly[len(res.PCMOnly)-1]
		b.ReportMetric(all.Growth[2], "PCMOnly-all-x4")
		allW := res.KGW[len(res.KGW)-1]
		b.ReportMetric(allW.Growth[2], "KGW-all-x4")
	}
}

// BenchmarkFig5 regenerates the suite comparison (Fig 5).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		res, err := r.Fig5(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WritesRel[1][0], "GraphChi/DaCapo-writes")
		b.ReportMetric(res.RatesRel[1][0], "GraphChi/DaCapo-rate")
	}
}

// BenchmarkFig6 regenerates the per-application write rates (Fig 6).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		rows, _, err := r.Fig6(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, row := range rows {
			if row.RateMBs[0] > worst {
				worst = row.RateMBs[0]
			}
		}
		b.ReportMetric(worst, "worst-PCMOnly-MB/s")
	}
}

// BenchmarkFig7 regenerates the Kingsguard study on GraphChi (Fig 7).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		rows, err := r.Fig7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Norm[0], "PR-KGN-norm")
		b.ReportMetric(rows[0].Norm[4], "PR-KGW-norm")
	}
}

// BenchmarkFig8 regenerates the dataset-size study (Fig 8).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		rows, err := r.Fig8(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].WriteRatio, "writes-large/default")
	}
}

// BenchmarkAblationL3Size sweeps the shared-cache size: the paper's
// 81%-vs-4% KG-N sensitivity.
func BenchmarkAblationL3Size(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		res, err := r.AblationL3(ctx, []int{4, 20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReductionPct[0], "KGN-red-4MB-%")
		b.ReportMetric(res.ReductionPct[1], "KGN-red-20MB-%")
	}
}

// BenchmarkAblationObserver sweeps KG-W's observer sizing.
func BenchmarkAblationObserver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		if _, err := r.AblationObserver(ctx, []int{1, 2, 4}, "pmd"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNursery compares GraphChi under 4 MB vs 32 MB
// nurseries.
func BenchmarkAblationNursery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		res, err := r.AblationNursery(ctx, []int{4, 32})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Seconds[0]/res.Seconds[1], "time-4MB/32MB")
	}
}

// BenchmarkAblationMonitorSocket compares monitor placement.
func BenchmarkAblationMonitorSocket(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		res, err := r.AblationMonitorSocket(ctx, "pmd")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.PCMWrites[1])/float64(res.PCMWrites[0]), "S1/S0-contamination")
	}
}

// BenchmarkAblationFreeLists compares the dual recycling free lists
// with the rejected monolithic unmap-on-free design.
func BenchmarkAblationFreeLists(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner()
		res, err := r.AblationFreeLists(ctx, "pmd")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Seconds[1]/res.Seconds[0], "unmap/recycle-time")
	}
}
