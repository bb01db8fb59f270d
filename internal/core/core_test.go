package core

import (
	"errors"
	"testing"

	"repro/internal/jvm"
	"repro/internal/kernel"
	"repro/internal/workloads"
	"repro/internal/workloads/graphchi"
)

// tinyFactory returns scaled-down applications so core tests run in
// milliseconds: a small DaCapo-like profile and a small-graph PR.
func tinyFactory(name string) workloads.App {
	switch name {
	case "tiny":
		return workloads.NewProfileApp(workloads.Profile{
			AppName: "tiny", S: workloads.DaCapo,
			AllocMB: 4, MeanObj: 96, SurviveKB: 64, LongLivedMB: 2,
			LargeFrac: 0.02, LargeObjKB: 16,
			WritesPerKB: 5, MatureWriteFrac: 0.3, ReadsPerKB: 8,
			RefsPerObj: 2, PointerChurn: 0.02, ComputePerKB: 2000,
			NurseryMBv: 1, HeapMBv: 12,
			LargeScale: 2,
		})
	case "tinyPR":
		return graphchi.NewWithEdges(graphchi.PR, 150_000)
	default:
		return nil
	}
}

func tinyOpts(mode Mode) Options {
	o := DefaultOptions()
	o.Mode = mode
	o.AppFactory = tinyFactory
	o.BootMB = 2
	// The tiny test apps would vanish inside the real 20 MB L3 (no
	// writebacks at all); shrink it so leakage is observable.
	o.L3Bytes = 2 << 20
	return o
}

func TestRunBasicEmulation(t *testing.T) {
	res, err := Run(tinyOpts(Emulation), RunSpec{AppName: "tiny", Collector: jvm.KGN})
	if err != nil {
		t.Fatal(err)
	}
	if res.PCMWriteLines == 0 {
		t.Error("no PCM writes measured")
	}
	if res.Seconds <= 0 {
		t.Error("no measured time")
	}
	if len(res.RuntimeStats) != 1 || res.RuntimeStats[0].MinorGCs == 0 {
		t.Errorf("runtime stats missing: %+v", res.RuntimeStats)
	}
	if res.ZeroedPages == 0 {
		t.Error("emulation mode must include kernel page zeroing")
	}
	if res.AllocBytes[0] == 0 || res.PeakResidentBytes[0] == 0 {
		t.Error("allocation accounting missing")
	}
}

func TestSimulationModeIsNoiseFree(t *testing.T) {
	res, err := Run(tinyOpts(Simulation), RunSpec{AppName: "tiny", Collector: jvm.KGN})
	if err != nil {
		t.Fatal(err)
	}
	if res.ZeroedPages != 0 {
		t.Error("simulation mode must not model OS page zeroing")
	}
	if res.PCMWriteLines == 0 {
		t.Error("simulation still measures PCM writes")
	}
}

func TestUnknownAppFails(t *testing.T) {
	if _, err := Run(tinyOpts(Emulation), RunSpec{AppName: "nope"}); err == nil {
		t.Error("unknown app should fail")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		res, err := Run(tinyOpts(Emulation), RunSpec{AppName: "tiny", Collector: jvm.KGW})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.PCMWriteLines != b.PCMWriteLines || a.DRAMWriteLines != b.DRAMWriteLines {
		t.Errorf("same seed, different counters: %v/%v vs %v/%v",
			a.PCMWriteLines, a.DRAMWriteLines, b.PCMWriteLines, b.DRAMWriteLines)
	}
	if a.Seconds != b.Seconds {
		t.Errorf("same seed, different times: %v vs %v", a.Seconds, b.Seconds)
	}
}

func TestKGWReducesPCMWritesVsPCMOnly(t *testing.T) {
	pcmOnly, err := Run(tinyOpts(Emulation), RunSpec{AppName: "tiny", Collector: jvm.PCMOnly})
	if err != nil {
		t.Fatal(err)
	}
	kgw, err := Run(tinyOpts(Emulation), RunSpec{AppName: "tiny", Collector: jvm.KGW})
	if err != nil {
		t.Fatal(err)
	}
	if kgw.PCMWriteLines >= pcmOnly.PCMWriteLines {
		t.Errorf("KG-W PCM writes (%d) should be below PCM-Only (%d)",
			kgw.PCMWriteLines, pcmOnly.PCMWriteLines)
	}
}

func TestMultiprogrammedSuperlinearInterference(t *testing.T) {
	// Shrink the L3 so that one instance's working set fits but four
	// do not: PCM-Only writes must grow super-linearly per instance,
	// the paper's Finding 3.
	opts := tinyOpts(Emulation)
	opts.L3Bytes = 3 << 20
	one, err := Run(opts, RunSpec{AppName: "tiny", Collector: jvm.PCMOnly, Instances: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(opts, RunSpec{AppName: "tiny", Collector: jvm.PCMOnly, Instances: 4})
	if err != nil {
		t.Fatal(err)
	}
	growth := float64(four.PCMWriteLines) / float64(one.PCMWriteLines)
	if growth <= 4.0 {
		t.Errorf("PCM write growth 1->4 instances = %.2fx, want super-linear (> 4x)", growth)
	}
	if len(four.PerInstanceSeconds) != 4 {
		t.Errorf("per-instance times missing: %v", four.PerInstanceSeconds)
	}
}

func TestNativeRun(t *testing.T) {
	opts := tinyOpts(Emulation)
	opts.L3Bytes = 256 << 10 // the C++ version writes less; expose it
	res, err := Run(opts, RunSpec{AppName: "tinyPR", Native: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NativeStats) != 1 || res.NativeStats[0].Mallocs == 0 {
		t.Errorf("native stats missing: %+v", res.NativeStats)
	}
	if res.PCMWriteLines == 0 {
		t.Error("native PCM-Only run must write PCM")
	}
}

func TestTableIIReferenceSetup(t *testing.T) {
	// The paper's reference: PCM-Only bindings with threads on S0 —
	// S0 writes are then purely system-level effects.
	opts := tinyOpts(Emulation)
	opts.ThreadSocket = 0
	res, err := Run(opts, RunSpec{AppName: "tiny", Collector: jvm.PCMOnly})
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAMWriteLines == 0 {
		t.Error("reference setup should observe system-level S0 writes")
	}
	if res.PCMWriteLines < res.DRAMWriteLines {
		t.Error("program memory traffic should dominate system noise")
	}
}

func TestL3SizeSensitivity(t *testing.T) {
	// The paper's KG-N analysis: a small L3 exposes nursery writes,
	// so KG-N saves much more under a 4 MB L3 than under 20 MB.
	reduction := func(l3 int) float64 {
		opts := tinyOpts(Emulation)
		opts.L3Bytes = l3
		base, err := Run(opts, RunSpec{AppName: "tiny", Collector: jvm.PCMOnly})
		if err != nil {
			t.Fatal(err)
		}
		kgn, err := Run(opts, RunSpec{AppName: "tiny", Collector: jvm.KGN})
		if err != nil {
			t.Fatal(err)
		}
		return 100 * (1 - float64(kgn.PCMWriteLines)/float64(base.PCMWriteLines))
	}
	small := reduction(512 << 10)
	big := reduction(4 << 20)
	if small <= big {
		t.Errorf("KG-N reduction with small L3 (%.1f%%) should exceed big L3 (%.1f%%)", small, big)
	}
}

// spyApp runs the tiny profile and records the runtime it runs on.
// With cancel set, it closes cancel instead and keeps allocating until
// the kernel unwinds it at the next quantum boundary.
type spyApp struct {
	workloads.App
	rt     *jvm.Runtime
	cancel chan struct{}
}

func (a *spyApp) Run(env workloads.Env, ds workloads.Dataset, seed uint64) {
	a.rt = env.(*workloads.ManagedEnv).R
	if a.cancel == nil {
		a.App.Run(env, ds, seed)
		return
	}
	close(a.cancel)
	for {
		env.Alloc(64, 0)
	}
}

// TestRunReleasesOnlyOnSuccess checks the run lifecycle: a run that
// produced its Result has released its runtime, page table and caches,
// and a cancelled run has released none of them.
func TestRunReleasesOnlyOnSuccess(t *testing.T) {
	panics := func(use func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		use()
		return false
	}
	for _, cancel := range []bool{false, true} {
		app := &spyApp{App: tinyFactory("tiny")}
		opts := tinyOpts(Emulation)
		opts.AppFactory = func(string) workloads.App { return app }
		if cancel {
			app.cancel = make(chan struct{})
			opts.Cancel = app.cancel
		}
		_, err := Run(opts, RunSpec{AppName: "tiny", Collector: jvm.KGN})
		if cancel != errors.Is(err, kernel.ErrCancelled) {
			t.Fatalf("cancel %v: err = %v", cancel, err)
		}
		p := app.rt.Proc
		released := map[string]bool{
			"runtime":    app.rt.Table == nil,
			"page table": panics(func() { p.AS.Lookup(0) }),
			"L3":         panics(func() { p.Kernel().Machine().L3(0).Contains(0) }),
		}
		for what, r := range released {
			if r == cancel {
				t.Errorf("cancel %v: %s released = %v", cancel, what, r)
			}
		}
	}
}
