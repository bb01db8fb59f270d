// Command hybridemu runs a single hybrid-memory experiment on the
// emulation platform and reports the measured iteration's PCM/DRAM
// traffic, write rates, and PCM lifetime projection.
//
// Usage:
//
//	hybridemu -app lusearch -gc KG-W [-instances 4] [-dataset large]
//	          [-mode emul|sim] [-native] [-l3mb 20] [-scale quick|std|full]
//	          [-policy static|first-touch|write-threshold|wear-level]
//	          [-store DIR] [-trace out.ndjson]
//
// -trace records the run's per-quantum placement trace (views, policy
// actions, executed migration costs) as versioned ndjson; replay it
// offline with cmd/policyreplay. A traced run always computes — the
// result cache and store are bypassed — and an unwritable trace path
// exits 2 before any work runs.
//
// Bad flag values exit with status 2 and the platform's typed-error
// message (unknown application, unknown collector, ...); run failures
// exit with status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	hybridmem "repro"
	"repro/internal/lifetime"
)

func main() {
	app := flag.String("app", "lusearch", "benchmark name (see -list)")
	gcName := flag.String("gc", "KG-W", "collector: PCM-Only, KG-N, KG-B, KG-N+LOO, KG-B+LOO, KG-W, KG-W-LOO, KG-W-MDO")
	instances := flag.Int("instances", 1, "multiprogramming degree (1, 2, 4)")
	dataset := flag.String("dataset", "default", "default or large")
	mode := flag.String("mode", "emul", "emul or sim")
	native := flag.Bool("native", false, "run the C++ implementation (GraphChi apps)")
	l3mb := flag.Int("l3mb", 0, "override the shared L3 size in MB; sizes that do not split into whole 20-way sets halve the ways until they do (4 MB is modelled 2-way)")
	scale := flag.String("scale", "std", "input scale: quick, std, or full")
	policyName := flag.String("policy", "static", "placement policy: static, first-touch, write-threshold, wear-level")
	seed := flag.Uint64("seed", 1, "workload seed")
	storeDir := flag.String("store", "", "durable result store directory: identical reruns replay from disk")
	tracePath := flag.String("trace", "", "record the per-quantum placement trace to this ndjson file (see policyreplay)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()

	// Bad flag values exit 2 with the platform's typed-error message;
	// nothing below panics or dumps usage on user input.
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "hybridemu: %v\n", err)
		os.Exit(2)
	}

	sc, err := hybridmem.ParseScale(*scale)
	if err != nil {
		fail(err)
	}

	if *list {
		for _, n := range hybridmem.Apps() {
			fmt.Println(n)
		}
		return
	}

	kind, err := hybridmem.ParseCollector(*gcName)
	if err != nil {
		fail(err)
	}
	ds, err := hybridmem.ParseDataset(*dataset)
	if err != nil {
		fail(err)
	}
	md, err := hybridmem.ParseMode(*mode)
	if err != nil {
		fail(err)
	}
	pol, err := hybridmem.ParsePolicy(*policyName)
	if err != nil {
		fail(err)
	}
	if *instances < 1 {
		fail(fmt.Errorf("-instances must be at least 1, got %d", *instances))
	}
	if *native && pol != hybridmem.Static {
		// Native runs have no GC safepoints for the engine to hook;
		// say so instead of printing a policy that had no effect.
		fmt.Fprintf(os.Stderr, "hybridemu: note: -policy %s is ignored for native runs\n", pol)
		pol = hybridmem.Static
	}

	opts := []hybridmem.Option{
		hybridmem.WithScale(sc),
		hybridmem.WithSeed(*seed),
		hybridmem.WithMode(md),
		hybridmem.WithPolicy(pol),
	}
	if *l3mb > 0 {
		opts = append(opts, hybridmem.WithL3MB(*l3mb))
	}
	if *storeDir != "" {
		opts = append(opts, hybridmem.WithStore(*storeDir))
	}
	p := hybridmem.New(opts...)

	spec := hybridmem.RunSpec{
		AppName:   *app,
		Collector: kind,
		Instances: *instances,
		Dataset:   ds,
		Native:    *native,
	}
	if err := p.Validate(spec); err != nil {
		fail(fmt.Errorf("%w (see -list)", err))
	}

	var traceFile *os.File
	if *tracePath != "" {
		// Opened only after the spec validates: an unwritable path is
		// a flag mistake that exits 2 before any platform work, and a
		// bad -app/-gc must not truncate a previously recorded trace.
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(fmt.Errorf("opening -trace file: %w", err))
		}
		traceFile = f
		p = p.With(hybridmem.WithTrace(f))
	}

	res, err := p.Run(context.Background(), spec)
	if err != nil {
		// Typed spec errors are the caller's fault (exit 2); everything
		// else is a platform failure (exit 1).
		code := 1
		if errors.Is(err, hybridmem.ErrUnknownApp) || errors.Is(err, hybridmem.ErrUnknownCollector) {
			code = 2
		}
		fmt.Fprintf(os.Stderr, "hybridemu: %v\n", err)
		os.Exit(code)
	}

	lang := "Java"
	if *native {
		lang = "C++"
	}
	fmt.Printf("%s %s x%d (%s, %s, %s scale", lang, *app, *instances, kind, md, sc)
	if pol != hybridmem.Static {
		fmt.Printf(", %s policy", pol)
	}
	fmt.Println(")")
	fmt.Printf("  measured iteration:  %.4f s\n", res.Seconds)
	fmt.Printf("  PCM writes:          %d lines (%.2f MB)\n", res.PCMWriteLines, float64(res.PCMWriteBytes())/1e6)
	fmt.Printf("  DRAM writes:         %d lines (%.2f MB)\n", res.DRAMWriteLines, float64(res.DRAMWriteBytes())/1e6)
	fmt.Printf("  PCM write rate:      %.1f MB/s (recommended limit %.0f MB/s)\n",
		res.PCMRateMBs(), hybridmem.RecommendedRateMBs())
	fmt.Printf("  QPI traffic:         %d read / %d write lines\n", res.QPI.ReadLines, res.QPI.WriteLines)
	fmt.Printf("  tier residency:      %d DRAM / %d PCM pages\n", res.DRAMResidentPages, res.PCMResidentPages)
	if pol != hybridmem.Static {
		fmt.Printf("  pages migrated:      %d (%d stall cycles)\n", res.PagesMigrated, res.MigrationStallCycles)
	}
	if len(res.RuntimeStats) > 0 {
		s := res.RuntimeStats[0]
		fmt.Printf("  GCs (instance 0):    %d minor / %d observer / %d full\n",
			s.MinorGCs, s.ObserverGCs, s.FullGCs)
		fmt.Printf("  allocation:          %.1f MB in %d objects\n",
			float64(s.AllocBytes)/1e6, s.AllocObjects)
	}
	for _, e := range []struct {
		name string
		v    float64
	}{
		{"10M writes/cell", lifetime.Prototype1Endurance},
		{"30M writes/cell", lifetime.Prototype2Endurance},
		{"50M writes/cell", lifetime.Prototype3Endurance},
	} {
		years := hybridmem.LifetimeYears(lifetime.DefaultPCMBytes, e.v, res.PCMRateMBs())
		fmt.Printf("  lifetime @ %s: %.0f years\n", e.name, years)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hybridemu: closing trace: %v\n", err)
			os.Exit(1)
		}
		if fi, err := os.Stat(*tracePath); err == nil {
			fmt.Printf("  trace:               %s (%d bytes; replay with policyreplay -trace %s)\n",
				*tracePath, fi.Size(), *tracePath)
		}
	}
}
