// Package experiments contains one driver per table and figure of the
// paper's evaluation (Tables I–III, Figures 3–8) plus the ablation
// studies of the platform's design (docs/architecture.md). Each one
// expresses its grid of
// platform runs against the public hybridmem.Platform engine: shared
// configurations (e.g. the 1-instance PCM-Only runs of Figs 4, 5, and
// 6) are served from the platform's result cache, and the wide grids
// are prefetched through RunBatch so they execute in parallel across
// host cores.
//
// Reproduction targets the paper's *shape* — orderings, ratios,
// crossovers — not absolute counts: the substrate is a software model
// of the platform, and the workloads are calibrated stand-ins (see
// docs/architecture.md). The paper's values sit in comments beside the
// code that reproduces them; no file records paper vs measured yet.
package experiments

import (
	"context"

	hybridmem "repro"
	"repro/internal/workloads"
	"repro/internal/workloads/dacapo"
)

// Scale selects input sizes (re-exported from the public facade for
// the drivers' callers).
type Scale = hybridmem.Scale

// Experiment scales.
const (
	// Quick is quarter-scale for tests and benches.
	Quick = hybridmem.Quick
	// Std is the standard reproduction scale.
	Std = hybridmem.Std
	// Full is the paper's scale.
	Full = hybridmem.Full
)

// Config parameterizes an experiment run.
type Config struct {
	Scale Scale
	Seed  uint64
	// Parallelism caps RunBatch workers (0 = one per core).
	Parallelism int
	// StoreDir attaches a durable result store (hybridmem.WithStore):
	// regenerating the same figures twice recomputes nothing, and an
	// interrupted regeneration resumes where it stopped.
	StoreDir string
	// Policy is the platform's placement policy (Static reproduces
	// the paper; other policies re-run the grids under dynamic
	// placement). The policy-comparison ablation sweeps all policies
	// regardless.
	Policy hybridmem.Policy
}

// dacapoApps returns the DaCapo names an experiment iterates: a
// representative trio in Quick mode, a five-app subset at Std (the
// multiprogrammed figures multiply every run by up to 4x), and the
// full suite at Full scale.
func (c Config) dacapoApps() []string {
	switch c.Scale {
	case Quick:
		return []string{"lusearch", "xalan", "pmd"}
	case Std:
		return []string{"lusearch", "xalan", "pmd", "bloat", "avrora"}
	default:
		return dacapo.Names()
	}
}

// Runner drives the experiment grids through one shared Platform, so
// every driver reuses the runs the others already executed. Driver
// methods take a context; cancelling it stops the underlying batches.
type Runner struct {
	cfg Config
	p   *hybridmem.Platform
}

// NewRunner returns a runner for the configuration.
func NewRunner(cfg Config) *Runner {
	opts := []hybridmem.Option{
		hybridmem.WithScale(cfg.Scale),
		hybridmem.WithSeed(cfg.Seed + 1),
		hybridmem.WithParallelism(cfg.Parallelism),
	}
	if cfg.Policy != hybridmem.Static {
		opts = append(opts, hybridmem.WithPolicy(cfg.Policy))
	}
	if cfg.StoreDir != "" {
		opts = append(opts, hybridmem.WithStore(cfg.StoreDir))
	}
	return &Runner{cfg: cfg, p: hybridmem.New(opts...)}
}

// CacheStats reports the shared platform cache behind all drivers —
// how much of a regeneration was computed vs replayed.
func (r *Runner) CacheStats() hybridmem.CacheStats { return r.p.CacheStats() }

// at returns the platform for a pipeline mode.
func (r *Runner) at(mode hybridmem.Mode) *hybridmem.Platform {
	if mode == hybridmem.Emulation {
		return r.p
	}
	return r.p.With(hybridmem.WithMode(mode))
}

// emul runs one managed emulation.
func (r *Runner) emul(ctx context.Context, appName string, kind hybridmem.Collector, instances int, ds workloads.Dataset) (hybridmem.Result, error) {
	return r.p.Run(ctx, hybridmem.RunSpec{
		AppName: appName, Collector: kind, Instances: instances, Dataset: ds,
	})
}

// sim runs one managed simulation (Sniper pipeline).
func (r *Runner) sim(ctx context.Context, appName string, kind hybridmem.Collector) (hybridmem.Result, error) {
	return r.at(hybridmem.Simulation).Run(ctx, hybridmem.RunSpec{AppName: appName, Collector: kind})
}

// reference runs the Table II reference setup: PCM-Only bindings with
// threads on socket 0, isolating system-level S0 effects.
func (r *Runner) reference(ctx context.Context, mode hybridmem.Mode, appName string) (hybridmem.Result, error) {
	return r.at(mode).With(hybridmem.WithThreadSocket(0)).Run(ctx,
		hybridmem.RunSpec{AppName: appName, Collector: hybridmem.PCMOnly})
}

// prefetch warms the platform cache for a grid of specs in parallel;
// the drivers then read the same runs back sequentially as cache hits.
func (r *Runner) prefetch(ctx context.Context, specs []hybridmem.RunSpec) error {
	_, err := r.p.RunBatch(ctx, specs...)
	return err
}

// suiteApps maps each suite to the evaluation's application names.
func (r *Runner) suiteApps(s workloads.Suite) []string {
	switch s {
	case workloads.DaCapo:
		return r.cfg.dacapoApps()
	case workloads.Pjbb:
		return []string{"pjbb"}
	default:
		return []string{"PR", "CC", "ALS"}
	}
}

// allApps lists every application in the evaluation.
func (r *Runner) allApps() []string {
	var names []string
	names = append(names, r.cfg.dacapoApps()...)
	names = append(names, "pjbb", "PR", "CC", "ALS")
	return names
}
