// Package hybridmem is a platform for emulating and evaluating hybrid
// DRAM–PCM memory for managed languages, reproducing Akram, Sartor,
// McKinley & Eeckhout, "Emulating and Evaluating Hybrid Memory for
// Managed Languages on NUMA Hardware" (ISPASS 2019).
//
// The platform models the paper's two-socket NUMA server — socket 0's
// memory plays DRAM, socket 1's plays PCM — together with the software
// stack the paper builds on it: an OS layer (page tables, mmap/mbind,
// page zeroing, scheduling), a Jikes-RVM-style managed runtime with
// the paper's dual-free-list hybrid heap, the write-rationing
// Kingsguard collectors (KG-N, KG-B, KG-W and their LOO/MDO variants),
// a malloc/free runtime for the C++ comparisons, the pcm-memory-style
// write-rate monitor, and the paper's benchmark suites (11 DaCapo
// applications, pjbb2005, and a GraphChi engine running PageRank,
// Connected Components, and ALS).
//
// Experiments run through a Platform, constructed once and reused:
//
//	p := hybridmem.New(
//		hybridmem.WithScale(hybridmem.Quick),
//		hybridmem.WithSeed(7),
//	)
//	res, err := p.Run(ctx, hybridmem.RunSpec{
//		AppName:   "lusearch",
//		Collector: hybridmem.KGW,
//	})
//	// res.PCMWriteLines, res.PCMRateMBs(), ...
//
// Each Run executes the paper's replay-compilation methodology: a
// warmup iteration, a barrier, then a measured iteration whose socket
// write counters and simulated time produce PCM write counts and rates
// (MB/s). Results are deterministic for a given seed, and the Platform
// memoizes them: identical configurations run once, concurrent callers
// share the in-flight run.
//
// The paper's evaluation is thousands of such runs. RunBatch executes
// independent experiments in parallel across host cores, and Sweep
// enumerates the grids declaratively:
//
//	sweep := hybridmem.NewSweep("lusearch", "pmd", "xalan").
//		Collectors(hybridmem.Collectors()...).
//		Instances(1, 2, 4)
//	results, err := p.RunSweep(ctx, sweep)
//
// Derived platforms share the result cache, so sensitivity studies
// vary one knob without re-running the rest:
//
//	ref, err := p.With(hybridmem.WithThreadSocket(0)).Run(ctx, spec)
//
// The in-memory cache dies with the process; WithStore adds a durable
// second tier — an append-only, content-addressed store of Results
// keyed by SpecKey — so lookups fall through memory → disk → compute
// and a restarted process replays finished grids from disk instead of
// recomputing them:
//
//	p := hybridmem.New(hybridmem.WithScale(hybridmem.Std),
//		hybridmem.WithStore("results.d"))
//
// The experiment drivers that regenerate every table and figure of the
// paper live in internal/experiments and are exposed through the
// benchmarks in bench_test.go and the cmd/paperfigs command
// (incrementally, with -store). cmd/hybridserved serves the whole
// engine over HTTP so many clients share one platform and its store.
package hybridmem

import (
	"context"
	"fmt"
	"io"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/jvm"
	"repro/internal/lifetime"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/all"
)

// Collector is a garbage-collector configuration (the paper's plans).
type Collector = jvm.Kind

// The seven write-rationing configurations plus the PCM-Only baseline.
const (
	// PCMOnly is generational Immix with every space on the PCM
	// socket.
	PCMOnly = jvm.PCMOnly
	// KGN is Kingsguard-nursery: the nursery lives in DRAM.
	KGN = jvm.KGN
	// KGB is KG-N with a 3x nursery.
	KGB = jvm.KGB
	// KGNLOO is KG-N plus the Large Object Optimization.
	KGNLOO = jvm.KGNLOO
	// KGBLOO is KG-B plus the Large Object Optimization.
	KGBLOO = jvm.KGBLOO
	// KGW is Kingsguard-writers: observer-based write monitoring with
	// LOO and MDO.
	KGW = jvm.KGW
	// KGWNoLOO is KG-W without the Large Object Optimization.
	KGWNoLOO = jvm.KGWNoLOO
	// KGWNoMDO is KG-W without the MetaData Optimization.
	KGWNoMDO = jvm.KGWNoMDO
)

// Mode selects the evaluation pipeline.
type Mode = core.Mode

// The paper's two methodologies.
const (
	// Emulation includes the OS and monitor effects of the real
	// platform.
	Emulation = core.Emulation
	// Simulation is the Sniper-style exact pipeline.
	Simulation = core.Simulation
)

// RunSpec selects one experiment (application, collector, instances,
// dataset, native).
type RunSpec = core.RunSpec

// Result is the measured iteration's outcome. It round-trips through
// JSON via EncodeResult and DecodeResult.
type Result = core.Result

// EstimateInfo annotates an estimated Result (Result.Estimated) with
// its provenance: the library trace it was replayed from, the policy
// it was priced under, and the Confidence/Tolerance accuracy bound.
type EstimateInfo = core.EstimateInfo

// Dataset selects default or large inputs.
type Dataset = workloads.Dataset

// Input datasets.
const (
	// Default is the paper's default input (e.g. 1M edges).
	Default = workloads.Default
	// Large is the large input (e.g. 10M edges).
	Large = workloads.Large
)

// App is a benchmark application.
type App = workloads.App

// Apps returns the registry names of the paper's 15 benchmarks.
func Apps() []string { return all.Names() }

// NewApp returns a fresh instance of a named benchmark (nil if
// unknown).
func NewApp(name string) App { return all.New(name) }

// Collectors returns all eight collector configurations in the
// paper's order.
func Collectors() []Collector {
	return []Collector{PCMOnly, KGN, KGB, KGNLOO, KGBLOO, KGW, KGWNoLOO, KGWNoMDO}
}

// Policy is a dynamic-placement policy: it runs at GC-safepoint
// quanta and decides, per page group of the managed heap, which
// emulated tier (DRAM or PCM) backs it. Static — the default — is the
// paper's plan-time tiering with the engine disabled entirely.
type Policy = policy.Kind

// The built-in placement policies.
const (
	// Static fixes every tier at plan construction (the paper's
	// behavior, bit-identical to a platform without the engine).
	Static = policy.Static
	// FirstTouch leaves heap placement to the OS default: pages land
	// on the node local to the first-touching thread.
	FirstTouch = policy.FirstTouch
	// WriteThreshold promotes write-hot PCM page groups to DRAM and
	// demotes cold DRAM groups under memory pressure.
	WriteThreshold = policy.WriteThreshold
	// WearLevel rotates the most-worn PCM page groups onto fresh
	// frames using the devices' wear histograms.
	WearLevel = policy.WearLevel
)

// Policies returns the built-in placement policies in a stable order:
// kind order, static first. CLI help, GET /v1/policies, and the
// policy-major sweep layout all depend on this order not changing.
func Policies() []Policy {
	return []Policy{Static, FirstTouch, WriteThreshold, WearLevel}
}

// PolicyConfig is a placement policy together with its knob values:
// WriteThreshold's HotWriteLines / ColdWriteLines / DRAMBudgetPages,
// WearLevel's WearFactor, and the shared MaxGroupsPerQuantum bound.
// Zero knobs resolve to the registry defaults (Config.WithDefaults);
// the zero value is Static with no knobs, today's default platform.
// Inject a configuration with WithPolicyConfig, sweep configurations
// live with Sweep.Knobs, and search them offline with Autotune.
type PolicyConfig = policy.Config

// KnobGrid enumerates a placement-policy knob space: the cartesian
// product of the listed values per knob, with empty dimensions held at
// their registry defaults. Autotune replays a recorded trace once per
// grid point. Grids validate before any work: duplicate values,
// dimensions the policy never reads, and products past
// MaxKnobGridPoints are rejected.
type KnobGrid = autotune.Grid

// MaxKnobGridPoints bounds one Autotune search's cartesian product;
// KnobGrid.Validate rejects larger grids before any replay runs.
const MaxKnobGridPoints = autotune.MaxGridPoints

// KnobPoint is one evaluated knob configuration: the knobs, the
// replay's cost model for them (estimated stalls, pages migrated, PCM
// write placement and its reduction vs the no-migration baseline), and
// its Pareto-frontier standing.
type KnobPoint = autotune.Point

// AutotuneReport is one knob-grid search over one recorded trace:
// every evaluated point in grid order, the Pareto-optimal frontier
// (minimize stall cycles, minimize PCM writes; dominated points
// excluded, exact ties kept, stable order), and the recommended knob
// set — the frontier point closest to the grid's ideal in normalized
// objective space.
type AutotuneReport = autotune.Report

// EstimateTolerance is the relative error the offline cost model is
// allowed against a live run of the same knob point (see
// internal/autotune); paperfigs' autotune step and the CI smoke test
// enforce it.
const EstimateTolerance = autotune.EstimateTolerance

// ReplayStats is the outcome of re-driving a placement policy over a
// recorded trace, entirely offline: replayed quanta and actions,
// migration and stall totals (the recorded executed costs wherever the
// replayed decisions match the recorded ones, estimates priced with
// the recorded cost constants where they diverge), the
// PCM-write-placement estimates, and whether the replay reproduced the
// recorded action stream bit-identically.
type ReplayStats = trace.ReplayStats

// ReplayTrace re-drives a built-in policy over a trace recorded with
// WithTrace (or hybridemu -trace), without constructing a machine,
// kernel, or runtime. Replaying the policy that recorded the trace
// reproduces the recorded action stream bit-identically
// (ReplayStats.MatchesRecorded); replaying a different policy
// estimates how it would have placed the recorded heat.
//
// A version-skewed trace fails with ErrTraceVersion. A corrupt trace
// fails with ErrTraceCorrupt naming the offending line, and the
// returned stats still cover the valid prefix before it.
func ReplayTrace(r io.Reader, pol Policy) (ReplayStats, error) {
	if pol < policy.Static || pol >= policy.NumKinds {
		return ReplayStats{}, fmt.Errorf("%w: Kind(%d)", ErrUnknownPolicy, int(pol))
	}
	pl, err := policy.NewPolicy(pol.String())
	if err != nil {
		return ReplayStats{}, err
	}
	return trace.Replay(r, pl)
}

// ReplayTraceWith is ReplayTrace with the policy knobs injected per
// call instead of taken from the trace header: cfg.Kind selects the
// policy and the remaining knobs parameterize its decisions, so one
// recorded trace prices arbitrary knob settings offline. Replaying the
// recorded policy with exactly the recorded knobs still reproduces the
// recorded action stream and costs bit-identically; any other
// configuration yields knob-priced estimates.
func ReplayTraceWith(r io.Reader, cfg PolicyConfig) (ReplayStats, error) {
	if cfg.Kind < policy.Static || cfg.Kind >= policy.NumKinds {
		return ReplayStats{}, fmt.Errorf("%w: Kind(%d)", ErrUnknownPolicy, int(cfg.Kind))
	}
	pl, err := policy.NewPolicy(cfg.Kind.String())
	if err != nil {
		return ReplayStats{}, err
	}
	return trace.ReplayWith(r, pl, cfg)
}

// Autotune searches a placement-policy knob grid against one recorded
// trace, entirely offline: every grid point replays the trace's view
// stream with its own knob configuration (ReplayTraceWith), is scored
// by the replay cost model, and the report carries the Pareto-optimal
// frontier on (migration stalls, PCM write placement) plus a
// recommended knob set. One emulator run therefore prices a whole
// grid — a 3x3x3 sweep costs 27 replays instead of 27 emulations.
//
// Validate the winner live by running it with
// WithPolicyConfig(report.Recommended.Config()), or sweep several
// tuned points through Sweep.Knobs; where the replayed decisions
// matched the recorded stream the live Result reproduces the point's
// PagesMigrated and StallCycles exactly, elsewhere the estimates are
// bounded by EstimateTolerance.
//
// ctx cancels between grid points. On a corrupt trace every point
// prices the same valid prefix and Autotune returns the prefix report
// with ErrTraceCorrupt; a version-skewed trace fails up front with
// ErrTraceVersion.
func Autotune(ctx context.Context, r io.Reader, grid KnobGrid) (AutotuneReport, error) {
	return autotune.Run(ctx, r, grid)
}

// Scale selects experiment input sizes.
type Scale int

// Experiment scales.
const (
	// Quick is CI-sized: quarter-scale allocation profiles and
	// LLC-sized graphs.
	Quick Scale = iota
	// Std is the standard reproduction scale: full DaCapo profiles,
	// 1M-edge graphs, 4x large datasets.
	Std
	// Full is the paper's scale (10x large datasets; slow).
	Full
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Std:
		return "std"
	default:
		return "full"
	}
}

// graphEdges returns the default GraphChi dataset size for the scale.
// Std and Full both use the paper's 1M edges: smaller graphs fit the
// 20 MB LLC entirely and lose the cache effects the paper measures;
// they differ in the large-dataset multiplier (4x vs the paper's 10x)
// to bound Fig 8's cost.
func (s Scale) graphEdges() int {
	if s == Quick {
		return 150_000
	}
	return 1_000_000
}

// graphLargeFactor is the large-dataset multiplier for GraphChi.
func (s Scale) graphLargeFactor() int {
	if s == Full {
		return 10
	}
	return 4
}

// allocScale shrinks the profile apps' iteration volume in Quick mode.
func (s Scale) allocScale() float64 {
	if s == Quick {
		return 0.25
	}
	return 1
}

// ScaledApps returns an application factory with inputs sized for the
// given scale. Platforms built with WithScale install it
// automatically; it remains public for callers that assemble their own
// factories.
func ScaledApps(s Scale) func(name string) App {
	return scaledFactory(s)
}

// LifetimeYears evaluates the paper's Equation 1: the expected PCM
// lifetime in years for a memory of sizeBytes with per-cell endurance,
// written at rateMBs, under 50% wear-leveling efficiency.
func LifetimeYears(sizeBytes uint64, endurance, rateMBs float64) float64 {
	return lifetime.YearsFromMBs(sizeBytes, endurance, rateMBs,
		lifetime.DefaultWearLevelingEfficiency)
}

// RecommendedRateMBs is the paper's 140 MB/s sustained-write limit
// (a 375 GB prototype rated at 30 drive-writes-per-day).
func RecommendedRateMBs() float64 {
	return lifetime.PaperRecommendedRateMBs()
}
