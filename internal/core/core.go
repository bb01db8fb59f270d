// Package core assembles the paper's two evaluation pipelines.
//
// Emulation (the paper's contribution) builds the full platform: the
// two-socket NUMA machine, an OS with page zeroing and background
// noise, the write-rate monitor perturbing socket 0, and SMT-capable
// scheduling — everything a real commodity server contributes to the
// measurement. Simulation is the Sniper-style validation pipeline: the
// same cache and memory model driven without an OS, without monitor
// perturbation, and without hyperthreading, reading exact counters.
// Comparing the two reproduces the paper's Table II methodology.
//
// A Run executes one experiment: N instances of one benchmark under
// one collector configuration, using replay-compilation methodology —
// iteration 1 warms up (the optimizing compiler is active), all
// instances synchronize at a barrier, counters are snapshotted, and
// iteration 2 is measured.
package core

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/jvm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/pcmmon"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/all"
)

// Mode selects the evaluation pipeline.
type Mode int

const (
	// Emulation is the NUMA-platform pipeline with OS and monitor
	// effects included.
	Emulation Mode = iota
	// Simulation is the Sniper-style pipeline: no OS, no monitor
	// noise, no SMT, exact counters.
	Simulation
)

// String names the mode.
func (m Mode) String() string {
	if m == Simulation {
		return "simulation"
	}
	return "emulation"
}

// Options configure the platform.
type Options struct {
	Mode Mode
	// Seed is handed to every workload run; equal seeds reproduce runs
	// bit-for-bit. The DaCapo and Pjbb stand-ins draw from it. The
	// GraphChi stand-ins ignore it: their graphs are seeded by app
	// kind, so their Results are equal at every seed.
	Seed uint64
	// L3Bytes overrides the 20 MB shared L3 (the paper's KG-N
	// sensitivity analysis compares 4 MB vs 20 MB). 0 = default.
	L3Bytes int
	// BaseNurseryMB overrides the suite nursery (0 = app default).
	BaseNurseryMB int
	// ObserverFactor overrides the observer:nursery ratio for KG-W
	// plans (0 = the paper's 2x).
	ObserverFactor int
	// ThreadSocket forces thread placement (-1 = plan default). The
	// Table II reference setup runs PCM-Only with threads on S0.
	ThreadSocket int
	// MonitorNode is where the write-rate monitor runs/writes (the
	// paper uses socket 0; the ablation tries socket 1).
	MonitorNode int
	// UnmapFreedChunks enables the monolithic-free-list ablation.
	UnmapFreedChunks bool
	// Policy selects the dynamic-placement policy (zero value:
	// static, the paper's plan-time tiering, engine disabled). It
	// applies to managed runs; native runs have no GC safepoints for
	// the engine to hook and ignore it.
	Policy policy.Config
	// BootMB overrides the boot-image size (0 = 48 MB). Experiments
	// that run hundreds of configurations shrink it.
	BootMB int
	// TraceSink, when non-nil, streams a versioned ndjson placement
	// trace into it: a header line, then one record per policy-engine
	// quantum carrying the view, the emitted actions, and the executed
	// costs. Tracing forces window and wear tracking on the devices
	// (pure bookkeeping — the Result is bit-identical to an untraced
	// run) and, for engine-less policies (static, first-touch), hooks
	// an observe-only engine onto the GC safepoint path so every
	// quantum is recorded. Native runs have no safepoints: their trace
	// is a header with zero quanta. The sink is written from the run's
	// single cooperative runner; one sink must serve one run at a time.
	TraceSink io.Writer
	// TraceKey is the canonical spec key stamped into the trace header
	// (the facade fills it; empty below the facade).
	TraceKey string
	// Cancel, when non-nil, aborts the run between scheduling quanta
	// once closed (pass a context's Done channel). A cancelled run
	// returns kernel.ErrCancelled and no Result; the facade maps it
	// back to the context's error. Streaming servers use this to stop
	// emulating into a client that hung up.
	Cancel <-chan struct{}
	// EdgeOverride shrinks GraphChi datasets for tests (0 = paper
	// scale). It is applied via the registry's test hooks.
	AppFactory func(name string) workloads.App
	// Obs, when non-nil, records the run's span tree (emulate →
	// plan/execute → one policy.quantum span per safepoint) and latency
	// histograms. Strictly side-channel: the Result is bit-identical
	// with or without it.
	Obs *obs.Telemetry
	// ObsParent parents the run's root span, linking it into the
	// caller's distributed trace (zero value: a fresh trace).
	ObsParent obs.SpanContext
}

// DefaultOptions returns the emulation pipeline defaults.
func DefaultOptions() Options {
	return Options{Mode: Emulation, Seed: 1, ThreadSocket: -1}
}

// RunSpec is one experiment.
type RunSpec struct {
	// AppName is a registry name ("lusearch", "pjbb", "PR", ...).
	AppName string
	// Collector is the plan kind; ignored for native runs.
	Collector jvm.Kind
	// Instances is the multiprogramming degree (1, 2, or 4 in the
	// paper).
	Instances int
	// Dataset selects default or large inputs.
	Dataset workloads.Dataset
	// Native runs the C++ version on the malloc runtime (GraphChi's
	// C++ implementations in the paper).
	Native bool
}

// Result is the measured iteration's outcome.
type Result struct {
	// DRAMWriteLines and PCMWriteLines are the socket write counters
	// over the measured iteration (the pcm-memory quantities).
	DRAMWriteLines uint64
	PCMWriteLines  uint64
	DRAMReadLines  uint64
	PCMReadLines   uint64
	// Seconds is the measured-iteration wall time: the longest
	// per-instance duration (instances run concurrently).
	Seconds float64
	// PerInstanceSeconds are the individual durations.
	PerInstanceSeconds []float64
	// RuntimeStats are per-instance JVM statistics (managed runs).
	RuntimeStats []jvm.Stats
	// NativeStats are per-instance allocator statistics (native runs).
	NativeStats []native.Stats
	// AllocBytes is total allocation per instance (memcheck analog).
	AllocBytes []uint64
	// PeakResidentBytes is the massif-style peak footprint.
	PeakResidentBytes []uint64
	// ZeroedPages counts kernel page zeroing (emulation only).
	ZeroedPages uint64
	// QPI is the cross-socket traffic.
	QPI machine.QPIStats
	// FreeListMaps/FreeListRecycles aggregate chunk-allocator events.
	FreeListMaps     uint64
	FreeListRecycles uint64
	// PagesMigrated counts pages the placement-policy engine moved
	// (cross-tier migrations plus wear-leveling rotations).
	PagesMigrated uint64
	// MigrationStallCycles is the remap + TLB-shootdown cost the
	// engine charged to the instances at safepoints.
	MigrationStallCycles uint64
	// DRAMResidentPages and PCMResidentPages are the end-of-run
	// resident pages per emulated tier, summed over instances — the
	// per-tier residency histogram.
	DRAMResidentPages uint64
	PCMResidentPages  uint64
	// Estimated marks a Result synthesized by the estimate-first
	// serving tier: replayed from a library-resident trace instead of
	// measured by the engine. Estimated Results never enter the
	// canonical result store. Both fields are omitempty so an exact
	// Result's JSON stays byte-identical to builds that predate them.
	Estimated bool `json:",omitempty"`
	// Estimate carries the estimate's provenance and error bound; nil
	// on exact Results.
	Estimate *EstimateInfo `json:",omitempty"`
}

// EstimateInfo annotates an estimated Result with where it came from
// and how far it may sit from a live run.
type EstimateInfo struct {
	// SourceKey is the canonical spec key of the recorded run whose
	// trace (and measured baseline) priced this estimate.
	SourceKey string `json:",omitempty"`
	// SourceQuanta counts the replayed quantum records.
	SourceQuanta uint64 `json:",omitempty"`
	// Policy is the replayed policy configuration's key.
	Policy string `json:",omitempty"`
	// MatchesRecorded reports that the replayed policy reproduced the
	// recorded action stream exactly — migration fields are then the
	// recorded run's executed costs, not approximations.
	MatchesRecorded bool `json:",omitempty"`
	// Confidence is 1 when MatchesRecorded, else 1-Tolerance.
	Confidence float64 `json:",omitempty"`
	// Tolerance is the relative error bound the estimate tier promises
	// (and the drift validator enforces) on the migration fields.
	Tolerance float64 `json:",omitempty"`
}

// PCMWriteBytes returns PCM write traffic in bytes.
func (r Result) PCMWriteBytes() uint64 { return r.PCMWriteLines * 64 }

// DRAMWriteBytes returns DRAM write traffic in bytes.
func (r Result) DRAMWriteBytes() uint64 { return r.DRAMWriteLines * 64 }

// TotalWriteLines returns combined memory write traffic.
func (r Result) TotalWriteLines() uint64 { return r.DRAMWriteLines + r.PCMWriteLines }

// PCMRateMBs returns the PCM write rate in MB/s.
func (r Result) PCMRateMBs() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.PCMWriteBytes()) / 1e6 / r.Seconds
}

// machineConfig builds the hardware description for the mode. native
// disables the policy engine's counters: native runs take no
// safepoints, so the tracking would cost hot-path work for nothing.
func machineConfig(opts Options, native bool) machine.Config {
	cfg := machine.DefaultConfig()
	if opts.Mode == Simulation {
		// The paper's simulated system: 8 out-of-order cores, no
		// hyperthreading, 256 KB L2, 20 MB shared L3.
		cfg.SMT = false
	}
	if opts.L3Bytes > 0 {
		cfg.L3.Bytes = opts.L3Bytes
		// Keep 20-way associativity when the size allows whole sets.
		for cfg.L3.Bytes/64%cfg.L3.Ways != 0 && cfg.L3.Ways > 1 {
			cfg.L3.Ways /= 2
		}
	}
	pc := opts.Policy.WithDefaults()
	// Tracing records complete views — window writes, reads, and wear —
	// whatever the live policy consumes, so a trace recorded under one
	// policy carries the signals any replayed policy might read. The
	// counters are pure bookkeeping: enabling them does not perturb the
	// model, so traced Results stay bit-identical to untraced ones.
	tracing := opts.TraceSink != nil && !native
	cfg.TrackWear = (!native && pc.NeedsWear()) || tracing
	cfg.TrackWindow = (!native && pc.NeedsWindow()) || tracing
	cfg.TrackWindowReads = (!native && pc.NeedsReadWindow()) || tracing
	return cfg
}

// traceHeader assembles the trace header for a run.
func traceHeader(opts Options, spec RunSpec, kc kernel.Config) trace.Header {
	h := trace.Header{
		Key:                 opts.TraceKey,
		App:                 spec.AppName,
		Instances:           spec.Instances,
		Dataset:             spec.Dataset.String(),
		Native:              spec.Native,
		Mode:                opts.Mode.String(),
		Seed:                opts.Seed,
		MigrationPageCycles: kc.MigrationPageCycles,
		TLBShootdownCycles:  kc.TLBShootdownCycles,
	}
	if !spec.Native {
		h.Collector = spec.Collector.String()
	}
	h.SetPolicyConfig(opts.Policy)
	return h
}

// kernelConfig builds the OS description for the mode.
func kernelConfig(opts Options) kernel.Config {
	if opts.Mode == Simulation {
		return kernel.Config{EmulateOS: false}
	}
	cfg := kernel.DefaultConfig()
	cfg.NoiseNode = opts.MonitorNode
	return cfg
}

// Run executes one experiment and returns the measured iteration's
// results.
func Run(opts Options, spec RunSpec) (Result, error) {
	if spec.Instances <= 0 {
		spec.Instances = 1
	}
	factory := opts.AppFactory
	if factory == nil {
		factory = all.New
	}
	probe := factory(spec.AppName)
	if probe == nil {
		return Result{}, fmt.Errorf("core: unknown application %q", spec.AppName)
	}

	// Telemetry is a side-channel: spans and histograms observe the
	// run's wall clock, never the emulated clock, and nothing below
	// reads them back. All obs calls are nil-safe, so an
	// uninstrumented run pays nil checks only.
	tel := opts.Obs
	var tracer *obs.Tracer
	if tel != nil {
		tracer = tel.Tracer
	}
	runStart := time.Now()
	runSp := tracer.StartSpan(opts.ObsParent, "emulate")
	defer runSp.End()
	runSp.SetAttr("app", spec.AppName)
	runSp.SetAttr("instances", strconv.Itoa(spec.Instances))
	runSp.SetAttr("mode", opts.Mode.String())
	runSp.SetAttr("policy", opts.Policy.Kind.String())
	if spec.Native {
		runSp.SetAttr("native", "true")
	} else {
		runSp.SetAttr("collector", spec.Collector.String())
	}

	m := machine.New(machineConfig(opts, spec.Native))
	kCfg := kernelConfig(opts)
	k := kernel.New(m, kCfg)

	// The dynamic-placement engine, shared by every instance of the
	// run. Only migrating policies get one: static means no engine at
	// all (bit-identical to the pre-policy platform), and first-touch
	// acts purely through the plan's bindings, so neither pays the
	// per-safepoint view scan. A trace sink changes that: recording
	// needs a per-quantum view even for engine-less policies, so
	// tracing hooks an observe-only engine (which still never migrates
	// and leaves the Result bit-identical).
	var eng *policy.Engine
	if !spec.Native {
		var err error
		if opts.Policy.Migrates() {
			eng, err = policy.NewEngine(opts.Policy)
		} else if opts.TraceSink != nil {
			eng, err = policy.NewObserver(opts.Policy)
		}
		if err != nil {
			return Result{}, err
		}
	}
	var rec *trace.Recorder
	if opts.TraceSink != nil {
		var err error
		if rec, err = trace.NewRecorder(opts.TraceSink, traceHeader(opts, spec, kCfg)); err != nil {
			return Result{}, err
		}
		if eng != nil {
			eng.SetTap(rec)
		}
	}

	monCfg := pcmmon.DefaultConfig()
	monCfg.NoiseNode = opts.MonitorNode
	if opts.Mode == Simulation {
		monCfg.SelfNoiseLines = 0
	}
	mon := pcmmon.New(m, monCfg)

	res := Result{
		PerInstanceSeconds: make([]float64, spec.Instances),
		AllocBytes:         make([]uint64, spec.Instances),
		PeakResidentBytes:  make([]uint64, spec.Instances),
	}
	if spec.Native {
		res.NativeStats = make([]native.Stats, spec.Instances)
	} else {
		res.RuntimeStats = make([]jvm.Stats, spec.Instances)
	}

	var procs []*kernel.Process
	var rts []*jvm.Runtime // managed runs' runtimes, released with the run
	if !spec.Native {
		rts = make([]*jvm.Runtime, spec.Instances)
	}
	starts := make([]float64, spec.Instances)
	planStart := time.Now()
	for i := 0; i < spec.Instances; i++ {
		i := i
		app := probe
		if i > 0 {
			app = factory(spec.AppName) // independent instance and dataset copy
		}
		plan := buildPlan(opts, spec, app)
		socket := plan.ThreadSocket
		seed := opts.Seed*1000 + uint64(i)*17

		var body func(p *kernel.Process)
		if spec.Native {
			socket = jvm.PCMSocket
			if opts.ThreadSocket >= 0 {
				socket = opts.ThreadSocket
			}
			body = func(p *kernel.Process) {
				rt, err := native.NewRuntime(p, 512<<20, jvm.PCMSocket)
				if err != nil {
					panic(err)
				}
				env := &workloads.NativeEnv{R: rt}
				app.Run(env, spec.Dataset, seed)
				p.Barrier()
				starts[i] = p.Th.Seconds()
				app.Run(env, spec.Dataset, seed+7)
				res.PerInstanceSeconds[i] = p.Th.Seconds() - starts[i]
				res.NativeStats[i] = rt.Stats
				res.AllocBytes[i] = rt.Stats.AllocBytes
				res.PeakResidentBytes[i] = p.AS.PeakResident * kernel.PageSize
			}
		} else {
			body = func(p *kernel.Process) {
				rt, err := jvm.NewRuntime(p, plan)
				if err != nil {
					panic(err)
				}
				rts[i] = rt
				if eng != nil {
					rt.Safepoint = func() { eng.OnSafepoint(p, rt.PageMap) }
				}
				env := &workloads.ManagedEnv{R: rt}
				rt.SetIteration(1)
				app.Run(env, spec.Dataset, seed)
				p.Barrier()
				starts[i] = p.Th.Seconds()
				rt.SetIteration(2)
				app.Run(env, spec.Dataset, seed+7)
				res.PerInstanceSeconds[i] = p.Th.Seconds() - starts[i]
				res.RuntimeStats[i] = rt.Stats
				res.AllocBytes[i] = rt.Stats.AllocBytes
				res.PeakResidentBytes[i] = p.AS.PeakResident * kernel.PageSize
				lo, hi := rt.FreeLists()
				res.FreeListMaps += lo.Maps + hi.Maps
				res.FreeListRecycles += lo.Recycles + hi.Recycles
			}
		}
		procs = append(procs, k.NewProcess(fmt.Sprintf("%s#%d", spec.AppName, i), socket, body))
	}
	if tracer != nil {
		tracer.Emit(runSp.Context(), "plan", planStart, time.Since(planStart),
			map[string]string{"instances": strconv.Itoa(spec.Instances)})
	}

	// The execute span covers the cooperative kernel run; per-safepoint
	// policy.quantum spans parent to it, giving the trace one child per
	// engine quantum without the view-gathering cost a Tap would force.
	execSp := tracer.StartSpan(runSp.Context(), "execute")
	if eng != nil && tel != nil {
		qh := tel.Metrics.Histogram("hybridmem_policy_quantum_seconds",
			"Wall-clock time of one policy-engine quantum (view build + decide + migrate).",
			obs.Labels{"node": tel.Node}, nil)
		// Cumulative progress for the flight-recorder seam. The hook
		// fires on the kernel's single cooperative runner, so plain
		// closure counters are race-free.
		var quanta, actionsTotal, migrated uint64
		eng.SetQuantumHook(func(proc string, quantum uint64, actions, moved int, stall float64, start time.Time, wall time.Duration) {
			qh.Observe(wall.Seconds())
			tracer.Emit(execSp.Context(), "policy.quantum", start, wall, map[string]string{
				"proc":       proc,
				"quantum":    strconv.FormatUint(quantum, 10),
				"actions":    strconv.Itoa(actions),
				"pagesMoved": strconv.Itoa(moved),
			})
			quanta++
			actionsTotal += uint64(actions)
			migrated += uint64(moved)
			tel.Quantum(opts.ObsParent, quanta, actionsTotal, migrated)
		})
	}

	// The flight-recorder milestone: the run's instances are about to
	// execute. Keyed by the caller's span context so a serving layer
	// can flip this run's lifecycle record to "emulating".
	tel.Emulating(opts.ObsParent)

	rc := kernel.RunConfig{
		ThreadsPerProc: 4, // the paper: four application threads each
		Cancel:         opts.Cancel,
		OnQuantum:      mon.OnQuantum,
		OnBarrier: func() {
			// Replay methodology: the measured iteration starts here
			// for every instance simultaneously.
			mon.StartMeasurement(monNow(procs))
		},
	}
	if err := k.Run(procs, rc); err != nil {
		execSp.End()
		return Result{}, err
	}
	mon.StopMeasurement(monNow(procs))
	if tel != nil {
		if !spec.Native {
			gcs := 0
			for _, st := range res.RuntimeStats {
				gcs += st.MinorGCs + st.FullGCs
			}
			execSp.SetAttr("gcs", strconv.Itoa(gcs))
		}
		if eng != nil {
			es := eng.Stats()
			execSp.SetAttr("quanta", strconv.FormatUint(es.Quanta, 10))
			execSp.SetAttr("pagesMigrated", strconv.FormatUint(es.PagesMigrated, 10))
		}
		execSp.End()
	}

	rep := mon.Report()
	res.DRAMWriteLines = rep.WriteLines[0]
	res.PCMWriteLines = rep.WriteLines[1]
	res.DRAMReadLines = rep.ReadLines[0]
	res.PCMReadLines = rep.ReadLines[1]
	for _, d := range res.PerInstanceSeconds {
		if d > res.Seconds {
			res.Seconds = d
		}
	}
	res.ZeroedPages = k.ZeroedPages()
	res.QPI = m.QPI()
	if eng != nil {
		es := eng.Stats()
		res.PagesMigrated = es.PagesMigrated
		res.MigrationStallCycles = uint64(es.StallCycles + 0.5)
	}
	for _, p := range procs {
		counts := p.AS.Residency(0, kernel.KernelBase)
		res.DRAMResidentPages += counts[0]
		if len(counts) > 1 {
			res.PCMResidentPages += counts[1]
		}
	}
	if rec != nil {
		// A trace was asked for: finish it with the footer index so
		// readers can seek it. A sink that stopped accepting writes
		// mid-run fails the run rather than silently shipping a
		// truncated trace.
		if err := rec.Close(); err != nil {
			return Result{}, err
		}
	}
	// The Result is complete: hand the run's page tables, caches and
	// runtimes to later runs in this process. Nothing reads them from
	// here on. A failed or cancelled run returns before this point and
	// leaves its buffers to the garbage collector.
	for _, rt := range rts {
		rt.Release()
	}
	k.Release()
	m.Release()
	if tel != nil {
		runSp.SetAttr("emulatedSeconds", strconv.FormatFloat(res.Seconds, 'g', -1, 64))
		runSp.SetAttr("pagesMigrated", strconv.FormatUint(res.PagesMigrated, 10))
		tel.Metrics.Histogram("hybridmem_emulate_seconds",
			"Wall-clock time of one emulator run (all instances, measured iteration included).",
			obs.Labels{"node": tel.Node}, nil).Observe(time.Since(runStart).Seconds())
	}
	return res, nil
}

// monNow returns the maximum process clock (all instances have reached
// the same point at barriers and at completion).
func monNow(procs []*kernel.Process) float64 {
	max := 0.0
	for _, p := range procs {
		if s := p.Th.Seconds(); s > max {
			max = s
		}
	}
	return max
}

// buildPlan resolves the collector plan for one app under the options.
func buildPlan(opts Options, spec RunSpec, app workloads.App) jvm.Plan {
	nursery := uint64(app.NurseryMB()) << 20
	if opts.BaseNurseryMB > 0 {
		nursery = uint64(opts.BaseNurseryMB) << 20
	}
	boot := uint64(0)
	if opts.BootMB > 0 {
		boot = uint64(opts.BootMB) << 20
	}
	plan := jvm.NewPlan(spec.Collector, jvm.PlanConfig{
		BaseNurseryBytes: nursery,
		HeapBytes:        uint64(app.HeapMB()) << 20,
		BootBytes:        boot,
		ThreadSocket:     opts.ThreadSocket,
	})
	if opts.ObserverFactor > 0 && plan.UseObserver {
		plan.ObserverBytes = uint64(opts.ObserverFactor) * plan.NurseryBytes
	}
	plan.UnmapFreedChunks = opts.UnmapFreedChunks
	plan.FirstTouchHeap = opts.Policy.FirstTouchHeap()
	return plan
}
