package hybridmem

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/fabric/jobs"
	"repro/internal/jvm"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/trace/library"
	"repro/internal/workloads"
	"repro/internal/workloads/all"
	"repro/internal/workloads/graphchi"
)

// Typed errors returned by the Platform and the name parsers.
var (
	// ErrUnknownApp reports a RunSpec.AppName absent from the registry.
	ErrUnknownApp = errors.New("hybridmem: unknown application")
	// ErrUnknownCollector reports a collector outside the paper's
	// eight configurations.
	ErrUnknownCollector = errors.New("hybridmem: unknown collector")
	// ErrUnknownScale reports an unparseable scale name.
	ErrUnknownScale = errors.New("hybridmem: unknown scale")
	// ErrUnknownDataset reports an unparseable dataset name.
	ErrUnknownDataset = errors.New("hybridmem: unknown dataset")
	// ErrUnknownMode reports an unparseable pipeline mode name.
	ErrUnknownMode = errors.New("hybridmem: unknown mode")
	// ErrUnknownPolicy reports an unparseable placement-policy name.
	ErrUnknownPolicy = errors.New("hybridmem: unknown policy")
	// ErrTraceVersion reports a trace written by an incompatible
	// schema version; re-record it with this build.
	ErrTraceVersion = trace.ErrVersion
	// ErrTraceCorrupt reports an unreadable trace — a mangled header,
	// a garbage line, or a torn tail. The message names the offending
	// line; replay results for the valid prefix are still returned.
	ErrTraceCorrupt = trace.ErrCorrupt
)

// ParseCollector resolves a collector by its paper name ("PCM-Only",
// "KG-W", "KG-N+LOO", ...). Matching is case-insensitive and ignores
// the '-'/'+' punctuation, so "kgw" and "KG-W" are the same plan.
func ParseCollector(name string) (Collector, error) {
	want := foldCollectorName(name)
	for k := Collector(0); k < jvm.NumKinds; k++ {
		if foldCollectorName(k.String()) == want {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownCollector, name)
}

// foldCollectorName canonicalizes a collector name for comparison.
func foldCollectorName(name string) string {
	name = strings.ToLower(name)
	return strings.Map(func(r rune) rune {
		switch r {
		case '-', '+', ' ', '_':
			return -1
		}
		return r
	}, name)
}

// ParseScale resolves an experiment scale by name: "quick", "std", or
// "full".
func ParseScale(name string) (Scale, error) {
	switch strings.ToLower(name) {
	case "quick":
		return Quick, nil
	case "std", "standard":
		return Std, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownScale, name)
}

// ParseDataset resolves a dataset by name: "default" or "large".
func ParseDataset(name string) (Dataset, error) {
	switch strings.ToLower(name) {
	case "default":
		return Default, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
}

// ParsePolicy resolves a placement policy by name ("static",
// "first-touch", "write-threshold", "wear-level"). Matching is
// case-insensitive and ignores '-'/'_'/' ' punctuation, so
// "WriteThreshold" and "write-threshold" are the same policy.
func ParsePolicy(name string) (Policy, error) {
	want := foldCollectorName(name)
	for _, k := range Policies() {
		if foldCollectorName(k.String()) == want {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownPolicy, name)
}

// ParseMode resolves an evaluation pipeline by name: "emul"/"emulation"
// or "sim"/"simulation".
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(name) {
	case "emul", "emulation":
		return Emulation, nil
	case "sim", "simulation":
		return Simulation, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownMode, name)
}

// EncodeResult serializes a Result to JSON for downstream tooling.
// DecodeResult(EncodeResult(r)) reproduces r bit-for-bit.
func EncodeResult(r Result) ([]byte, error) {
	return json.Marshal(r)
}

// DecodeResult parses a Result previously produced by EncodeResult.
func DecodeResult(data []byte) (Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return Result{}, fmt.Errorf("hybridmem: decoding result: %w", err)
	}
	return r, nil
}

// config is the resolved option set of a Platform.
type config struct {
	mode           Mode
	seed           uint64
	scale          Scale
	l3Bytes        int
	baseNurseryMB  int
	observerFactor int
	threadSocket   int
	monitorNode    int
	unmapFreed     bool
	factory        func(string) workloads.App
	factoryKey     string
	parallelism    int
	storeDir       string
	policy         policy.Config
	traceSink      io.Writer
	obs            *obs.Telemetry
	estimator      *estimate.Estimator
}

// defaultConfig mirrors core.DefaultOptions: emulation pipeline,
// seed 1, plan-default thread placement, paper-scale inputs.
func defaultConfig() config {
	return config{mode: Emulation, seed: 1, scale: Full, threadSocket: -1}
}

// bootMB resolves the boot-image size: Quick scale shrinks the 48 MB
// image to 4 MB so hundreds of CI-sized configurations stay cheap; 0
// keeps the default.
func (c config) bootMB() int {
	if c.scale == Quick {
		return 4
	}
	return 0
}

// Option configures a Platform at construction (New) or derivation
// (With).
type Option func(*config)

// WithMode selects the evaluation pipeline (Emulation or Simulation).
func WithMode(m Mode) Option { return func(c *config) { c.mode = m } }

// WithSeed sets the workload seed; equal seeds reproduce every Result
// bit-for-bit.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithScale sizes every workload's inputs for the scale and installs
// the matching application factory. Quick also shrinks the boot image
// to 4 MB.
func WithScale(s Scale) Option {
	return func(c *config) {
		c.scale = s
		c.factory = scaledFactory(s)
		c.factoryKey = "scale:" + s.String()
	}
}

// factorySeq distinguishes custom factories in the result cache.
var factorySeq atomic.Uint64

// WithAppFactory installs a custom application factory (nil restores
// the registry). Every WithAppFactory call keys its results
// separately — two platforms share cached Results for custom-factory
// runs only when built from the same Option value — because function
// identity cannot be established reliably in Go.
func WithAppFactory(f func(string) App) Option {
	key := ""
	if f != nil {
		key = fmt.Sprintf("factory:%d", factorySeq.Add(1))
	}
	return func(c *config) {
		c.factory = f
		c.factoryKey = key
	}
}

// WithL3MB overrides the shared L3 size in MB (the paper's KG-N
// sensitivity analysis compares 4 MB vs the platform's 20 MB).
//
// The L3 keeps 20 ways only when the size splits into whole 20-way
// sets; otherwise the way count halves (20, 10, 5, 2, 1) until it
// does. A 4 MB L3 is therefore modelled 2-way, where a real 4 MB LLC is
// 16-way.
func WithL3MB(mb int) Option { return func(c *config) { c.l3Bytes = mb << 20 } }

// WithBaseNurseryMB overrides the suite nursery size in MB.
func WithBaseNurseryMB(mb int) Option { return func(c *config) { c.baseNurseryMB = mb } }

// WithObserverFactor overrides the observer:nursery ratio for KG-W
// plans (the paper fixes it at 2x).
func WithObserverFactor(f int) Option { return func(c *config) { c.observerFactor = f } }

// WithThreadSocket forces application-thread placement (-1 restores
// the plan default). The paper's Table II reference setup pins PCM-Only
// threads to socket 0.
func WithThreadSocket(s int) Option { return func(c *config) { c.threadSocket = s } }

// WithMonitorNode places the write-rate monitor (the paper uses socket
// 0; the ablation tries socket 1).
func WithMonitorNode(n int) Option { return func(c *config) { c.monitorNode = n } }

// WithUnmapFreedChunks enables the monolithic-free-list ablation.
func WithUnmapFreedChunks(on bool) Option { return func(c *config) { c.unmapFreed = on } }

// WithParallelism caps the number of experiments RunBatch executes
// concurrently (0 = one per available core).
func WithParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithPolicy selects the dynamic-placement policy with its default
// knobs (Static — the default — disables the engine entirely, which
// is the paper's plan-time tiering bit-for-bit). The policy is part
// of the result identity: every cache and store key carries it.
func WithPolicy(k Policy) Option {
	return func(c *config) { c.policy = policy.Config{Kind: k} }
}

// WithPolicyConfig selects the placement policy together with explicit
// knob values (HotWriteLines, ColdWriteLines, DRAMBudgetPages,
// WearFactor, ...), so a tuned knob point — e.g. Autotune's
// recommendation — runs live exactly as the replay priced it. Unset
// knobs resolve to their registry defaults, making
// WithPolicyConfig(PolicyConfig{Kind: k}) equivalent to WithPolicy(k).
// The resolved knobs are part of the result identity: two platforms
// differing in any knob never share a cache or store entry.
func WithPolicyConfig(cfg PolicyConfig) Option {
	return func(c *config) { c.policy = cfg }
}

// WithStore attaches a durable result store rooted at dir as a second
// cache tier: lookups fall through memory → disk → compute, computed
// Results are written through, and the store survives the process —
// a rerun of the same grid performs zero recomputes. The directory is
// created (and its segments replayed) lazily on first use; open
// failures surface from Run. Derived platforms (With) share the
// parent's store unless they name a different directory; "" detaches
// the tier.
//
// Disk entries are keyed by SpecKey and shared across processes.
// Custom WithAppFactory configurations bypass the disk tier entirely:
// their identity is process-local, so persisted entries could not be
// told apart from a different factory's in the next process.
func WithStore(dir string) Option { return func(c *config) { c.storeDir = dir } }

// WithTelemetry attaches a telemetry bundle (internal/obs): runs emit
// lifecycle spans (run → store.lookup → emulate → plan/execute →
// policy.quantum) into its tracer and latency histograms
// (hybridmem_store_lookup_seconds, hybridmem_store_append_seconds,
// hybridmem_emulate_seconds, hybridmem_policy_quantum_seconds) into
// its registry. Telemetry is strictly side-channel: it is NOT part of
// the result identity — instrumented and uninstrumented platforms
// share cache and store entries and produce bit-identical Results —
// and nil detaches it. The caller's span context (obs.ContextWithSpan
// or ContextWithRemote on the Run ctx) parents the run's spans, so a
// serving layer's distributed trace extends into the emulator core.
func WithTelemetry(t *obs.Telemetry) Option { return func(c *config) { c.obs = t } }

// WithTrace streams a per-quantum placement trace into w: a versioned
// ndjson stream opening with a header (spec key, seed, policy knobs,
// migration costs) followed by one record per policy-engine quantum —
// the full View the policy saw, the Actions it emitted, and the
// executed migration costs. Traces recorded here replay offline
// through ReplayTrace and cmd/policyreplay, so new policies are
// prototyped against recorded views without re-running the emulator.
//
// A traced Run always computes: it bypasses the result cache and the
// durable store in both directions, because a cached Result has no
// quanta to record. The Result itself stays bit-identical to an
// untraced run — tracing only adds bookkeeping. One sink serves one
// run at a time: trace single specs, not RunBatch grids, or records
// from concurrent runs would interleave. nil detaches tracing on a
// derived platform.
func WithTrace(w io.Writer) Option { return func(c *config) { c.traceSink = w } }

// TraceLibrary is a content-addressed store of compacted placement
// traces, one per spec neighborhood (internal/trace/library): the
// substrate the estimate-first serving tier answers from.
type TraceLibrary = library.Library

// OpenTraceLibrary opens (creating if needed) a trace library rooted
// at dir.
func OpenTraceLibrary(dir string) (*TraceLibrary, error) { return library.Open(dir) }

// EstimateStats snapshots the estimate tier's counters: Hits
// (estimates served), Misses (fell through to compute), and Loads
// (library trace decodes — concurrent estimates over one warm
// neighborhood coalesce to a single load).
type EstimateStats = estimate.Stats

// WithTraceLibrary attaches a trace library as the platform's estimate
// tier: Estimate answers specs whose neighborhood has a resident trace
// by replaying the recorded views under the platform's policy instead
// of running the emulator. The estimator (and its decoded-trace cache)
// is created once per Option value and shared by every platform the
// option is applied to — apply one WithTraceLibrary to the base
// platform and derive per-policy variants from it with With, so a
// whole grid estimates from one decode. nil detaches the tier.
//
// Estimates are strictly side-channel: they never enter the result
// cache or the durable store, and Run is unaffected.
func WithTraceLibrary(lib *TraceLibrary) Option {
	est := estimate.New(lib)
	return func(c *config) { c.estimator = est }
}

// Platform is a reusable, concurrent-safe experiment engine: one
// platform configuration plus a result cache (and optional durable
// store tier) shared with every platform derived from it via With.
// All methods are safe for concurrent use.
//
// The run-scheduling core — canonical-keyed single-flight memoization
// and the worker pool — lives in internal/fabric/jobs, the same layer
// the clustered hybridserved fabric schedules on, so a Platform and a
// fleet node coalesce identical work with identical semantics.
type Platform struct {
	cfg   config
	cache *jobs.Group[Result]
	disk  *storeTier // nil without WithStore
}

// New constructs a Platform from functional options.
func New(opts ...Option) *Platform {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	p := &Platform{cfg: cfg, cache: jobs.NewGroup[Result]()}
	if cfg.storeDir != "" {
		p.disk = &storeTier{dir: cfg.storeDir}
	}
	return p
}

// With derives a Platform with additional options applied. The
// derivative shares the parent's result cache and durable store —
// results are keyed by their full effective configuration, so
// experiment drivers can vary one knob (thread placement, L3 size,
// observer factor, ...) without re-running shared configurations.
func (p *Platform) With(opts ...Option) *Platform {
	cfg := p.cfg
	for _, o := range opts {
		o(&cfg)
	}
	d := p.disk
	if cfg.storeDir != p.cfg.storeDir {
		// A different directory is a different store; "" detaches.
		d = nil
		if cfg.storeDir != "" {
			d = &storeTier{dir: cfg.storeDir}
		}
	}
	return &Platform{cfg: cfg, cache: p.cache, disk: d}
}

// storeTier is the lazily-opened durable tier shared by a platform
// family. Counters live here (not on resultCache) so detaching or
// swapping the store swaps its stats with it.
type storeTier struct {
	dir      string
	mu       sync.Mutex
	s        *store.Store
	instr    bool // telemetry attached to the open store
	hits     atomic.Uint64
	misses   atomic.Uint64
	putFails atomic.Uint64
}

// open opens the store on first use and, when the calling platform
// carries telemetry, attaches the store's append histogram and
// replay-time gauge (once per tier). Failures are returned but not
// latched: a transient condition (full disk, unmounted volume) is
// retried on the next call rather than poisoning the platform for the
// process lifetime.
func (t *storeTier) open(tel *obs.Telemetry) (*store.Store, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s == nil {
		s, err := store.Open(t.dir)
		if err != nil {
			return nil, err
		}
		t.s = s
	}
	if tel != nil && !t.instr {
		t.instr = true
		lbl := obs.Labels{"node": tel.Node}
		h := tel.Metrics.Histogram("hybridmem_store_append_seconds",
			"Durable-store segment append latency per record.", lbl, nil)
		t.s.SetAppendObserver(func(seconds float64) { h.Observe(seconds) })
		s := t.s
		tel.Metrics.GaugeFunc("hybridmem_store_load_seconds",
			"Segment replay time of the store's Open.", lbl,
			func() float64 { return s.Stats().LoadSeconds })
	}
	return t.s, nil
}

// Store returns the platform's durable result store, opening it on
// first use ((nil, nil) when the platform has none). The store is
// shared with every derived platform; callers may List its records or
// Compact it, but should leave writes to the platform.
func (p *Platform) Store() (*store.Store, error) {
	if p.disk == nil {
		return nil, nil
	}
	return p.disk.open(p.cfg.obs)
}

// Scale returns the platform's input scale.
func (p *Platform) Scale() Scale { return p.cfg.scale }

// Seed returns the platform's workload seed.
func (p *Platform) Seed() uint64 { return p.cfg.seed }

// coreOptions lowers the platform configuration to the engine's
// option struct.
func (p *Platform) coreOptions() core.Options {
	o := core.DefaultOptions()
	o.Mode = p.cfg.mode
	o.Seed = p.cfg.seed
	o.L3Bytes = p.cfg.l3Bytes
	o.BaseNurseryMB = p.cfg.baseNurseryMB
	o.ObserverFactor = p.cfg.observerFactor
	o.ThreadSocket = p.cfg.threadSocket
	o.MonitorNode = p.cfg.monitorNode
	o.UnmapFreedChunks = p.cfg.unmapFreed
	o.BootMB = p.cfg.bootMB()
	o.AppFactory = p.cfg.factory
	o.Policy = p.cfg.policy
	return o
}

// PolicyKind returns the platform's configured placement policy.
func (p *Platform) PolicyKind() Policy { return p.cfg.policy.Kind }

// PolicyConfig returns the platform's placement-policy configuration
// with its knobs resolved to their effective values.
func (p *Platform) PolicyConfig() PolicyConfig { return p.cfg.policy.WithDefaults() }

// normalizeSpec applies RunSpec defaults so equivalent specs share one
// cache entry.
func normalizeSpec(spec RunSpec) RunSpec {
	if spec.Instances <= 0 {
		spec.Instances = 1
	}
	if spec.Native {
		spec.Collector = 0 // ignored by native runs
	}
	return spec
}

// NormalizeSpec applies the platform's RunSpec defaulting — a zero
// instance count means one instance, and native runs ignore the
// collector — returning the spec exactly as Run caches, stores, and
// keys it. Front-ends that echo specs back to callers use this to
// stay consistent with the persisted Records.
func NormalizeSpec(spec RunSpec) RunSpec { return normalizeSpec(spec) }

// validateSpec type-checks a spec before it reaches the engine.
func (p *Platform) validateSpec(spec RunSpec) error {
	if !spec.Native && (spec.Collector < 0 || spec.Collector >= jvm.NumKinds) {
		return fmt.Errorf("%w: Kind(%d)", ErrUnknownCollector, int(spec.Collector))
	}
	if p.cfg.policy.Kind < policy.Static || p.cfg.policy.Kind >= policy.NumKinds {
		return fmt.Errorf("%w: Kind(%d)", ErrUnknownPolicy, int(p.cfg.policy.Kind))
	}
	factory := p.cfg.factory
	if factory == nil {
		factory = all.New
	}
	if factory(spec.AppName) == nil {
		return fmt.Errorf("%w: %q", ErrUnknownApp, spec.AppName)
	}
	return nil
}

// cacheKey identifies one experiment: the full effective configuration
// plus the spec. Two runs with equal keys produce bit-identical
// Results, so one cached Result serves both.
type cacheKey struct {
	mode           Mode
	seed           uint64
	l3Bytes        int
	baseNurseryMB  int
	observerFactor int
	threadSocket   int
	monitorNode    int
	unmapFreed     bool
	bootMB         int
	factoryKey     string
	policyKey      string
	app            string
	collector      Collector
	instances      int
	dataset        Dataset
	native         bool
}

// key builds the canonical cache key for a normalized spec. Native
// runs have no GC safepoints for the placement engine to hook and
// ignore the policy entirely, so their keys normalize it to static —
// one platform's native Results serve every policy variant.
func (p *Platform) key(spec RunSpec) cacheKey {
	policyKey := p.cfg.policy.Key()
	if spec.Native {
		policyKey = policy.Config{}.Key()
	}
	return cacheKey{
		mode:           p.cfg.mode,
		seed:           p.cfg.seed,
		l3Bytes:        p.cfg.l3Bytes,
		baseNurseryMB:  p.cfg.baseNurseryMB,
		observerFactor: p.cfg.observerFactor,
		threadSocket:   p.cfg.threadSocket,
		monitorNode:    p.cfg.monitorNode,
		unmapFreed:     p.cfg.unmapFreed,
		bootMB:         p.cfg.bootMB(),
		factoryKey:     p.cfg.factoryKey,
		policyKey:      policyKey,
		app:            spec.AppName,
		collector:      spec.Collector,
		instances:      spec.Instances,
		dataset:        spec.Dataset,
		native:         spec.Native,
	}
}

// canonical renders the key as the stable string form the durable
// store is addressed by. Unlike the struct (which is compared, not
// persisted), this format is an on-disk contract: entries written by
// one process must be found by the next, so fields are spelled with
// their String names and the layout only changes with the store
// format.
func (k cacheKey) canonical() string {
	return strings.Join([]string{
		"mode=" + k.mode.String(),
		"seed=" + strconv.FormatUint(k.seed, 10),
		"l3=" + strconv.Itoa(k.l3Bytes),
		"nursery=" + strconv.Itoa(k.baseNurseryMB),
		"obs=" + strconv.Itoa(k.observerFactor),
		"tsock=" + strconv.Itoa(k.threadSocket),
		"mon=" + strconv.Itoa(k.monitorNode),
		// quantum= and wear= are fixed segments: the platform offers
		// no timeslice or wear-tracking override, but the key format
		// keeps them so existing store keys and trace headers match.
		"quantum=0",
		"unmap=" + strconv.FormatBool(k.unmapFreed),
		"wear=false",
		"boot=" + strconv.Itoa(k.bootMB),
		"factory=" + k.factoryKey,
		"policy=" + k.policyKey,
		"app=" + k.app,
		"gc=" + k.collector.String(),
		"n=" + strconv.Itoa(k.instances),
		"ds=" + k.dataset.String(),
		"native=" + strconv.FormatBool(k.native),
	}, ";")
}

// SpecKey returns the canonical key identifying one experiment under
// this platform's effective configuration — the key the durable store
// (WithStore) files its Result under. Two platforms produce equal keys
// exactly when they would produce bit-identical Results for the spec.
func (p *Platform) SpecKey(spec RunSpec) string {
	return p.key(normalizeSpec(spec)).canonical()
}

// Validate type-checks a spec against the platform's configuration —
// collector range, application factory — without running it. It
// returns the same typed errors Run would (ErrUnknownApp,
// ErrUnknownCollector), so front-ends can reject a bad request before
// committing resources to it.
func (p *Platform) Validate(spec RunSpec) error {
	return p.validateSpec(normalizeSpec(spec))
}

// Peek returns the Result for a spec if it is already available — a
// completed in-memory entry or a durable-store record — without
// blocking on in-flight runs and without computing. A successful Peek
// counts as a hit on the tier that served it; a disk Peek does not
// promote the record into the memory tier.
func (p *Platform) Peek(spec RunSpec) (Result, bool) {
	spec = normalizeSpec(spec)
	if p.validateSpec(spec) != nil {
		return Result{}, false
	}
	key := p.key(spec)
	if res, ok := p.cache.Peek(key.canonical()); ok {
		return res, true
	}
	if p.disk != nil && durableKey(key) {
		if s, err := p.disk.open(p.cfg.obs); err == nil {
			if rec, ok := s.Get(key.canonical()); ok {
				p.disk.hits.Add(1)
				return rec.Result, true
			}
		}
	}
	return Result{}, false
}

// Estimate answers a spec from the attached trace library
// (WithTraceLibrary) without running the emulator: the recorded views
// of the spec's library neighborhood are replayed under the platform's
// policy configuration and mapped onto the recorded run's measured
// baseline. Like Peek it never blocks and never computes — ok reports
// false when no library is attached, the neighborhood has no resident
// trace (or no baseline sidecar), or the entry cannot be replayed.
//
// On a hit the Result is tagged Estimated with an EstimateInfo naming
// the source trace and the Confidence/Tolerance bound; its migration
// fields are within EstimateTolerance of the live run (exact when the
// replayed policy matches the recorded one). Estimated Results are
// never cached or stored: a subsequent Run computes as usual.
func (p *Platform) Estimate(spec RunSpec) (Result, bool) {
	if p.cfg.estimator == nil {
		return Result{}, false
	}
	spec = normalizeSpec(spec)
	if p.validateSpec(spec) != nil {
		return Result{}, false
	}
	cfg := p.cfg.policy
	if spec.Native {
		// Native runs ignore the policy; their keys normalize it away.
		cfg = policy.Config{}
	}
	res, err := p.cfg.estimator.Estimate(p.key(spec).canonical(), cfg)
	if err != nil {
		return Result{}, false
	}
	return res, true
}

// EstimateStats snapshots the estimate tier's counters; zeros without
// WithTraceLibrary.
func (p *Platform) EstimateStats() EstimateStats {
	return p.cfg.estimator.Stats()
}

// ResidentTrace is a trace-library trace as the estimate tier holds it:
// decoded once per library generation and shared, read-only, by every
// estimate and knob grid priced over it.
type ResidentTrace struct {
	hdr    trace.Header
	quanta []trace.Quantum
	err    error // the resident trace could not be read or decoded
}

// ResidentTrace returns the trace the attached trace library
// (WithTraceLibrary) holds for spec's neighborhood, from the estimate
// tier's decoded-trace cache. It fails only when no trace is resident
// (with the library's not-found error, also when no library is
// attached); a resident trace that cannot be read or decoded fails its
// Autotune instead. Neither call counts as an estimate hit or miss.
func (p *Platform) ResidentTrace(spec RunSpec) (*ResidentTrace, error) {
	hdr, quanta, err := p.cfg.estimator.Trace(p.SpecKey(spec))
	if errors.Is(err, library.ErrNotFound) {
		return nil, err
	}
	return &ResidentTrace{hdr: hdr, quanta: quanta, err: err}, nil
}

// Autotune is the package-level Autotune over the resident trace: the
// grid is priced from the decoded quanta, with no file read or decode.
func (t *ResidentTrace) Autotune(ctx context.Context, grid KnobGrid) (AutotuneReport, error) {
	if t.err != nil {
		return AutotuneReport{}, t.err
	}
	return autotune.RunDecoded(ctx, t.hdr, t.quanta, grid)
}

// WarmTraceLibrary files a recorded trace in lib together with its
// measured baseline Result — exactly what the server's /v1/trace
// ingest does — so the spec's neighborhood becomes estimable, not
// just replayable. data must be a complete recording of spec under
// the platform's effective configuration (WithTrace), and res the
// Result of that same traced run.
func (p *Platform) WarmTraceLibrary(lib *TraceLibrary, spec RunSpec, res Result, data []byte) error {
	spec = normalizeSpec(spec)
	if err := p.validateSpec(spec); err != nil {
		return err
	}
	base, err := estimate.EncodeBase(p.key(spec).canonical(), spec, res)
	if err != nil {
		return err
	}
	_, err = lib.PutWithBase(data, base)
	return err
}

// Joinable reports whether a Run for spec would be served from the
// memory tier right now — a completed or in-flight single-flight
// entry exists — without starting a new compute. The answer is
// advisory: an in-flight entry can fail and be retired before a
// subsequent Run, which would then compute. Admission controllers use
// this to let duplicate requests join a running compute without
// consuming a concurrency slot.
func (p *Platform) Joinable(spec RunSpec) bool {
	spec = normalizeSpec(spec)
	if p.validateSpec(spec) != nil {
		return false
	}
	return p.cache.Joinable(p.key(spec).canonical())
}

// CacheStats reports the shared result cache's behaviour. Hits count
// calls served from a completed or in-flight entry; Entries counts
// entries currently held — memoized successful results plus any runs
// still in flight (failed runs are dropped on completion).
//
// With a durable store attached (WithStore), every memory miss
// consults the disk tier: DiskHits count runs restored from the store
// without recomputing, DiskMisses count genuine platform computes, and
// StorePutFailures counts write-through appends that failed (the run
// still succeeds; the result is just not durable). Without a store all
// three stay zero and Misses alone counts computes.
type CacheStats struct {
	Hits             uint64
	Misses           uint64
	Entries          int
	DiskHits         uint64
	DiskMisses       uint64
	StorePutFailures uint64
}

// CacheStats returns a snapshot of the platform's shared result cache
// and store tier.
func (p *Platform) CacheStats() CacheStats {
	gs := p.cache.Stats()
	st := CacheStats{Hits: gs.Hits, Misses: gs.Misses, Entries: gs.Entries}
	if p.disk != nil {
		st.DiskHits = p.disk.hits.Load()
		st.DiskMisses = p.disk.misses.Load()
		st.StorePutFailures = p.disk.putFails.Load()
	}
	return st
}

// Run executes one experiment, serving it from the shared cache when
// an identical configuration has already run (or is running). It
// returns ctx.Err if the context is cancelled before the result is
// available.
func (p *Platform) Run(ctx context.Context, spec RunSpec) (Result, error) {
	res, _, err := p.RunShared(ctx, spec)
	return res, err
}

// RunShared is Run with its sharing made visible: computed reports
// whether this call ran the engine (or restored from the durable store)
// itself, as opposed to joining an in-flight identical run or reusing a
// memoized result. Admission layers (internal/serve) use it to count
// coalesced work exactly — for N concurrent identical requests, exactly
// one observes computed regardless of how the race between them
// resolves. Traced runs always compute.
func (p *Platform) RunShared(ctx context.Context, spec RunSpec) (res Result, computed bool, err error) {
	spec = normalizeSpec(spec)
	if err := p.validateSpec(spec); err != nil {
		return Result{}, false, err
	}
	if p.cfg.traceSink != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, false, err
		}
		// A traced run must actually run — a Result served from the
		// cache or the store has no quanta to record — so it bypasses
		// both tiers in both directions and computes unconditionally.
		// It is also the one path that honors mid-run cancellation:
		// tracing streams to a live consumer (a file, an HTTP
		// response), and when that consumer goes away the emulation
		// must stop, not run on into a dead sink.
		opts := p.coreOptions()
		opts.TraceSink = p.cfg.traceSink
		opts.TraceKey = p.key(spec).canonical()
		opts.Cancel = ctx.Done()
		opts.Obs = p.cfg.obs
		opts.ObsParent = obs.SpanContextFrom(ctx)
		res, err := core.Run(opts, spec)
		if err != nil {
			if errors.Is(err, kernel.ErrCancelled) {
				// Surface the caller's own cancellation, not the
				// kernel's internal sentinel.
				if cerr := ctx.Err(); cerr != nil {
					return Result{}, false, cerr
				}
			}
			return Result{}, false, fmt.Errorf("hybridmem: %s: %w", specLabel(spec), err)
		}
		return res, true, nil
	}
	key := p.key(spec)
	// Telemetry observes the computing caller only: joiners and cache
	// hits emit nothing here (the serving layer times them), and the
	// parent span context is captured outside the closure so the
	// compute's spans land in the trace of the request that ran it.
	tel := p.cfg.obs
	parent := obs.SpanContextFrom(ctx)

	// The single-flight group deduplicates concurrent identical runs
	// and memoizes completed ones; the compute closure layers the
	// durable tier (memory miss → disk → engine, write-through on
	// compute). The engine panics on platform-construction failures —
	// the group retires the entry and releases any waiters before the
	// panic propagates.
	res, computed, err = p.cache.Do(ctx, key.canonical(), func(ctx context.Context) (Result, error) {
		var lookupStart time.Time
		if tel != nil {
			lookupStart = time.Now()
		}
		res, ok, derr := p.diskGet(key)
		if tel != nil && p.disk != nil {
			d := time.Since(lookupStart)
			tel.Metrics.Histogram("hybridmem_store_lookup_seconds",
				"Durable-store lookup latency per compute (open included on first use).",
				obs.Labels{"node": tel.Node}, nil).Observe(d.Seconds())
			tel.Tracer.Emit(parent, "store.lookup", lookupStart, d,
				map[string]string{"hit": strconv.FormatBool(ok)})
		}
		if derr != nil {
			return Result{}, fmt.Errorf("hybridmem: %s: %w", specLabel(spec), derr)
		}
		if ok {
			return res, nil
		}
		opts := p.coreOptions()
		opts.Obs = tel
		opts.ObsParent = parent
		res, err := core.Run(opts, spec)
		if err != nil {
			// Failed runs are not memoized; a later call retries. The
			// spec label identifies the failing experiment inside wide
			// batches.
			return Result{}, fmt.Errorf("hybridmem: %s: %w", specLabel(spec), err)
		}
		p.diskPut(key, spec, res)
		return res, nil
	})
	return res, computed, err
}

// durableKey reports whether a key is stable across processes and may
// therefore live in the durable tier. Custom WithAppFactory keys
// ("factory:N") are process-local — a restart numbers a *different*
// factory identically, so persisting them would serve one workload's
// Results for another.
func durableKey(key cacheKey) bool {
	return !strings.HasPrefix(key.factoryKey, "factory:")
}

// diskGet consults the durable tier. ok reports a disk hit; err
// reports a store that failed to open (surfaced so a misconfigured
// -store dir fails loudly rather than silently recomputing).
func (p *Platform) diskGet(key cacheKey) (Result, bool, error) {
	if p.disk == nil {
		return Result{}, false, nil
	}
	if !durableKey(key) {
		p.disk.misses.Add(1)
		return Result{}, false, nil
	}
	s, err := p.disk.open(p.cfg.obs)
	if err != nil {
		return Result{}, false, err
	}
	if rec, ok := s.Get(key.canonical()); ok {
		p.disk.hits.Add(1)
		return rec.Result, true, nil
	}
	p.disk.misses.Add(1)
	return Result{}, false, nil
}

// diskPut writes a computed Result through to the durable tier.
// Append failures do not fail the run — the Result is correct, just
// not durable — but they are counted in CacheStats.StorePutFailures.
func (p *Platform) diskPut(key cacheKey, spec RunSpec, res Result) {
	if p.disk == nil || !durableKey(key) {
		return
	}
	s, err := p.disk.open(p.cfg.obs)
	if err != nil {
		p.disk.putFails.Add(1)
		return
	}
	if err := s.Put(key.canonical(), spec, res); err != nil {
		p.disk.putFails.Add(1)
	}
}

// specLabel names one experiment for error messages.
func specLabel(spec RunSpec) string {
	lang := spec.Collector.String()
	if spec.Native {
		lang = "native"
	}
	return fmt.Sprintf("%s/%s x%d (%s)", spec.AppName, lang, spec.Instances, spec.Dataset)
}

// RunBatch executes independent experiments across a worker pool — one
// worker per available core by default, capped by WithParallelism —
// and returns their Results in spec order. Results are bit-identical
// to running the same specs serially with Run: every run is
// deterministic in (configuration, spec, seed) alone.
//
// The first failure cancels the remaining work and is returned;
// cancelling ctx stops the batch promptly (queued specs are skipped,
// in-flight runs complete).
func (p *Platform) RunBatch(ctx context.Context, specs ...RunSpec) ([]Result, error) {
	results := make([]Result, len(specs))
	if len(specs) == 0 {
		return results, nil
	}
	workers := p.cfg.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err := jobs.Pool(ctx, workers, len(specs), func(ctx context.Context, i int) error {
		res, err := p.Run(ctx, specs[i])
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	return results, err
}

// scaledFactory builds the application factory for a scale: GraphChi
// datasets sized to keep (Quick) or exceed (Std/Full) the shared LLC,
// and DaCapo/pjbb allocation volumes shrunk at Quick scale.
func scaledFactory(s Scale) func(string) workloads.App {
	edges := s.graphEdges()
	largeFactor := s.graphLargeFactor()
	alloc := s.allocScale()
	return func(name string) workloads.App {
		switch name {
		case "PR":
			return graphchi.NewWithEdgesAndLarge(graphchi.PR, edges, largeFactor)
		case "CC":
			return graphchi.NewWithEdgesAndLarge(graphchi.CC, edges, largeFactor)
		case "ALS":
			return graphchi.NewWithEdgesAndLarge(graphchi.ALS, edges, largeFactor)
		}
		app := all.New(name)
		if app == nil {
			return nil
		}
		if pa, ok := app.(*workloads.ProfileApp); ok && alloc != 1 {
			prof := pa.P
			prof.AllocMB = int(float64(prof.AllocMB) * alloc)
			if prof.AllocMB < 2 {
				prof.AllocMB = 2
			}
			return workloads.NewProfileApp(prof)
		}
		return app
	}
}
