// Package serve implements the hybridserved HTTP service: a network
// front-end that lets many clients share one emulation Platform (and
// its durable result store). Identical concurrent requests coalesce
// into one platform compute through the Platform's single-flight
// cache; total in-flight platform work is bounded by an admission
// controller (internal/fabric/jobs) so a burst of clients cannot
// oversubscribe the host — work beyond the bounded wait queue is shed
// with 429 + Retry-After instead of queueing unboundedly.
//
// With a Fabric configured (cmd/hybridserved -peers) the server is one
// node of a sharded cluster: canonical spec keys are consistent-hashed
// across the fleet, non-owners forward runs to their owner (falling
// back to local execution when the peer is unreachable — degraded,
// never failed), and the owner's single-flight coalesces identical
// requests arriving from every node into one emulation.
//
// Endpoints:
//
//	POST /v1/run      one experiment; responds with a store.Record
//	POST /v1/sweep    a grid; streams one JSON line per completed run
//	POST /v1/autotune record a trace, search a knob grid over it offline
//	GET  /v1/results  durable-store listing with spec filters + paging
//	GET  /v1/policies the placement policies the engine offers
//	GET  /v1/trace    record a run and stream its placement trace (ndjson)
//	GET  /v1/spans    recent run-lifecycle spans (ndjson, oldest first; ?trace= filters)
//	GET  /v1/runs     flight recorder: live + recent run lifecycle records
//	GET  /v1/runs/{id}         one run's record incl. per-phase timings
//	GET  /v1/runs/{id}/events  live ndjson progress event stream
//	GET  /v1/status   this node's status document (health + counters + runs)
//	GET  /v1/fleet/status      fleet-wide status merged over every peer
//	GET  /healthz     liveness (the /v1/healthz document)
//	GET  /v1/healthz  node identity, ring membership, queue depth
//	GET  /metrics     counters, gauges, latency histograms (Prometheus text)
//
// Observability (internal/obs) is wired here: every request's latency
// lands in a node-labelled histogram, every run opens a span tree
// (run → cache.lookup → fabric.forward / store.lookup → emulate →
// policy.quantum) joined across forwards by the W3C traceparent
// header, and structured logs carry node, spec key, and trace id. All
// of it is side-channel — instrumented runs produce bit-identical
// Results.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hybridmem "repro"
	"repro/internal/fabric"
	"repro/internal/fabric/jobs"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace/library"
)

// Config parameterizes a Server.
type Config struct {
	// MaxInFlight bounds concurrent platform runs across all requests
	// (0 = one per host core). Requests past the bound wait in a
	// bounded queue and respect their context's cancellation.
	MaxInFlight int
	// MaxQueued bounds how many requests may wait for an in-flight
	// slot (0 = 8x MaxInFlight; negative = no waiting). Requests past
	// the queue are rejected with 429 + Retry-After.
	MaxQueued int
	// Node names this node in metric labels and /v1/healthz. Empty
	// defaults to the fabric's self name, or "local" without a fabric.
	Node string
	// Fabric, when non-nil, makes this server one node of a sharded
	// cluster: runs whose canonical key hashes to a peer are forwarded
	// there, and forwarded-in requests always execute locally.
	Fabric *fabric.Fabric
	// Registry collects the server's metrics. Nil builds a private one;
	// pass a shared registry to co-host several servers' series on one
	// /metrics page.
	Registry *obs.Registry
	// Tracer records run-lifecycle spans. Nil builds one named after
	// the node, optionally sinking to SpanSink.
	Tracer *obs.Tracer
	// SpanSink, when Tracer is nil, additionally streams every finished
	// span to this writer as ndjson (e.g. a file for offline analysis).
	// Ignored when Tracer is set.
	SpanSink io.Writer
	// Logger receives the server's structured logs. Nil falls back to
	// slog.Default() with a node attribute.
	Logger *slog.Logger
	// RecentRuns bounds the flight recorder's ring of finished runs
	// served by GET /v1/runs (0 = 256).
	RecentRuns int
	// TraceLibrary, when non-nil, is the node's compacted trace store:
	// GET /v1/trace serves resident traces from it without emulating
	// (and ingests freshly recorded ones into it), POST /v1/autotune
	// prices grids against resident traces instead of re-recording, and
	// /v1/run + /v1/sweep answer at replay speed from it under
	// ?answer=auto|estimate. hybridserved wires it up with
	// -trace-library.
	TraceLibrary *library.Library
	// ValidateEvery, with a TraceLibrary configured, runs the estimate
	// drift validator on this period: each tick re-runs one recently
	// estimated spec live, records the observed relative error in the
	// hybridserved_estimate_drift histogram, and refreshes the resident
	// trace when the error exceeds the estimate tolerance. 0 disables
	// the background loop (ValidateOnce stays available). Stop it with
	// Server.Close. hybridserved wires it up with -estimate-validate.
	ValidateEvery time.Duration
}

// Server routes the hybridserved API onto one shared Platform. It is
// an http.Handler; all endpoints are safe for concurrent use.
type Server struct {
	p        *hybridmem.Platform
	adm      *jobs.Admission
	fab      *fabric.Fabric // nil = single node
	node     string
	mux      *http.ServeMux
	tel      *obs.Telemetry
	log      *slog.Logger
	runs     *RunRegistry     // the node's flight recorder
	lib      *library.Library // nil = no trace library
	probe    *http.Client     // fleet-status fan-out probe
	runSec   *obs.Histogram   // /v1/run request latency
	sweepSec *obs.Histogram   // /v1/sweep request latency
	requests atomic.Uint64

	// Trace-library counters: requests answered from a resident trace
	// vs requests that fell through to a live emulation.
	libHits   atomic.Uint64
	libMisses atomic.Uint64

	// Estimate-tier counters: run/sweep answers served at replay speed
	// vs estimate attempts that fell through to a compute. The drift
	// validator (nil without a trace library) ground-truths served
	// estimates in the background.
	estimated atomic.Uint64
	estMisses atomic.Uint64
	validator *driftValidator

	// Fabric counters (also maintained single-node, where coalesced
	// still counts requests served without a fresh compute).
	forwarded atomic.Uint64 // runs served by a peer owner's response
	coalesced atomic.Uint64 // runs served by joining/reusing existing work
	degraded  atomic.Uint64 // forwards abandoned for local execution
}

// New builds a Server on the platform. The platform's durable store
// (if configured) is opened eagerly so a bad -store directory fails at
// startup, not on the first request. The platform the server actually
// runs on is derived with the node's telemetry attached — telemetry is
// outside result identity, so it still shares cache and store entries
// with the caller's platform.
func New(p *hybridmem.Platform, cfg Config) (*Server, error) {
	n := cfg.MaxInFlight
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	q := cfg.MaxQueued
	if q == 0 {
		q = 8 * n // a negative bound is NewAdmission's "no waiting"
	}
	node := cfg.Node
	if node == "" {
		if cfg.Fabric != nil {
			node = cfg.Fabric.Self()
		} else {
			node = "local"
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(node, obs.WithSpanSink(cfg.SpanSink))
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default().With("node", node)
	}
	runs := NewRunRegistry(node, cfg.RecentRuns)
	tel := &obs.Telemetry{Node: node, Metrics: reg, Tracer: tracer, Logger: logger, Runs: runs}
	// Attach telemetry before the eager store open so the store tier is
	// instrumented from its first byte of replay.
	p = p.With(hybridmem.WithTelemetry(tel))
	if cfg.TraceLibrary != nil {
		// One estimator (and one decoded-trace cache) serves every
		// platform variant this server derives per request.
		p = p.With(hybridmem.WithTraceLibrary(cfg.TraceLibrary))
	}
	if _, err := p.Store(); err != nil {
		return nil, err
	}
	s := &Server{p: p, adm: jobs.NewAdmission(n, q), fab: cfg.Fabric, node: node, mux: http.NewServeMux(), tel: tel, log: logger,
		runs: runs, lib: cfg.TraceLibrary, probe: &http.Client{Timeout: statusProbeTimeout}}
	lbl := obs.Labels{"node": node}
	s.runSec = reg.Histogram("hybridserved_run_seconds",
		"Latency of /v1/run requests (including forwards).", lbl, nil)
	s.sweepSec = reg.Histogram("hybridserved_sweep_seconds",
		"Latency of whole /v1/sweep requests.", lbl, nil)
	s.adm.SetWaitObserver(reg.Histogram("hybridserved_admission_wait_seconds",
		"Time queued requests waited for an in-flight slot.", lbl, nil))
	if s.fab != nil {
		s.fab.Instrument(tel)
	}
	if cfg.TraceLibrary != nil {
		s.validator = newDriftValidator(s, reg, lbl)
		if cfg.ValidateEvery > 0 {
			s.validator.start(cfg.ValidateEvery)
		}
	}
	s.registerMetrics(reg, lbl)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/autotune", s.handleAutotune)
	s.mux.HandleFunc("GET /v1/results", s.handleResults)
	s.mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/spans", s.handleSpans)
	s.mux.HandleFunc("GET /v1/runs", s.handleRuns)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRunDetail)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/fleet/status", s.handleFleetStatus)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// registerMetrics exports the server's own state — cache tiers, store
// size, admission load, fabric counters — as function-backed series
// read at scrape time, plus build identity and Go runtime health.
// Store gauges register only when a durable store is configured,
// matching the previous hand-written exposition.
func (s *Server) registerMetrics(reg *obs.Registry, lbl obs.Labels) {
	counter := func(name, help string, fn func() float64) { reg.CounterFunc(name, help, lbl, fn) }
	gauge := func(name, help string, fn func() float64) { reg.GaugeFunc(name, help, lbl, fn) }
	counter("hybridserved_cache_hits_total", "Runs served from the in-memory result cache.",
		func() float64 { return float64(s.p.CacheStats().Hits) })
	counter("hybridserved_cache_misses_total", "Runs that missed the in-memory result cache.",
		func() float64 { return float64(s.p.CacheStats().Misses) })
	gauge("hybridserved_cache_entries", "Entries held by the in-memory result cache.",
		func() float64 { return float64(s.p.CacheStats().Entries) })
	counter("hybridserved_store_hits_total", "Runs restored from the durable store.",
		func() float64 { return float64(s.p.CacheStats().DiskHits) })
	counter("hybridserved_store_misses_total", "Runs the platform had to compute.",
		func() float64 { return float64(s.p.CacheStats().DiskMisses) })
	counter("hybridserved_store_put_failures_total", "Write-through appends that failed.",
		func() float64 { return float64(s.p.CacheStats().StorePutFailures) })
	if st, err := s.p.Store(); err == nil && st != nil {
		gauge("hybridserved_store_records", "Live records in the durable store.",
			func() float64 { return float64(st.Stats().Records) })
		gauge("hybridserved_store_segments", "Segment files in the durable store.",
			func() float64 { return float64(st.Stats().Segments) })
		gauge("hybridserved_store_bytes", "Total size of the durable store's segments.",
			func() float64 { return float64(st.Stats().Bytes) })
	}
	gauge("hybridserved_inflight_runs", "Platform runs currently executing.",
		func() float64 { inflight, _ := s.adm.Depth(); return float64(inflight) })
	gauge("hybridserved_queue_depth", "Requests waiting for an in-flight slot.",
		func() float64 { _, queued := s.adm.Depth(); return float64(queued) })
	counter("hybridserved_rejected_total", "Requests shed with 429 by admission control.",
		func() float64 { return float64(s.adm.Rejected()) })
	counter("hybridserved_requests_total", "HTTP requests received.",
		func() float64 { return float64(s.requests.Load()) })
	counter("fabric_forwarded_total", "Runs served by forwarding to their ring owner.",
		func() float64 { return float64(s.forwarded.Load()) })
	counter("fabric_coalesced_total", "Runs served by joining or reusing existing work.",
		func() float64 { return float64(s.coalesced.Load()) })
	counter("fabric_degraded_total", "Forwards abandoned for local execution.",
		func() float64 { return float64(s.degraded.Load()) })
	if s.lib != nil {
		counter("hybridserved_trace_library_hits_total",
			"Trace and autotune requests served from the compacted trace library.",
			func() float64 { return float64(s.libHits.Load()) })
		counter("hybridserved_trace_library_misses_total",
			"Trace and autotune requests that fell through to a live emulation.",
			func() float64 { return float64(s.libMisses.Load()) })
		gauge("hybridserved_trace_library_traces",
			"Traces resident in the compacted trace library.",
			func() float64 { return float64(s.lib.Len()) })
		counter("hybridserved_estimate_hits_total",
			"Run/sweep answers served by the estimate tier at replay speed.",
			func() float64 { return float64(s.estimated.Load()) })
		counter("hybridserved_estimate_misses_total",
			"Estimate attempts that fell through to a platform compute.",
			func() float64 { return float64(s.estMisses.Load()) })
		counter("hybridserved_estimate_loads_total",
			"Library traces read and decoded by the estimator (coalesced across concurrent estimates).",
			func() float64 { return float64(s.p.EstimateStats().Loads) })
	}
	reg.GaugeFunc("hybridserved_build_info",
		"Build identity of this node; the value is always 1.",
		obs.Labels{"node": s.node, "goversion": runtime.Version()},
		func() float64 { return 1 })
	obs.RegisterGoRuntime(reg, lbl)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// RunRequest selects one experiment by its public names, as parsed by
// the hybridmem.Parse* functions. Zero values take the platform
// defaults (collector PCM-Only, 1 instance, default dataset, the
// platform's mode).
type RunRequest struct {
	App       string `json:"app"`
	Collector string `json:"collector,omitempty"`
	Instances int    `json:"instances,omitempty"`
	Dataset   string `json:"dataset,omitempty"`
	Mode      string `json:"mode,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Native    bool   `json:"native,omitempty"`
	// Answer selects the answer mode (auto, estimate, or exact; empty =
	// auto). The ?answer= query parameter overrides it; the resolved
	// mode rides in the body on fabric forwards.
	Answer string `json:"answer,omitempty"`
}

// errBadRequest marks client mistakes beyond the hybridmem typed
// errors (e.g. a negative instance count).
var errBadRequest = errors.New("bad request")

// resolve parses a request into a spec and the platform variant to
// run it on.
func (s *Server) resolve(req RunRequest) (hybridmem.RunSpec, *hybridmem.Platform, error) {
	spec := hybridmem.RunSpec{AppName: req.App, Instances: req.Instances, Native: req.Native}
	if spec.Instances < 0 {
		// Reject rather than silently coercing: zero means "default to
		// one instance", a negative count is a client bug.
		return spec, nil, fmt.Errorf("%w: instances must be >= 0, got %d", errBadRequest, spec.Instances)
	}
	if req.Collector != "" {
		k, err := hybridmem.ParseCollector(req.Collector)
		if err != nil {
			return spec, nil, err
		}
		spec.Collector = k
	}
	if req.Dataset != "" {
		d, err := hybridmem.ParseDataset(req.Dataset)
		if err != nil {
			return spec, nil, err
		}
		spec.Dataset = d
	}
	p := s.p
	if req.Mode != "" {
		m, err := hybridmem.ParseMode(req.Mode)
		if err != nil {
			return spec, nil, err
		}
		p = p.With(hybridmem.WithMode(m))
	}
	if req.Policy != "" {
		pol, err := hybridmem.ParsePolicy(req.Policy)
		if err != nil {
			return spec, nil, err
		}
		p = p.With(hybridmem.WithPolicy(pol))
	}
	// Normalize so the Record echoed over HTTP equals the Record the
	// store persists, and validate against the platform's own factory
	// (which may know apps the global registry does not).
	spec = hybridmem.NormalizeSpec(spec)
	if err := p.Validate(spec); err != nil {
		return spec, nil, err
	}
	return spec, p, nil
}

// httpStatus maps an error to its response code: unparsable or unknown
// names are the client's fault, everything else the platform's.
func httpStatus(err error) int {
	for _, bad := range []error{
		hybridmem.ErrUnknownApp, hybridmem.ErrUnknownCollector,
		hybridmem.ErrUnknownDataset, hybridmem.ErrUnknownMode, hybridmem.ErrUnknownScale,
		hybridmem.ErrUnknownPolicy, errBadRequest,
	} {
		if errors.Is(err, bad) {
			return http.StatusBadRequest
		}
	}
	if errors.Is(err, errNoEstimate) {
		// answer=estimate on a spec the library cannot answer: the
		// resource (a resident trace within tolerance) does not exist.
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// fail writes a JSON error response.
func fail(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// record packages a finished run as the wire/disk Record.
func record(p *hybridmem.Platform, spec hybridmem.RunSpec, res hybridmem.Result) (store.Record, error) {
	key := p.SpecKey(spec)
	sum, err := store.Sum(key, spec, res)
	if err != nil {
		return store.Record{}, err
	}
	return store.Record{V: store.RecordVersion, Key: key, Sum: sum, Spec: spec, Result: res}, nil
}

// runLocal executes one spec on this node. Already-available results
// (memory or store) are served immediately, and duplicates of an
// in-flight run join its single-flight entry; only work that may
// actually start a compute takes an admission slot, so neither a burst
// of cached reads nor N copies of one request queue out unrelated
// work. Every request served without running the engine — a cache or
// store read, or a join onto in-flight work — counts as coalesced, so
// N identical requests always report exactly N-1 coalesced however the
// race between them resolves.
//
// The flight-recorder handle h tracks the run's lifecycle; the
// returned outcome string is what the caller passes to h.Finish.
func (s *Server) runLocal(ctx context.Context, h *RunHandle, p *hybridmem.Platform, spec hybridmem.RunSpec) (store.Record, string, error) {
	parent := obs.SpanContextFrom(ctx)
	lookupStart := time.Now()
	if res, ok := p.Peek(spec); ok {
		s.tel.Tracer.Emit(parent, "cache.lookup", lookupStart, time.Since(lookupStart),
			map[string]string{"hit": "true"})
		s.coalesced.Add(1)
		rec, err := record(p, spec, res)
		return rec, OutcomeCoalesced, err
	}
	s.tel.Tracer.Emit(parent, "cache.lookup", lookupStart, time.Since(lookupStart),
		map[string]string{"hit": "false"})
	detail := ""
	if p.Joinable(spec) {
		// The compute's slot is held by the request that started it.
		detail = "joining in-flight run"
	} else {
		release, err := s.admit(ctx, h)
		if err != nil {
			return store.Record{}, "", err
		}
		defer release()
	}
	h.Transition(RunLocal, detail)
	res, computed, err := p.RunShared(ctx, spec)
	if err != nil {
		return store.Record{}, "", err
	}
	outcome := OutcomeComputed
	if !computed {
		// Joined an identical request's compute, or lost the
		// Peek/Joinable race to one: the single-flight group served it.
		s.coalesced.Add(1)
		outcome = OutcomeCoalesced
	}
	rec, err := record(p, spec, res)
	return rec, outcome, err
}

// dispatch routes one run to the node owning its canonical key. Without
// a fabric — or for requests a peer already forwarded here — it runs
// locally. A forward that cannot get a usable answer (unreachable peer
// past the retry budget, a non-200 response, a torn body) degrades to
// local execution: the fleet loses sharding efficiency for that key,
// never the run.
func (s *Server) dispatch(ctx context.Context, h *RunHandle, forwardedIn bool, p *hybridmem.Platform, spec hybridmem.RunSpec, wire RunRequest) (store.Record, string, error) {
	if s.fab == nil || forwardedIn {
		return s.runLocal(ctx, h, p, spec)
	}
	owner := s.fab.Owner(p.SpecKey(spec))
	if owner == s.fab.Self() {
		return s.runLocal(ctx, h, p, spec)
	}
	// A locally known result needs no network hop, wherever the key
	// lives on the ring.
	if res, ok := p.Peek(spec); ok {
		s.coalesced.Add(1)
		rec, err := record(p, spec, res)
		return rec, OutcomeCoalesced, err
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return store.Record{}, "", err
	}
	// Forwarded runs leave this node's active set: the owner's own
	// flight recorder carries the executing record, so fleet-wide
	// aggregation counts the run exactly once.
	h.Transition(RunForwarded, "owner "+owner)
	rec, err := s.forward(ctx, owner, body)
	if err == nil {
		s.forwarded.Add(1)
		return rec, OutcomeForwarded, nil
	}
	if ctx.Err() != nil {
		return store.Record{}, "", ctx.Err()
	}
	// The owner is unreachable or would not serve (overloaded, draining,
	// mid-upgrade): this node already validated the request, so run it
	// here under its own admission control instead.
	s.degraded.Add(1)
	h.Degraded()
	s.log.Warn("forward degraded to local run", "owner", owner, "key", p.SpecKey(spec), "err", err)
	return s.runLocal(ctx, h, p, spec)
}

// forward sends one run to its owner under a "fabric.forward" span,
// whose context rides the request as a traceparent header so the
// owner's spans join this trace. Anything but a 200 carrying a
// decodable Record is an error.
func (s *Server) forward(ctx context.Context, owner string, body []byte) (store.Record, error) {
	fctx, fsp := s.tel.Tracer.Start(ctx, "fabric.forward")
	defer fsp.End()
	fsp.SetAttr("owner", owner)
	var rec store.Record
	resp, err := s.fab.Forward(fctx, owner, body)
	if err != nil {
		fsp.SetAttr("outcome", "transport-error")
		return rec, err
	}
	fsp.SetAttr("status", strconv.Itoa(resp.Status))
	if resp.Status != http.StatusOK {
		return rec, fmt.Errorf("owner answered status %d", resp.Status)
	}
	if err := json.Unmarshal(resp.Body, &rec); err != nil {
		return rec, fmt.Errorf("torn forward response: %w", err)
	}
	return rec, nil
}

// lifecycle is one request's span and flight-recorder record, opened
// together by begin and closed together by end.
type lifecycle struct {
	sp *obs.Span
	h  *RunHandle
}

// begin opens a request's lifecycle: a span named after the run kind —
// continuing the traceparent in hdr when there is one, else the span
// ctx carries — and the flight-recorder record keyed by that span's
// ID, which is the ObsParent the emulator core reports progress under.
// attrs are span attribute name/value pairs; empty values are skipped.
// hdr's fabric forward header names the record's origin.
func (s *Server) begin(ctx context.Context, hdr http.Header, kind, app, key string, attrs ...string) (context.Context, lifecycle) {
	if sc, ok := obs.ParseTraceparent(hdr.Get("traceparent")); ok {
		ctx = obs.ContextWithRemote(ctx, sc)
	}
	ctx, sp := s.tel.Tracer.Start(ctx, kind)
	attrs = append([]string{"app", app, "key", key}, attrs...)
	for i := 0; i+1 < len(attrs); i += 2 {
		if attrs[i+1] != "" {
			sp.SetAttr(attrs[i], attrs[i+1])
		}
	}
	sc := sp.Context()
	return ctx, lifecycle{sp: sp, h: s.runs.Begin(kind, app, key, sc.TraceID, sc.SpanID, hdr.Get(fabric.ForwardHeader))}
}

// end closes the span, marking it with the error if there is one, and
// finishes the record with outcome.
func (l lifecycle) end(outcome string, err error) {
	if err != nil {
		l.sp.SetAttr("error", err.Error())
	}
	l.sp.End()
	l.h.Finish(outcome, err)
}

// admit takes an admission slot for work that computes and marks the
// run admitted (h may be nil for work with no record). The caller must
// call release exactly once.
func (s *Server) admit(ctx context.Context, h *RunHandle) (release func(), err error) {
	release, err = s.adm.Acquire(ctx)
	if err == nil {
		h.Transition(RunAdmitted, "")
	}
	return release, err
}

// failRun maps a run error onto the wire, translating admission
// rejection into 429 + Retry-After.
func (s *Server) failRun(w http.ResponseWriter, err error) {
	if errors.Is(err, jobs.ErrOverloaded) {
		w.Header().Set("Retry-After", "1")
		fail(w, http.StatusTooManyRequests, err)
		return
	}
	fail(w, httpStatus(err), err)
}

// handleRun serves POST /v1/run: one experiment, responded to as the
// same Record schema the store segments persist. Each request opens a
// "run" span — continuing the sender's trace when a traceparent header
// arrived — so a run forwarded across the fabric shows up as one
// distributed trace: entry-node dispatch, owner-node execution, and
// the engine's per-quantum work, all under a single trace id.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	spec, p, err := s.resolve(req)
	if err != nil {
		fail(w, httpStatus(err), err)
		return
	}
	mode, err := answerMode(r.URL.Query().Get("answer"), req.Answer)
	if err != nil {
		fail(w, httpStatus(err), err)
		return
	}
	// The resolved mode rides in the body on forwards, where query
	// parameters do not travel.
	req.Answer = mode
	key := p.SpecKey(spec)
	forwardedIn := r.Header.Get(fabric.ForwardHeader) != ""
	forwarded := ""
	if forwardedIn {
		forwarded = "true"
	}
	ctx, l := s.begin(r.Context(), r.Header, "run", spec.AppName, key, "forwarded", forwarded)
	rec, outcome, err := s.answer(ctx, l.h, mode, forwardedIn, p, spec, req)
	l.end(outcome, err)
	s.runSec.Observe(time.Since(start).Seconds())
	if err != nil {
		s.log.Warn("run failed", "app", spec.AppName, "key", key,
			"trace", l.sp.Context().TraceID, "err", err)
		s.failRun(w, err)
		return
	}
	s.log.Debug("run served", "app", spec.AppName, "key", key,
		"trace", l.sp.Context().TraceID, "source", answerSource(outcome),
		"seconds", time.Since(start).Seconds())
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Answer-Source", answerSource(outcome))
	json.NewEncoder(w).Encode(rec)
}

// SweepRequest enumerates a grid by its public names. Empty dimensions
// take the Sweep defaults (the full registry, all eight collectors,
// one instance, the default dataset).
type SweepRequest struct {
	Apps       []string `json:"apps,omitempty"`
	Collectors []string `json:"collectors,omitempty"`
	Instances  []int    `json:"instances,omitempty"`
	Datasets   []string `json:"datasets,omitempty"`
	Mode       string   `json:"mode,omitempty"`
	// Policies sweeps placement policies: the spec grid runs once per
	// named policy on a derived platform. Empty means the server
	// platform's own policy.
	Policies []string `json:"policies,omitempty"`
	Native   bool     `json:"native,omitempty"`
	// Answer selects the answer mode applied to every cell (auto,
	// estimate, or exact; empty = auto). The ?answer= query parameter
	// overrides it. Under estimate, cells the library cannot answer
	// become in-stream item errors, never computes.
	Answer string `json:"answer,omitempty"`
}

// SweepItem is one line of a /v1/sweep response stream. Index aligns
// the item with the request grid expanded in Sweep.Specs order
// (app-major, then collector, instances, dataset), repeated
// policy-major when the request sweeps policies; items arrive in
// completion order. Policy echoes the placement policy of the item's
// pass when the request named any.
type SweepItem struct {
	Index  int               `json:"index"`
	Key    string            `json:"key,omitempty"`
	Sum    string            `json:"sum,omitempty"`
	Policy string            `json:"policy,omitempty"`
	Spec   hybridmem.RunSpec `json:"spec"`
	Result *hybridmem.Result `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// handleSweep serves POST /v1/sweep: the grid streams back as JSON
// lines as runs complete, so a client watching a long sweep sees
// progress immediately and cached entries instantly.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	mode, err := answerMode(r.URL.Query().Get("answer"), req.Answer)
	if err != nil {
		fail(w, httpStatus(err), err)
		return
	}
	sweep := hybridmem.NewSweep(req.Apps...)
	if len(req.Collectors) > 0 {
		ks := make([]hybridmem.Collector, len(req.Collectors))
		for i, name := range req.Collectors {
			k, err := hybridmem.ParseCollector(name)
			if err != nil {
				fail(w, http.StatusBadRequest, err)
				return
			}
			ks[i] = k
		}
		sweep.Collectors(ks...)
	}
	if len(req.Instances) > 0 {
		for _, n := range req.Instances {
			if n < 0 {
				fail(w, http.StatusBadRequest,
					fmt.Errorf("%w: instances must be >= 0, got %d", errBadRequest, n))
				return
			}
		}
		sweep.Instances(req.Instances...)
	}
	if len(req.Datasets) > 0 {
		ds := make([]hybridmem.Dataset, len(req.Datasets))
		for i, name := range req.Datasets {
			d, err := hybridmem.ParseDataset(name)
			if err != nil {
				fail(w, http.StatusBadRequest, err)
				return
			}
			ds[i] = d
		}
		sweep.Datasets(ds...)
	}
	if req.Native {
		sweep.Native()
	}
	p := s.p
	if req.Mode != "" {
		m, err := hybridmem.ParseMode(req.Mode)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		p = p.With(hybridmem.WithMode(m))
	}
	// A policies dimension expands the grid policy-major: the spec
	// grid repeats once per policy on a derived platform, matching
	// the RunSweep alignment.
	type cell struct {
		p      *hybridmem.Platform
		spec   hybridmem.RunSpec
		policy string
	}
	platforms := []*hybridmem.Platform{p}
	policyNames := []string{""}
	if len(req.Policies) > 0 {
		platforms = platforms[:0]
		policyNames = policyNames[:0]
		for _, name := range req.Policies {
			pol, err := hybridmem.ParsePolicy(name)
			if err != nil {
				fail(w, http.StatusBadRequest, err)
				return
			}
			platforms = append(platforms, p.With(hybridmem.WithPolicy(pol)))
			policyNames = append(policyNames, pol.String())
		}
	}
	specs := sweep.Specs()
	cells := make([]cell, 0, len(platforms)*len(specs))
	for pi, pp := range platforms {
		for _, spec := range specs {
			// Normalize and validate the whole grid before the stream
			// starts: errors after the 200 header can only go in-stream.
			spec = hybridmem.NormalizeSpec(spec)
			if err := pp.Validate(spec); err != nil {
				fail(w, httpStatus(err), err)
				return
			}
			cells = append(cells, cell{p: pp, spec: spec, policy: policyNames[pi]})
		}
	}

	// The sweep parent tracks grid completion; each cell gets its own
	// flight-recorder record (and its own "run" span, so the core's
	// progress callbacks route per cell, not per sweep).
	ctx, sl := s.begin(r.Context(), r.Header, "sweep", "", "", "cells", strconv.Itoa(len(cells)))
	sl.h.SetCells(len(cells))
	sl.h.Transition(RunAdmitted, "")

	w.Header().Set("Content-Type", "application/x-ndjson")
	// The stream mixes provenances under auto; the header echoes the
	// mode, each item's Result carries its own Estimated tag.
	w.Header().Set("X-Answer-Source", mode)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var writeMu sync.Mutex
	enc := json.NewEncoder(w)
	// Cells never fail the pool — their errors go in-stream — so it
	// stops early only when the client goes away.
	workers, _ := s.adm.Capacity()
	err = jobs.Pool(ctx, workers, len(cells), func(ctx context.Context, i int) error {
		c := cells[i]
		// Reconstruct the cell as a wire request so it can be forwarded
		// to its ring owner; every field round-trips through the same
		// Parse* functions the peer resolves with, and both sides
		// normalize, so the peer lands on the identical spec and
		// canonical key.
		wire := RunRequest{
			App:       c.spec.AppName,
			Collector: c.spec.Collector.String(),
			Instances: c.spec.Instances,
			Dataset:   c.spec.Dataset.String(),
			Mode:      req.Mode,
			Policy:    c.policy,
			Native:    c.spec.Native,
			Answer:    mode,
		}
		cctx, cl := s.begin(ctx, nil, "run", c.spec.AppName, c.p.SpecKey(c.spec), "cell", strconv.Itoa(i))
		rec, outcome, err := s.answer(cctx, cl.h, mode, false, c.p, c.spec, wire)
		cl.end(outcome, err)
		sl.h.CellDone()
		item := SweepItem{Index: i, Key: rec.Key, Sum: rec.Sum, Policy: c.policy, Spec: rec.Spec, Result: &rec.Result}
		if err != nil {
			// Per-item failures stay in-stream: the rest of the grid
			// keeps going, the client sees which cell broke.
			item = SweepItem{Index: i, Policy: c.policy, Spec: c.spec, Error: err.Error()}
		}
		writeMu.Lock()
		defer writeMu.Unlock()
		enc.Encode(item)
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	sl.end("", err)
	s.sweepSec.Observe(time.Since(start).Seconds())
	s.log.Debug("sweep served", "cells", len(cells),
		"trace", sl.sp.Context().TraceID, "seconds", time.Since(start).Seconds())
}

// flushWriter streams every trace record to the client as it is
// written, so a dashboard tailing /v1/trace sees quanta live while the
// run is still executing.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// handleTrace serves GET /v1/trace: the compacted placement trace of
// the experiment selected by the query parameters (?app=, ?collector=,
// ?instances=, ?dataset=, ?mode=, ?policy=, ?native=). Feed the stream
// to cmd/policyreplay (or hybridmem.ReplayTrace) to prototype policies
// against it offline.
//
// With a trace library configured, the request is answered from the
// resident trace covering the spec's neighborhood when one exists —
// no emulation, no concurrency slot — and a live recording is ingested
// into the library on the way out otherwise, so the library warms up
// from traffic. ?source=library insists on a resident trace (404 on a
// miss); ?source=live forces a fresh recording; the default (auto)
// prefers the library. The X-Trace-Source response header names which
// path answered.
//
// A live traced run always computes (a cached Result has no quanta),
// so it costs one full platform run and takes a concurrency slot.
// Validation errors are rejected before the stream starts; a platform
// failure mid-run truncates the stream, which readers surface as a
// torn tail over the valid prefix. A client that disconnects mid-
// stream cancels the emulation between scheduling quanta — the run
// stops and its slot frees instead of emulating into a dead
// connection.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := RunRequest{
		App:       q.Get("app"),
		Collector: q.Get("collector"),
		Dataset:   q.Get("dataset"),
		Mode:      q.Get("mode"),
		Policy:    q.Get("policy"),
	}
	var err error
	if req.Instances, req.Native, err = instancesNative(q); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	source := q.Get("source")
	if err := checkSource(source); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	spec, p, err := s.resolve(req)
	if err != nil {
		fail(w, httpStatus(err), err)
		return
	}
	key := p.SpecKey(spec)

	if s.lib != nil && source != "live" {
		tr, lerr := s.lib.Get(key)
		switch {
		case lerr == nil:
			s.libHits.Add(1)
			_, l := s.begin(r.Context(), r.Header, "trace", spec.AppName, key, "source", "library")
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Trace-Source", "library")
			w.Write(tr.Bytes())
			l.end(OutcomeLibrary, nil)
			return
		case !errors.Is(lerr, library.ErrNotFound):
			fail(w, http.StatusInternalServerError, lerr)
			return
		case source == "library":
			fail(w, http.StatusNotFound, lerr)
			return
		}
		s.libMisses.Add(1)
	}

	ctx, l := s.begin(r.Context(), r.Header, "trace", spec.AppName, key, "source", "live")
	// Tracing always computes, so it always takes a slot — there is no
	// cached read or joinable flight to exempt.
	release, err := s.admit(ctx, l.h)
	if err != nil {
		l.end("", err)
		s.failRun(w, err)
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Trace-Source", "live")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	_, err = s.recordLive(ctx, l.h, p, spec, flushWriter{w: w, f: flusher})
	if err != nil {
		// The 200 and (likely) part of the trace are already on the
		// wire; all that is left is to stop extending the stream. A
		// disconnected client lands here as context.Canceled — the
		// cancellation already stopped the emulation.
		s.log.Error("trace run stopped mid-stream", "app", spec.AppName, "err", err)
		l.end("", err)
		return
	}
	l.end(OutcomeComputed, nil)
}

// recordLive runs spec once under tracing and returns the recording,
// streaming it to stream as it is written when stream is non-nil. With
// a trace library it also files the recording there with the run's
// measured Result as its baseline, so the neighborhood becomes
// estimable and the next request skips the emulator. A failed ingest
// is the operator's problem (a full disk), never the requester's. The
// caller holds an admission slot.
func (s *Server) recordLive(ctx context.Context, h *RunHandle, p *hybridmem.Platform, spec hybridmem.RunSpec, stream io.Writer) ([]byte, error) {
	h.Transition(RunLocal, "")
	var trc bytes.Buffer
	sink := io.Writer(&trc)
	switch {
	case stream != nil && s.lib != nil:
		sink = io.MultiWriter(stream, &trc)
	case stream != nil:
		sink = stream // nothing reads the recording back
	}
	res, err := p.With(hybridmem.WithTrace(sink)).Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	if s.lib != nil {
		if err := p.WarmTraceLibrary(s.lib, spec, res, trc.Bytes()); err != nil {
			s.log.Error("trace library ingest failed", "app", spec.AppName, "err", err)
		}
	}
	return trc.Bytes(), nil
}

// instancesNative parses the ?instances= and ?native= parameters that
// /v1/trace selects a run by and /v1/results filters by (0 and false
// when absent).
func instancesNative(q url.Values) (instances int, native bool, err error) {
	if v := q.Get("instances"); v != "" {
		if instances, err = strconv.Atoi(v); err != nil {
			return 0, false, fmt.Errorf("bad instances %q: %w", v, err)
		}
	}
	if v := q.Get("native"); v != "" {
		if native, err = strconv.ParseBool(v); err != nil {
			return 0, false, fmt.Errorf("bad native %q: %w", v, err)
		}
	}
	return instances, native, nil
}

// checkSource validates the trace source a /v1/trace or /v1/autotune
// request names.
func checkSource(source string) error {
	switch source {
	case "", "auto", "library", "live":
		return nil
	}
	return fmt.Errorf("%w: bad source %q (want auto, library, or live)", errBadRequest, source)
}

// AutotuneGrid is the wire form of a knob grid: the cartesian product
// of the listed values per knob, empty dimensions held at their
// registry defaults, capped at hybridmem.MaxKnobGridPoints. When
// policy is omitted it is inferred from the dimensions: wear-level if
// only wearFactors is listed, write-threshold otherwise; grids that
// vary a knob their policy never reads are rejected with 400.
type AutotuneGrid struct {
	Policy          string    `json:"policy,omitempty"`
	HotWriteLines   []uint64  `json:"hotWriteLines,omitempty"`
	ColdWriteLines  []uint64  `json:"coldWriteLines,omitempty"`
	DRAMBudgetPages []uint64  `json:"dramBudgetPages,omitempty"`
	WearFactors     []float64 `json:"wearFactors,omitempty"`
}

// AutotuneRequest selects the run to record (the RunRequest fields;
// Run.Policy is the policy the trace is recorded under, defaulting to
// the grid's policy) and the knob grid to search over the recording.
// Source selects where the trace comes from when the node has a trace
// library: "auto" (default — a resident library trace if one covers
// the spec's neighborhood, else a live recording), "library" (resident
// trace or 404), or "live" (always re-record).
type AutotuneRequest struct {
	Run    RunRequest   `json:"run"`
	Grid   AutotuneGrid `json:"grid"`
	Source string       `json:"source,omitempty"`
}

// handleAutotune serves POST /v1/autotune: a traced run of the
// requested spec (a resident library trace when the node's trace
// library covers the spec's neighborhood, a live in-memory recording
// otherwise), then an offline knob-grid search over it — the response
// is the hybridmem.Autotune report: every evaluated point, the Pareto
// frontier on (stall cycles, PCM writes), and the recommended knob
// set. A library-served grid costs zero platform runs; a live one
// costs exactly one regardless of grid size — the grid itself is
// always priced by replay.
func (s *Server) handleAutotune(w http.ResponseWriter, r *http.Request) {
	var req AutotuneRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	grid := hybridmem.KnobGrid{
		HotWriteLines:   req.Grid.HotWriteLines,
		ColdWriteLines:  req.Grid.ColdWriteLines,
		DRAMBudgetPages: req.Grid.DRAMBudgetPages,
		WearFactors:     req.Grid.WearFactors,
	}
	switch {
	case req.Grid.Policy != "":
		pol, err := hybridmem.ParsePolicy(req.Grid.Policy)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		grid.Policy = pol
	case len(grid.WearFactors) > 0 && len(grid.HotWriteLines) == 0 &&
		len(grid.ColdWriteLines) == 0 && len(grid.DRAMBudgetPages) == 0:
		// Only the wear knob varies: the client means wear-level —
		// write-threshold would price every point identically.
		grid.Policy = hybridmem.WearLevel
	default:
		grid.Policy = hybridmem.WriteThreshold
	}
	if err := grid.Validate(); err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	if req.Run.Policy == "" {
		// Record under the grid's policy by default, so the recorded
		// views carry the decision history the grid is tuning.
		req.Run.Policy = grid.Policy.String()
	}
	spec, p, err := s.resolve(req.Run)
	if err != nil {
		fail(w, httpStatus(err), err)
		return
	}
	if spec.Native {
		// Native runs take no GC safepoints: the trace would hold zero
		// quanta and every grid point would price to nothing.
		fail(w, http.StatusBadRequest,
			fmt.Errorf("%w: native runs have no policy quanta to autotune", errBadRequest))
		return
	}
	if err := checkSource(req.Source); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	key := p.SpecKey(spec)

	if s.lib != nil && req.Source != "live" {
		tr, lerr := p.ResidentTrace(spec)
		switch {
		case lerr == nil:
			// Price the grid against the resident trace, decoded once
			// per library generation by the estimate tier: no
			// emulation, no admission slot — replay is milliseconds of
			// CPU.
			s.libHits.Add(1)
			ctx, l := s.begin(r.Context(), r.Header, "autotune", spec.AppName, key, "source", "library")
			rep, aerr := tr.Autotune(ctx, grid)
			if aerr != nil {
				l.end("", aerr)
				fail(w, http.StatusInternalServerError, aerr)
				return
			}
			l.end(OutcomeLibrary, nil)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Trace-Source", "library")
			json.NewEncoder(w).Encode(rep)
			return
		case req.Source == "library":
			fail(w, http.StatusNotFound, lerr)
			return
		}
		s.libMisses.Add(1)
	}

	ctx, l := s.begin(r.Context(), r.Header, "autotune", spec.AppName, key)
	// The traced recording always computes, so it always takes a slot.
	release, err := s.admit(ctx, l.h)
	if err != nil {
		l.end("", err)
		s.failRun(w, err)
		return
	}
	defer release()

	trc, err := s.recordLive(ctx, l.h, p, spec, nil)
	if err != nil {
		l.end("", err)
		fail(w, httpStatus(err), err)
		return
	}
	l.end(OutcomeComputed, nil)
	rep, err := hybridmem.Autotune(ctx, bytes.NewReader(trc), grid)
	if err != nil {
		// The recording is in memory and freshly written; corruption
		// here is a server bug, not client input.
		fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Trace-Source", "live")
	json.NewEncoder(w).Encode(rep)
}

// handlePolicies serves GET /v1/policies: the placement policies the
// engine offers, with the default flagged.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	type policyInfo struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		Default     bool   `json:"default,omitempty"`
	}
	var out []policyInfo
	for _, k := range hybridmem.Policies() {
		out = append(out, policyInfo{
			Name:        k.String(),
			Description: k.Description(),
			Default:     k == s.p.PolicyKind(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Count    int          `json:"count"`
		Policies []policyInfo `json:"policies"`
	}{Count: len(out), Policies: out})
}

// handleResults serves GET /v1/results: the durable store's listing,
// filtered by spec fields (?app=, ?collector=, ?dataset=, ?instances=,
// ?native=) and paged with ?limit= and ?offset= over the filtered,
// key-ordered records. The response's total counts every match so a
// client can page through without a second query.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	st, err := s.p.Store()
	if err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	if st == nil {
		fail(w, http.StatusNotImplemented, errors.New("no durable store configured (start hybridserved with -store)"))
		return
	}
	q := r.URL.Query()
	var fs filters[store.Record]
	fs.equal(q, "app", func(rec store.Record) string { return rec.Spec.AppName })
	if name := q.Get("collector"); name != "" {
		k, err := hybridmem.ParseCollector(name)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		fs = append(fs, func(rec store.Record) bool { return !rec.Spec.Native && rec.Spec.Collector == k })
	}
	if name := q.Get("dataset"); name != "" {
		d, err := hybridmem.ParseDataset(name)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		fs = append(fs, func(rec store.Record) bool { return rec.Spec.Dataset == d })
	}
	n, native, err := instancesNative(q)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	if q.Get("instances") != "" {
		fs = append(fs, func(rec store.Record) bool { return rec.Spec.Instances == n })
	}
	if q.Get("native") != "" {
		fs = append(fs, func(rec store.Record) bool { return rec.Spec.Native == native })
	}
	limit, offset, err := window(q)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	recs := st.List(fs.match)
	total := len(recs)
	recs = cut(recs, limit, offset)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Count   int            `json:"count"`
		Total   int            `json:"total"`
		Offset  int            `json:"offset"`
		Records []store.Record `json:"records"`
	}{Count: len(recs), Total: total, Offset: offset, Records: recs})
}

// filters ANDs a listing's per-parameter predicates.
type filters[T any] []func(T) bool

// match reports whether v passes every filter.
func (fs filters[T]) match(v T) bool {
	for _, f := range fs {
		if !f(v) {
			return false
		}
	}
	return true
}

// equal adds a filter keeping the items whose field equals the query
// parameter name, when the query sets it.
func (fs *filters[T]) equal(q url.Values, name string, field func(T) string) {
	if want := q.Get(name); want != "" {
		*fs = append(*fs, func(v T) bool { return field(v) == want })
	}
}

// queryCount parses the query parameter name as a non-negative integer,
// returning def when the query does not set it.
func queryCount(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%w: %s must be a non-negative integer, got %q", errBadRequest, name, v)
	}
	return n, nil
}

// window parses a listing's ?limit= (-1 when absent: no limit) and
// ?offset=.
func window(q url.Values) (limit, offset int, err error) {
	if limit, err = queryCount(q, "limit", -1); err != nil {
		return 0, 0, err
	}
	offset, err = queryCount(q, "offset", 0)
	return limit, offset, err
}

// cut returns the limit items of a listing from offset on (nil past
// its end).
func cut[T any](items []T, limit, offset int) []T {
	if offset >= len(items) {
		return nil
	}
	items = items[offset:]
	if limit >= 0 && limit < len(items) {
		items = items[:limit]
	}
	return items
}

// handleHealthz serves GET /healthz and GET /v1/healthz: the node's
// identity, its view of the ring membership, and its
// admission-controller load — the endpoint a cluster supervisor (or
// the CI smoke test) polls to decide a node is up and agreeing on
// topology. The fields are those of the node status document.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.nodeStatus()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":      st.Status,
		"node":        st.Node,
		"inflight":    st.Inflight,
		"queued":      st.Queued,
		"maxInflight": st.MaxInflight,
		"maxQueued":   st.MaxQueued,
		"ring":        st.Ring,
	})
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (0.0.4): the platform cache's two tiers, the server's own
// gauges, the fabric counters, latency histograms, build info, and Go
// runtime health. Every series carries a node label so a scraper
// aggregating a fleet can tell the nodes apart. See
// docs/observability.md for the full catalog.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.Metrics.WritePrometheus(w)
}

// handleSpans serves GET /v1/spans: the tracer's most recent finished
// spans as ndjson, oldest first, capped by ?limit=. ?trace=<id> keeps
// only one trace's spans — the deep link /v1/runs/{id} hands out, so a
// client can pull exactly one run's span tree without filtering client
// side (?limit= then caps the window *scanned*, not the matches). The
// ring holds a bounded window — scrape it after the runs of interest,
// or start the daemon with -spans FILE for a complete record.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, err := queryCount(q, "limit", 0)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	var fs filters[obs.SpanRecord]
	fs.equal(q, "trace", func(rec obs.SpanRecord) string { return rec.Trace })
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, rec := range s.tel.Tracer.Recent(limit) {
		if fs.match(rec) {
			enc.Encode(rec)
		}
	}
}
