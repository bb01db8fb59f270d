// Package estimate is the estimate-first serving tier: it answers a
// normalized spec from a library-resident trace in the same
// neighborhood, at replay speed instead of emulation speed.
//
// The library files one recorded trace per spec neighborhood (the
// canonical key minus the policy segment) together with the recorded
// run's exact Result — the measured baseline. An estimate re-drives
// the requested policy/knobs over the recorded views with
// trace.ReplayDecoded and maps the replay outputs onto that baseline:
// migration totals are taken from the replay outright (they are the
// recorded executed costs when the replay matches the recorded action
// stream, knob-priced estimates when it diverges), and the
// policy-sensitive write placement and residency move as deltas
// against the baseline, so fields replay cannot see (wall time,
// runtime stats, read traffic) stay anchored to a measured run. The
// synthesized Result is tagged Estimated with an EstimateInfo
// annotation naming the source trace, the replayed policy, and the
// Tolerance/Confidence bound — it is an answer about the same
// experiment, priced from one emulation instead of another.
//
// Decoded traces are cached per neighborhood and loads are coalesced:
// N concurrent estimates against one resident trace perform one file
// read and one decode, then replay concurrently over the shared
// quanta (ReplayDecoded never mutates them). The cache revalidates
// against the library's mutation generation, so a Put or Evict is
// picked up by the next estimate without a watcher. Trace hands the
// same decoded quanta to other offline pricing — the server's
// library-sourced autotune grids — so a resident trace is decoded
// once per library generation whatever asks.
package estimate

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/trace/library"
)

// Tolerance is the relative error bound the estimate tier promises on
// the migration fields (stall cycles, pages migrated) of an estimated
// Result — the same bound the autotuner's live validation measures,
// and the one the drift validator evicts library traces for breaking.
const Tolerance = autotune.EstimateTolerance

// ErrNoBase reports a resident trace ingested without its measured
// baseline Result: replay can price the migration fields, but there is
// nothing to anchor the rest of the Result to, so the estimate tier
// treats the neighborhood as a miss.
var ErrNoBase = errors.New("estimate: library trace has no measured baseline")

// ErrPolicyDistance reports a request the resident trace cannot answer
// within Tolerance: a migrating policy estimated from a trace recorded
// under a different policy kind. The recorded views embed the
// recording policy's placement history, so a different migrating
// policy replayed over them prices a run that never happened —
// measured error approaches 1.0, not 0.25. Knob variation within one
// kind (the autotuner's validated ~5% path) and non-migrating
// requests (whose replays emit no actions and land exactly) stay
// estimable; everything else is a miss that falls through to compute.
var ErrPolicyDistance = errors.New("estimate: requested policy too far from recorded trace")

// Base is the sidecar the estimate tier files with a library trace:
// the recorded run's canonical key, spec, and exact Result.
type Base struct {
	Key    string       `json:"key"`
	Spec   core.RunSpec `json:"spec"`
	Result core.Result  `json:"result"`
}

// EncodeBase serializes a Base for library.PutWithBase.
func EncodeBase(key string, spec core.RunSpec, res core.Result) ([]byte, error) {
	return json.Marshal(Base{Key: key, Spec: spec, Result: res})
}

// Stats is a snapshot of an Estimator's behaviour. Hits counts
// estimates served; Misses counts requests that fell through (no
// resident trace, no baseline, or an unreadable entry); Loads counts
// actual library reads+decodes — with coalescing, N concurrent
// estimates over one warm neighborhood cost one load.
type Stats struct {
	Hits   uint64
	Misses uint64
	Loads  uint64
}

// Estimator answers specs from a trace library. Safe for concurrent
// use; one Estimator should be shared by everything serving from one
// library so the decode cache is shared too.
type Estimator struct {
	lib *library.Library

	mu    sync.Mutex
	cache map[string]*entry // neighborhood -> decoded trace

	hits   atomic.Uint64
	misses atomic.Uint64
	loads  atomic.Uint64
}

// New builds an Estimator over lib (nil lib yields a nil Estimator,
// which misses everything).
func New(lib *library.Library) *Estimator {
	if lib == nil {
		return nil
	}
	return &Estimator{lib: lib, cache: map[string]*entry{}}
}

// Stats returns a snapshot of the estimator's counters. A nil
// Estimator reports zeros.
func (e *Estimator) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	return Stats{Hits: e.hits.Load(), Misses: e.misses.Load(), Loads: e.loads.Load()}
}

// Estimate answers specKey — a canonical spec key whose neighborhood
// the library may cover — under the requested policy configuration.
// On a hit the returned Result is the baseline with the replayed
// migration fields and placement deltas applied, tagged Estimated with
// its provenance. Misses return library.ErrNotFound (no resident
// trace), ErrNoBase (trace without a measured baseline), or
// ErrPolicyDistance (a migrating policy asked of a trace recorded
// under a different kind); other errors mean the resident entry could
// not be decoded or replayed.
func (e *Estimator) Estimate(specKey string, cfg policy.Config) (core.Result, error) {
	if e == nil {
		return core.Result{}, library.ErrNotFound
	}
	ent := e.lookup(library.NeighborhoodKey(specKey))
	if err := cmp.Or(ent.err, ent.baseErr); err != nil {
		e.misses.Add(1)
		return core.Result{}, err
	}
	if ent.base == nil {
		e.misses.Add(1)
		return core.Result{}, fmt.Errorf("%w: %s", ErrNoBase, library.NeighborhoodKey(specKey))
	}
	cfg = cfg.WithDefaults()
	if cfg.Migrates() && cfg.Kind.String() != ent.hdr.Policy {
		e.misses.Add(1)
		return core.Result{}, fmt.Errorf("%w: want %s, trace recorded %s",
			ErrPolicyDistance, cfg.Kind, ent.hdr.Policy)
	}
	pol, err := policy.NewPolicy(cfg.Kind.String())
	if err != nil {
		e.misses.Add(1)
		return core.Result{}, fmt.Errorf("estimate: %w", err)
	}
	st, err := trace.ReplayDecoded(ent.hdr, ent.quanta, pol, cfg)
	if err != nil {
		e.misses.Add(1)
		return core.Result{}, fmt.Errorf("estimate: replaying %s: %w", ent.base.Key, err)
	}

	res := ent.base.Result
	// Migration work comes from the replay outright: recorded executed
	// costs when the decision streams match, knob-priced estimates when
	// they diverge. The stall rounding matches the engine's own
	// float→uint64 conversion so a matching replay is bit-identical.
	res.PagesMigrated = st.PagesMigrated
	res.MigrationStallCycles = uint64(st.StallCycles + 0.5)
	// Write placement and residency are priced as deltas: the replay
	// only sees heap-group window traffic, so it shifts the baseline by
	// how differently the replayed decision history placed that
	// traffic, leaving the policy-independent remainder measured.
	dWrites := int64(st.PCMWriteLines) - int64(st.RecordedPCMWriteLines)
	res.PCMWriteLines = addClamp(res.PCMWriteLines, dWrites)
	res.DRAMWriteLines = addClamp(res.DRAMWriteLines, -dWrites)
	dDRAM := int64(st.ReplayedDRAMPages) - int64(st.RecordedDRAMPages)
	res.DRAMResidentPages = addClamp(res.DRAMResidentPages, dDRAM)
	res.PCMResidentPages = addClamp(res.PCMResidentPages, -dDRAM)

	conf := 1.0
	if !st.MatchesRecorded {
		conf = 1 - Tolerance
	}
	res.Estimated = true
	res.Estimate = &core.EstimateInfo{
		SourceKey:       ent.base.Key,
		SourceQuanta:    st.Quanta,
		Policy:          cfg.Key(),
		MatchesRecorded: st.MatchesRecorded,
		Confidence:      conf,
		Tolerance:       Tolerance,
	}
	e.hits.Add(1)
	return res, nil
}

// Trace returns the decoded trace covering specKey's neighborhood from
// the cache Estimate answers from, for offline pricing other than an
// estimate (autotune.RunDecoded). It counts neither a hit nor a miss —
// those describe estimates — needs no baseline, and counts a load only
// for a resident trace. The error wraps library.ErrNotFound when no
// trace is resident; any other error means the resident trace could
// not be read or decoded.
func (e *Estimator) Trace(specKey string) (trace.Header, []trace.Quantum, error) {
	if e == nil {
		return trace.Header{}, nil, library.ErrNotFound
	}
	hood := library.NeighborhoodKey(specKey)
	if !e.lib.Has(hood) {
		return trace.Header{}, nil, fmt.Errorf("%w: %s", library.ErrNotFound, hood)
	}
	ent := e.lookup(hood)
	if ent.err != nil {
		return trace.Header{}, nil, ent.err
	}
	return ent.hdr, ent.quanta, nil
}

// entry is one neighborhood's decoded trace. ready closes when the
// load finishes; joiners wait on it instead of re-reading the file.
// err reports a trace that could not be read or decoded, baseErr a
// baseline sidecar that could not be: the latter fails estimates only.
type entry struct {
	ready   chan struct{}
	gen     uint64 // library generation the load started at
	hdr     trace.Header
	quanta  []trace.Quantum
	base    *Base
	err     error
	baseErr error
}

// lookup returns the neighborhood's decoded entry, loading it once per
// library generation however many estimates ask concurrently.
func (e *Estimator) lookup(hood string) *entry {
	gen := e.lib.Gen()
	e.mu.Lock()
	if ent, ok := e.cache[hood]; ok {
		stale := false
		select {
		case <-ent.ready:
			// A completed load from an older generation may describe an
			// evicted or replaced trace: reload. In-flight loads are
			// joined as-is — they started at most one mutation ago.
			stale = ent.gen != gen
		default:
		}
		if !stale {
			e.mu.Unlock()
			<-ent.ready
			return ent
		}
		delete(e.cache, hood)
	}
	ent := &entry{ready: make(chan struct{}), gen: gen}
	e.cache[hood] = ent
	e.mu.Unlock()

	e.loads.Add(1)
	ent.load(e.lib, hood)
	if ent.err != nil || ent.baseErr != nil {
		// Failed loads are not cached: the next estimate retries (the
		// library may have been re-warmed in the meantime).
		e.mu.Lock()
		if e.cache[hood] == ent {
			delete(e.cache, hood)
		}
		e.mu.Unlock()
	}
	close(ent.ready)
	return ent
}

// load reads and decodes one library trace plus its baseline sidecar.
func (ent *entry) load(lib *library.Library, hood string) {
	tr, err := lib.Get(hood)
	if err != nil {
		ent.err = err
		return
	}
	ent.hdr, ent.quanta, err = trace.DecodeAll(bytes.NewReader(tr.Bytes()))
	if err != nil {
		ent.err = fmt.Errorf("estimate: decoding library trace %s: %w", hood, err)
		return
	}
	if raw := tr.Base(); raw != nil {
		var b Base
		if err := json.Unmarshal(raw, &b); err != nil {
			ent.baseErr = fmt.Errorf("estimate: decoding baseline for %s: %w", hood, err)
			return
		}
		ent.base = &b
	}
}

// addClamp shifts a uint64 by a signed delta, clamping at zero: a
// replay delta can exceed a baseline component when the recorded and
// live accounting windows differ slightly, and an estimate should
// degrade to zero, not wrap.
func addClamp(v uint64, d int64) uint64 {
	if d >= 0 {
		return v + uint64(d)
	}
	if u := uint64(-d); u < v {
		return v - u
	}
	return 0
}
