package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	hybridmem "repro"
	"repro/internal/estimate"
	"repro/internal/obs"
	"repro/internal/store"
)

// The estimate-first answer path: /v1/run and /v1/sweep take
// ?answer=auto|estimate|exact (or the same field in the request body;
// the query wins). auto — the default — serves an estimate replayed
// from the node's trace library when a resident trace covers the
// spec's neighborhood within tolerance, and computes otherwise;
// estimate insists on the estimate tier (404/in-stream error on a
// miss); exact bypasses it entirely and behaves bit-identically to a
// server without a library. Estimated answers are served locally in
// milliseconds — no fabric forward, no admission slot — are never
// written to the canonical result store, and are tagged in-band
// (Result.Estimated + EstimateInfo), by the X-Answer-Source response
// header, and with the flight-recorder outcome OutcomeEstimated.

// Answer modes.
const (
	answerAuto     = "auto"
	answerEstimate = "estimate"
	answerExact    = "exact"
)

// errNoEstimate reports an answer=estimate request the library cannot
// answer; it maps to 404 (or an in-stream item error mid-sweep).
var errNoEstimate = errors.New("no estimate available: no resident library trace answers this spec within tolerance")

// answerMode resolves the effective answer mode from the query
// parameter and the request-body field (query wins; empty = auto).
func answerMode(query, body string) (string, error) {
	m := query
	if m == "" {
		m = body
	}
	switch m {
	case "":
		return answerAuto, nil
	case answerAuto, answerEstimate, answerExact:
		return m, nil
	}
	return "", fmt.Errorf("%w: bad answer %q (want auto, estimate, or exact)", errBadRequest, m)
}

// answer routes one run according to its answer mode. Exact requests
// go straight to dispatch — the pre-estimate serving path, unchanged.
// Auto prefers an already-exact answer (a cache or store hit costs
// nothing and beats an estimate), then the estimate tier, then
// dispatch; estimate demands the estimate tier or fails. Estimates
// never take a fabric hop or an admission slot.
func (s *Server) answer(ctx context.Context, h *RunHandle, mode string, forwardedIn bool, p *hybridmem.Platform, spec hybridmem.RunSpec, wire RunRequest) (store.Record, string, error) {
	switch mode {
	case answerExact:
		return s.dispatch(ctx, h, forwardedIn, p, spec, wire)
	case answerAuto:
		if _, ok := p.Peek(spec); ok {
			break // dispatch serves the exact result as a coalesced read
		}
		if rec, ok := s.tryEstimate(p, spec, wire); ok {
			return rec, OutcomeEstimated, nil
		}
	case answerEstimate:
		if rec, ok := s.tryEstimate(p, spec, wire); ok {
			return rec, OutcomeEstimated, nil
		}
		return store.Record{}, "", errNoEstimate
	}
	return s.dispatch(ctx, h, forwardedIn, p, spec, wire)
}

// tryEstimate asks the platform's estimate tier for spec, counting the
// outcome and enrolling served estimates with the drift validator.
func (s *Server) tryEstimate(p *hybridmem.Platform, spec hybridmem.RunSpec, wire RunRequest) (store.Record, bool) {
	res, ok := p.Estimate(spec)
	if !ok {
		s.estMisses.Add(1)
		return store.Record{}, false
	}
	rec, err := record(p, spec, res)
	if err != nil {
		s.estMisses.Add(1)
		return store.Record{}, false
	}
	s.estimated.Add(1)
	if s.validator != nil {
		s.validator.note(wire, rec.Key)
	}
	return rec, true
}

// answerSource names an outcome's provenance for the X-Answer-Source
// header.
func answerSource(outcome string) string {
	if outcome == OutcomeEstimated {
		return "estimate"
	}
	return "exact"
}

// validateRingSize bounds how many recently estimated specs the drift
// validator keeps eligible for re-validation.
const validateRingSize = 64

// validateTarget is one estimated spec the validator can re-run live:
// the wire request (so it re-resolves exactly as served) and its
// canonical key (for dedup).
type validateTarget struct {
	wire RunRequest
	key  string
}

// driftValidator is the estimate tier's ground-truthing loop: it
// samples recently estimated specs, re-runs them live (traced), records
// the observed relative error in a histogram, and refreshes the
// library trace — fresh recording plus fresh baseline — whenever drift
// exceeds the estimate tolerance. The live re-run is traced, so it
// bypasses the result cache in both directions and measures the
// engine of record, not a memo.
type driftValidator struct {
	s     *Server
	drift *obs.Histogram

	mu   sync.Mutex
	ring []validateTarget
	next int // round-robin cursor

	validations atomic.Uint64
	refreshes   atomic.Uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
}

// driftBuckets resolve the drift histogram around the tolerance
// (0.25): the low buckets watch the healthy ~5% knob-variation band,
// the high ones catch traces that must be refreshed.
var driftBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

func newDriftValidator(s *Server, reg *obs.Registry, lbl obs.Labels) *driftValidator {
	v := &driftValidator{s: s}
	v.ctx, v.cancel = context.WithCancel(context.Background())
	v.drift = reg.Histogram("hybridserved_estimate_drift",
		"Observed relative error of estimated answers re-run live by the drift validator.",
		lbl, driftBuckets)
	reg.CounterFunc("hybridserved_estimate_validations_total",
		"Estimated specs re-run live by the drift validator.", lbl,
		func() float64 { return float64(v.validations.Load()) })
	reg.CounterFunc("hybridserved_estimate_refreshes_total",
		"Library traces replaced because their estimates drifted past tolerance.", lbl,
		func() float64 { return float64(v.refreshes.Load()) })
	return v
}

// note enrolls a served estimate for future validation, deduplicating
// by canonical key and evicting the oldest entry past the ring bound.
func (v *driftValidator) note(wire RunRequest, key string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, t := range v.ring {
		if t.key == key {
			return
		}
	}
	if len(v.ring) >= validateRingSize {
		v.ring = append(v.ring[:0], v.ring[1:]...)
		if v.next > 0 {
			v.next--
		}
	}
	v.ring = append(v.ring, validateTarget{wire: wire, key: key})
}

// pick returns the next target round-robin; ok is false on an empty
// ring. Targets stay enrolled — an estimate that keeps being served
// keeps being spot-checked.
func (v *driftValidator) pick() (validateTarget, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.ring) == 0 {
		return validateTarget{}, false
	}
	if v.next >= len(v.ring) {
		v.next = 0
	}
	t := v.ring[v.next]
	v.next++
	return t, true
}

// relErrU64 is |est-live| relative to live, flooring the denominator
// at 1 so zero-valued truths compare exactly.
func relErrU64(est, live uint64) float64 {
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

// validateOnce ground-truths one sampled estimate: estimate again (the
// library may have moved on), run live under tracing, observe the
// worst relative error across the estimate's accuracy contract
// (stalls, pages migrated), and refresh the resident trace when the
// error exceeds tolerance. Returns nil with nothing to do.
func (v *driftValidator) validateOnce(ctx context.Context) error {
	t, ok := v.pick()
	if !ok {
		return nil
	}
	spec, p, err := v.s.resolve(t.wire)
	if err != nil {
		return err
	}
	est, ok := p.Estimate(spec)
	if !ok {
		// The trace answering this spec was evicted or replaced since;
		// nothing left to validate.
		return nil
	}
	// The live run takes a normal admission slot: validation yields to
	// client traffic rather than competing unaccounted.
	release, err := v.s.admit(ctx, nil)
	if err != nil {
		return err
	}
	defer release()
	var trc bytes.Buffer
	live, err := p.With(hybridmem.WithTrace(&trc)).Run(ctx, spec)
	if err != nil {
		return err
	}
	drift := relErrU64(est.MigrationStallCycles, live.MigrationStallCycles)
	if e := relErrU64(est.PagesMigrated, live.PagesMigrated); e > drift {
		drift = e
	}
	v.drift.Observe(drift)
	v.validations.Add(1)
	if drift > estimate.Tolerance {
		if err := p.WarmTraceLibrary(v.s.lib, spec, live, trc.Bytes()); err != nil {
			return err
		}
		v.refreshes.Add(1)
		v.s.log.Warn("estimate drifted past tolerance; library trace refreshed",
			"key", t.key, "drift", drift, "tolerance", estimate.Tolerance)
	}
	return nil
}

// start launches the periodic validation loop.
func (v *driftValidator) start(every time.Duration) {
	v.wg.Add(1)
	go func() {
		defer v.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-v.ctx.Done():
				return
			case <-tick.C:
				if err := v.validateOnce(v.ctx); err != nil && v.ctx.Err() == nil {
					v.s.log.Warn("estimate drift validation failed", "err", err)
				}
			}
		}
	}()
}

// close stops the validation loop and waits for an in-flight
// validation to finish.
func (v *driftValidator) close() {
	v.once.Do(func() {
		v.cancel()
		v.wg.Wait()
	})
}

// ValidateOnce runs one drift-validation step synchronously: pick a
// recently estimated spec, re-run it live, record the observed
// relative error, refresh the library trace if it drifted past
// tolerance. A no-op (nil) when no estimates have been served or the
// node has no trace library. Exposed for tests and operational tools;
// the background loop (Config.ValidateEvery) calls exactly this.
func (s *Server) ValidateOnce(ctx context.Context) error {
	if s.validator == nil {
		return nil
	}
	return s.validator.validateOnce(ctx)
}

// EstimateValidations reports how many drift validations have run and
// how many library refreshes they triggered.
func (s *Server) EstimateValidations() (validations, refreshes uint64) {
	if s.validator == nil {
		return 0, 0
	}
	return s.validator.validations.Load(), s.validator.refreshes.Load()
}

// Close stops the server's background work — the estimate drift
// validator, if one is running. In-flight HTTP requests are
// unaffected; the server remains usable as an http.Handler.
func (s *Server) Close() {
	if s.validator != nil {
		s.validator.close()
	}
}
