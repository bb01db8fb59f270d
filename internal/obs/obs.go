// Package obs is the platform's telemetry subsystem: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms exposed
// in the Prometheus text format), run-lifecycle spans with W3C
// traceparent propagation (so one distributed trace covers a run as it
// crosses the fabric), and log/slog construction helpers shared by the
// daemonish commands.
//
// Telemetry is strictly side-channel: nothing in this package feeds
// back into the emulation model, so an instrumented run produces a
// Result bit-identical to an uninstrumented one. Every type is nil-safe
// on its hot-path methods — a nil *Registry hands out nil metrics, and
// Add/Set/Observe/SetAttr/End on nil receivers are no-ops — so
// uninstrumented callers pay a single nil check, never an allocation.
//
// The pieces compose through Telemetry, the bundle the serving layer
// builds once per node and threads down: internal/serve labels every
// series and span with the node, internal/fabric times forward RTTs
// and stamps the traceparent header onto forwarded requests,
// internal/store reports append/replay latencies, and internal/core
// emits the per-run span tree (emulate → plan/execute → one span per
// policy quantum).
package obs

import "log/slog"

// Telemetry bundles one node's observability surfaces. Fields may be
// nil individually: consumers must tolerate a nil Metrics or Tracer
// (both are nil-safe), and a nil *Telemetry means "uninstrumented".
type Telemetry struct {
	// Node labels every metric series and span this bundle's consumers
	// emit, so a scraper aggregating a fleet can tell the nodes apart.
	Node string
	// Metrics is the node's metric registry.
	Metrics *Registry
	// Tracer records run-lifecycle spans.
	Tracer *Tracer
	// Logger is the node's structured logger (nil = slog.Default()).
	Logger *slog.Logger
	// Runs, when non-nil, observes run-execution milestones — the
	// flight-recorder seam. The emulator core reports progress keyed by
	// the span context the caller handed it (core.Options.ObsParent),
	// so a serving layer that started one span per run can route each
	// callback to that run's lifecycle record. Like every obs surface
	// it is strictly side-channel: observers see progress, they cannot
	// perturb the run.
	Runs RunObserver
}

// RunObserver receives execution milestones for in-flight runs. parent
// is the span context the run was started under (the identity the
// caller controls); implementations must be safe for concurrent use
// and must not block — callbacks fire on the emulator's run goroutine.
type RunObserver interface {
	// RunEmulating fires once per compute, when the run's instances
	// start executing (after plan construction, before the first
	// quantum).
	RunEmulating(parent SpanContext)
	// RunQuantum fires after each executed policy-engine quantum with
	// the run's cumulative progress counters so far.
	RunQuantum(parent SpanContext, quanta, actions, pagesMigrated uint64)
}

// Emulating dispatches RunEmulating. Safe on a nil Telemetry or a nil
// Runs observer.
func (t *Telemetry) Emulating(parent SpanContext) {
	if t == nil || t.Runs == nil {
		return
	}
	t.Runs.RunEmulating(parent)
}

// Quantum dispatches RunQuantum. Safe on a nil Telemetry or a nil Runs
// observer.
func (t *Telemetry) Quantum(parent SpanContext, quanta, actions, pagesMigrated uint64) {
	if t == nil || t.Runs == nil {
		return
	}
	t.Runs.RunQuantum(parent, quanta, actions, pagesMigrated)
}
