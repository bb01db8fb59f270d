package serve

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the server's flight recorder: a registry giving every
// admitted run (and sweep, and traced run) a run ID and a lifecycle
// record that moves through
//
//	queued → admitted → forwarded/local → emulating → done/failed
//
// with cumulative quantum-progress counters fed in through the
// emulator core's obs.RunObserver seam (which rides the policy
// engine's QuantumHook). Live runs are held in a map; finished runs
// retire into a bounded most-recent ring. Every transition and
// progress tick is also published as a RunEvent to any subscriber
// streaming GET /v1/runs/{id}/events.
//
// Like the rest of internal/obs, the registry is strictly
// side-channel: it observes the serving path, nothing reads it back,
// and instrumented runs stay byte-identical to uninstrumented ones.

// RunState is one step of a run's lifecycle.
type RunState string

const (
	// RunQueued: the request is validated and has a run ID; it has not
	// yet been granted an execution slot (it may be waiting in the
	// admission queue, or about to be routed).
	RunQueued RunState = "queued"
	// RunAdmitted: the admission controller granted the run an
	// in-flight slot on this node.
	RunAdmitted RunState = "admitted"
	// RunForwarded: the run's canonical key is owned by a peer and the
	// request is in flight to it.
	RunForwarded RunState = "forwarded"
	// RunLocal: the run is executing locally — computing, restoring
	// from the store, or joining an identical in-flight compute.
	RunLocal RunState = "local"
	// RunEmulating: the emulator core reported the run's instances
	// executing; quantum progress counters advance in this state.
	RunEmulating RunState = "emulating"
	// RunDone: finished successfully.
	RunDone RunState = "done"
	// RunFailed: finished with an error.
	RunFailed RunState = "failed"
)

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool { return s == RunDone || s == RunFailed }

// executing reports whether a live run in this state is this node's
// own work — queued, admitted, or running here. Forwarded runs are
// excluded: they are the owner's work and appear in *its* registry, so
// fleet-wide aggregation counts every run exactly once.
func (s RunState) executing() bool {
	switch s {
	case RunQueued, RunAdmitted, RunLocal, RunEmulating:
		return true
	}
	return false
}

// Run outcomes. Degradation (a forward that fell back to local
// execution) is tracked separately on RunInfo.Degraded, since a
// degraded run still ends in one of these.
const (
	// OutcomeComputed: this node ran the engine (or restored the
	// result from its durable store).
	OutcomeComputed = "computed"
	// OutcomeCoalesced: served without fresh work — a cache read or a
	// join onto an identical in-flight run.
	OutcomeCoalesced = "coalesced"
	// OutcomeForwarded: served by the ring owner's response.
	OutcomeForwarded = "forwarded"
	// OutcomeLibrary: served from the compacted trace library without
	// touching the emulator (a /v1/trace read or an autotune grid
	// priced against a resident trace).
	OutcomeLibrary = "library"
	// OutcomeEstimated: answered by the estimate tier — a replay of a
	// library-resident trace under the requested policy, tagged
	// Result.Estimated, never entering the canonical result store.
	OutcomeEstimated = "estimated"
)

// RunPhase is one visited lifecycle state with its timing.
type RunPhase struct {
	State           RunState `json:"state"`
	EnteredUnixNano int64    `json:"enteredUnixNano"`
	// DurNs is the time spent in the phase; 0 while the run is still
	// in it.
	DurNs int64 `json:"durNs,omitempty"`
}

// RunInfo is the wire form of one run's lifecycle record, served by
// GET /v1/runs and embedded in /v1/fleet/status.
type RunInfo struct {
	ID    string   `json:"id"`
	Kind  string   `json:"kind"` // "run", "sweep", "trace", "autotune"
	State RunState `json:"state"`
	// Outcome is set on terminal states: computed, coalesced, or
	// forwarded.
	Outcome string `json:"outcome,omitempty"`
	// Degraded marks a run whose forward fell back to local execution.
	Degraded bool   `json:"degraded,omitempty"`
	App      string `json:"app,omitempty"`
	// Key is the canonical spec key (empty for sweep parents).
	Key string `json:"key,omitempty"`
	// Trace is the run's trace ID — the deep link into its span tree
	// (GET /v1/spans?trace=...).
	Trace string `json:"trace,omitempty"`
	Node  string `json:"node"`
	// Origin names the peer that forwarded this request here, when it
	// arrived over the fabric.
	Origin string `json:"origin,omitempty"`
	Error  string `json:"error,omitempty"`

	StartUnixNano int64 `json:"startUnixNano"`
	EndUnixNano   int64 `json:"endUnixNano,omitempty"`

	// Cumulative policy-engine progress, monotonically non-decreasing.
	Quanta        uint64 `json:"quanta,omitempty"`
	Actions       uint64 `json:"actions,omitempty"`
	PagesMigrated uint64 `json:"pagesMigrated,omitempty"`

	// Sweep parents track their grid instead of quanta.
	Cells     int `json:"cells,omitempty"`
	CellsDone int `json:"cellsDone,omitempty"`

	// Events counts the lifecycle events recorded so far.
	Events int `json:"events"`
	// Phases lists visited states in order with per-phase timings.
	Phases []RunPhase `json:"phases,omitempty"`
}

// RunEvent is one line of a GET /v1/runs/{id}/events stream: a state
// transition or a progress tick, in Seq order.
type RunEvent struct {
	Run          string   `json:"run"`
	Seq          int      `json:"seq"`
	TimeUnixNano int64    `json:"timeUnixNano"`
	State        RunState `json:"state"`
	// Detail annotates the transition (the forward's owner, a
	// degradation note, the join/cache source).
	Detail string `json:"detail,omitempty"`
	// Progress counters, cumulative; present on emulating ticks and on
	// the terminal event.
	Quanta        uint64 `json:"quanta,omitempty"`
	Actions       uint64 `json:"actions,omitempty"`
	PagesMigrated uint64 `json:"pagesMigrated,omitempty"`
	CellsDone     int    `json:"cellsDone,omitempty"`
	Error         string `json:"error,omitempty"`
}

// maxEventsPerRun bounds the per-run event history kept for late
// subscribers; live subscribers see every event regardless. 4096
// covers ~4000 quanta — far past quick/std scale runs.
const maxEventsPerRun = 4096

// subBuffer is each subscriber's channel depth. A subscriber that
// stalls past it loses events (counted) rather than blocking the
// serving path.
const subBuffer = 256

type runEntry struct {
	info    RunInfo
	span    string // the key of the run's bySpan entry
	events  []RunEvent
	seq     int
	subs    map[int]chan RunEvent
	nextSub int
}

// RunRegistry is one node's flight recorder. All methods are safe for
// concurrent use; the observer callbacks (RunEmulating, RunQuantum)
// are non-blocking.
type RunRegistry struct {
	node      string
	recentCap int

	mu      sync.Mutex
	live    map[string]*runEntry
	bySpan  map[string]*runEntry
	recent  []*runEntry // oldest first, bounded by recentCap
	started uint64
	done    uint64
	failed  uint64
	dropped uint64 // events lost to stalled subscribers
}

// NewRunRegistry builds a registry labelling runs with the node name.
// recentCap bounds the finished-run ring (0 = 256).
func NewRunRegistry(node string, recentCap int) *RunRegistry {
	if recentCap <= 0 {
		recentCap = 256
	}
	return &RunRegistry{
		node:      node,
		recentCap: recentCap,
		live:      make(map[string]*runEntry),
		bySpan:    make(map[string]*runEntry),
	}
}

// RunHandle mutates one live run's record. Handles are single-run,
// concurrency-safe, and nil-safe (a nil handle is inert), so serving
// code can thread one through a request unconditionally.
type RunHandle struct {
	reg *RunRegistry
	ent *runEntry
}

// Begin registers a new run in state queued and returns its handle.
// spanID, when non-empty, routes the emulator core's observer
// callbacks (keyed by the run's parent span) to this record; trace is
// the run's trace ID for span deep-links. origin names the fabric peer
// that forwarded the request here, if any.
func (r *RunRegistry) Begin(kind, app, key, trace, spanID, origin string) *RunHandle {
	now := time.Now()
	ent := &runEntry{
		info: RunInfo{
			ID:            newRunID(),
			Kind:          kind,
			State:         RunQueued,
			App:           app,
			Key:           key,
			Trace:         trace,
			Node:          r.node,
			Origin:        origin,
			StartUnixNano: now.UnixNano(),
			Phases:        []RunPhase{{State: RunQueued, EnteredUnixNano: now.UnixNano()}},
		},
		span: spanID,
		subs: make(map[int]chan RunEvent),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.started++
	r.live[ent.info.ID] = ent
	if spanID != "" {
		r.bySpan[spanID] = ent
	}
	r.publishLocked(ent, RunEvent{State: RunQueued})
	return &RunHandle{reg: r, ent: ent}
}

// ID returns the run's ID ("" on a nil handle).
func (h *RunHandle) ID() string {
	if h == nil {
		return ""
	}
	return h.ent.info.ID
}

// Transition moves the run to a new state, recording the phase timing
// and publishing an event. Transitions after Finish are dropped.
func (h *RunHandle) Transition(state RunState, detail string) {
	if h == nil {
		return
	}
	r := h.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if h.ent.info.State.Terminal() {
		return
	}
	r.enterPhaseLocked(h.ent, state)
	r.publishLocked(h.ent, RunEvent{State: state, Detail: detail})
}

// Degraded marks the run's forward as having fallen back to local
// execution.
func (h *RunHandle) Degraded() {
	if h == nil {
		return
	}
	h.reg.mu.Lock()
	defer h.reg.mu.Unlock()
	h.ent.info.Degraded = true
}

// SetCells records a sweep parent's grid size.
func (h *RunHandle) SetCells(n int) {
	if h == nil {
		return
	}
	h.reg.mu.Lock()
	defer h.reg.mu.Unlock()
	h.ent.info.Cells = n
}

// CellDone bumps a sweep parent's completed-cell counter and publishes
// a progress event.
func (h *RunHandle) CellDone() {
	if h == nil {
		return
	}
	r := h.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if h.ent.info.State.Terminal() {
		return
	}
	h.ent.info.CellsDone++
	r.publishLocked(h.ent, RunEvent{State: h.ent.info.State, CellsDone: h.ent.info.CellsDone})
}

// Finish moves the run to done (err nil) or failed, stamps the
// outcome, publishes the terminal event, closes all subscribers, and
// retires the record into the recent ring.
func (h *RunHandle) Finish(outcome string, err error) {
	if h == nil {
		return
	}
	r := h.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	ent := h.ent
	if ent.info.State.Terminal() {
		return
	}
	state := RunDone
	if err != nil {
		state = RunFailed
		ent.info.Error = err.Error()
		r.failed++
	} else {
		r.done++
	}
	ent.info.Outcome = outcome
	r.enterPhaseLocked(ent, state)
	ent.info.EndUnixNano = time.Now().UnixNano()
	ev := RunEvent{
		State:         state,
		Detail:        outcome,
		Quanta:        ent.info.Quanta,
		Actions:       ent.info.Actions,
		PagesMigrated: ent.info.PagesMigrated,
		CellsDone:     ent.info.CellsDone,
		Error:         ent.info.Error,
	}
	r.publishLocked(ent, ev)
	for id, ch := range ent.subs {
		close(ch)
		delete(ent.subs, id)
	}
	delete(r.live, ent.info.ID)
	delete(r.bySpan, ent.span)
	r.recent = append(r.recent, ent)
	if len(r.recent) > r.recentCap {
		r.recent = r.recent[len(r.recent)-r.recentCap:]
	}
}

// RunEmulating implements obs.RunObserver: the emulator core reports a
// run's instances executing.
func (r *RunRegistry) RunEmulating(parent obs.SpanContext) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ent := r.bySpan[parent.SpanID]
	if ent == nil || ent.info.State.Terminal() {
		return
	}
	r.enterPhaseLocked(ent, RunEmulating)
	r.publishLocked(ent, RunEvent{State: RunEmulating})
}

// RunQuantum implements obs.RunObserver: cumulative per-quantum
// progress for a run.
func (r *RunRegistry) RunQuantum(parent obs.SpanContext, quanta, actions, pagesMigrated uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ent := r.bySpan[parent.SpanID]
	if ent == nil || ent.info.State.Terminal() {
		return
	}
	// Counters are cumulative from the core; never move them backward
	// (a late callback racing the terminal event must not regress the
	// record).
	if quanta > ent.info.Quanta {
		ent.info.Quanta = quanta
	}
	if actions > ent.info.Actions {
		ent.info.Actions = actions
	}
	if pagesMigrated > ent.info.PagesMigrated {
		ent.info.PagesMigrated = pagesMigrated
	}
	r.publishLocked(ent, RunEvent{
		State:         ent.info.State,
		Quanta:        ent.info.Quanta,
		Actions:       ent.info.Actions,
		PagesMigrated: ent.info.PagesMigrated,
	})
}

// enterPhaseLocked closes the current phase's duration and appends the
// new one.
func (r *RunRegistry) enterPhaseLocked(ent *runEntry, state RunState) {
	now := time.Now().UnixNano()
	if n := len(ent.info.Phases); n > 0 {
		ent.info.Phases[n-1].DurNs = now - ent.info.Phases[n-1].EnteredUnixNano
	}
	ent.info.State = state
	ent.info.Phases = append(ent.info.Phases, RunPhase{State: state, EnteredUnixNano: now})
}

// publishLocked stamps, stores, and fans out one event.
func (r *RunRegistry) publishLocked(ent *runEntry, ev RunEvent) {
	ent.seq++
	ev.Run = ent.info.ID
	ev.Seq = ent.seq
	ev.TimeUnixNano = time.Now().UnixNano()
	if len(ent.events) < maxEventsPerRun {
		ent.events = append(ent.events, ev)
	}
	ent.info.Events = ent.seq
	for _, ch := range ent.subs {
		select {
		case ch <- ev:
		default:
			r.dropped++
		}
	}
}

// Get returns a snapshot of one run's record and its retained events.
func (r *RunRegistry) Get(id string) (RunInfo, []RunEvent, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ent := r.lookupLocked(id)
	if ent == nil {
		return RunInfo{}, nil, false
	}
	return snapshotLocked(ent), append([]RunEvent(nil), ent.events...), true
}

// Watch returns the run's event history so far plus, for a live run, a
// channel of subsequent events (closed when the run finishes) and a
// cancel function. For a finished run the channel is nil. History and
// subscription are taken under one lock, so no event is lost between
// them.
func (r *RunRegistry) Watch(id string) (history []RunEvent, ch <-chan RunEvent, cancel func(), ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ent := r.lookupLocked(id)
	if ent == nil {
		return nil, nil, nil, false
	}
	history = append([]RunEvent(nil), ent.events...)
	if ent.info.State.Terminal() {
		return history, nil, func() {}, true
	}
	c := make(chan RunEvent, subBuffer)
	sub := ent.nextSub
	ent.nextSub++
	ent.subs[sub] = c
	cancel = func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, live := ent.subs[sub]; live {
			delete(ent.subs, sub)
			close(c)
		}
	}
	return history, c, cancel, true
}

// lookupLocked finds a run in the live set or the recent ring.
func (r *RunRegistry) lookupLocked(id string) *runEntry {
	if ent := r.live[id]; ent != nil {
		return ent
	}
	for i := len(r.recent) - 1; i >= 0; i-- {
		if r.recent[i].info.ID == id {
			return r.recent[i]
		}
	}
	return nil
}

// snapshotLocked deep-copies an entry's info (Phases is the only
// shared slice).
func snapshotLocked(ent *runEntry) RunInfo {
	info := ent.info
	info.Phases = append([]RunPhase(nil), ent.info.Phases...)
	return info
}

// List returns every run matching the filter — the live set plus the
// recent ring — newest first (by start time, then ID for stability).
// A nil filter matches everything.
func (r *RunRegistry) List(match func(RunInfo) bool) []RunInfo {
	r.mu.Lock()
	out := make([]RunInfo, 0, len(r.live)+len(r.recent))
	for _, ent := range r.live {
		out = append(out, snapshotLocked(ent))
	}
	for _, ent := range r.recent {
		out = append(out, snapshotLocked(ent))
	}
	r.mu.Unlock()
	if match != nil {
		kept := out[:0]
		for _, info := range out {
			if match(info) {
				kept = append(kept, info)
			}
		}
		out = kept
	}
	newestFirst(out)
	return out
}

// newestFirst orders runs by start time, newest first, then by ID for
// stability.
func newestFirst(runs []RunInfo) {
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].StartUnixNano != runs[j].StartUnixNano {
			return runs[i].StartUnixNano > runs[j].StartUnixNano
		}
		return runs[i].ID < runs[j].ID
	})
}

// RunSummary is the registry's aggregate view, embedded in the node
// status document.
type RunSummary struct {
	// Started/Done/Failed count runs over the node's lifetime.
	Started uint64 `json:"started"`
	Done    uint64 `json:"done"`
	Failed  uint64 `json:"failed"`
	// Live counts runs currently in the registry's live set.
	Live int `json:"live"`
	// ByState breaks the live set down per lifecycle state.
	ByState map[string]int `json:"byState,omitempty"`
	// Forwarding counts live runs waiting on a peer (state forwarded);
	// they are excluded from Active so a run forwarded across the
	// fleet is reported exactly once — by its executing node.
	Forwarding int `json:"forwarding"`
	// DroppedEvents counts events lost to stalled subscribers.
	DroppedEvents uint64 `json:"droppedEvents,omitempty"`
	// Active lists the live runs this node itself is executing
	// (queued, admitted, local, or emulating), newest first.
	Active []RunInfo `json:"active,omitempty"`
}

// Summary returns the registry's aggregate view.
func (r *RunRegistry) Summary() RunSummary {
	r.mu.Lock()
	sum := RunSummary{
		Started: r.started,
		Done:    r.done,
		Failed:  r.failed,
		Live:    len(r.live),
		ByState: make(map[string]int),
	}
	if r.dropped > 0 {
		sum.DroppedEvents = r.dropped
	}
	for _, ent := range r.live {
		sum.ByState[string(ent.info.State)]++
		switch {
		case ent.info.State == RunForwarded:
			sum.Forwarding++
		case ent.info.State.executing():
			sum.Active = append(sum.Active, snapshotLocked(ent))
		}
	}
	r.mu.Unlock()
	newestFirst(sum.Active)
	return sum
}

// newRunID returns a 16-hex-digit random run ID — unique fleet-wide
// without coordination, like a span ID.
func newRunID() string {
	b := make([]byte, 8)
	rand.Read(b) // never fails: it crashes the program instead
	return hex.EncodeToString(b)
}
