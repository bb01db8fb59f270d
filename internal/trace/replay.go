package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/policy"
)

// ReplayStats is the outcome of re-driving one policy over a recorded
// trace, entirely offline: no machine, kernel, or jvm is constructed.
//
// Two kinds of numbers coexist here. When the replayed policy emits
// exactly the recorded action stream (the same policy, or one that
// happens to agree), migration and stall totals are the recorded
// executed costs and therefore equal the live run's Result fields
// bit-for-bit. When it diverges — the point of prototyping a new
// policy offline — they are estimates priced with the recorded cost
// constants, and the PCM write accounting models each group's window
// writes landing on whichever tier the replayed decision history put
// it on. Estimates are approximations: recorded views reflect the
// recorded policy's placement history, and a different policy would
// have bent that history (and the heat signal itself) its own way.
type ReplayStats struct {
	// Policy is the replayed policy; RecordedPolicy the one that
	// produced the trace.
	Policy         string
	RecordedPolicy string
	// Quanta counts replayed quantum records; Actions the migration
	// decisions the replayed policy emitted (post-truncation).
	Quanta  uint64
	Actions uint64
	// PagesMigrated and StallCycles total the migration work: recorded
	// executed costs on matching quanta, estimates on divergent ones.
	PagesMigrated uint64
	StallCycles   float64
	// MatchesRecorded reports the differential invariant: every
	// quantum's replayed actions equaled the recorded actions.
	// FirstMismatchQuantum is the earliest diverging quantum (0 when
	// none diverged).
	MatchesRecorded      bool
	FirstMismatchQuantum uint64
	// PCMWriteLines estimates the window write traffic that lands on
	// PCM under the replayed policy's decisions;
	// BaselinePCMWriteLines is the same accounting with no migrations
	// at all (every group stays on its first-observed tier), and
	// RecordedPCMWriteLines is the traffic as the recorded run
	// actually placed it. Reduction vs the baseline is the offline
	// figure of merit for a prototyped policy.
	PCMWriteLines         uint64
	BaselinePCMWriteLines uint64
	RecordedPCMWriteLines uint64
	// Final-view residency: heap-group pages per emulated tier at each
	// process's last recorded view, placed by the replayed decision
	// history (Replayed*) vs the recorded run's own placement
	// (Recorded*). The difference is what a policy swap shifts between
	// tiers — the estimate-first serving tier adds it to a measured
	// baseline Result to price residency without re-emulating. Only a
	// cleanly terminated replay fills these; a corrupt tail leaves them
	// zero, because a stranded delta chain has no trustworthy final
	// view.
	ReplayedDRAMPages uint64
	ReplayedPCMPages  uint64
	RecordedDRAMPages uint64
	RecordedPCMPages  uint64
}

// PCMWriteReduction returns the estimated fraction of baseline PCM
// write traffic the replayed policy's placements avoid (0 when the
// trace saw no PCM writes).
func (s ReplayStats) PCMWriteReduction() float64 {
	if s.BaselinePCMWriteLines == 0 {
		return 0
	}
	return 1 - float64(s.PCMWriteLines)/float64(s.BaselinePCMWriteLines)
}

// Replay re-drives pol over the trace in src with the knob
// configuration the trace header recorded. It returns the stats for
// every record consumed; on a corrupt trace the stats cover the valid
// prefix and the error (ErrCorrupt with the offending line, or
// ErrVersion from the header) reports why the replay stopped.
//
// The valid prefix ends at the last complete keyframe interval before
// the corruption, not at the last parseable record: v2 delta records
// only reconstruct against their process's chain back to the interval
// keyframe, so a corrupt line inside an interval strands every record
// the chain would have fed after it — replaying past the boundary
// would charge half-reconstructed views as if they were real. The
// replay engine snapshots its state at each keyframe boundary and
// rolls back to the last one when the stream dies.
func Replay(src io.Reader, pol policy.Policy) (ReplayStats, error) {
	return ReplayReader(NewReader(src), pol)
}

// ReplayWith is Replay with the policy knobs injected per call instead
// of taken from the trace header: pol's Decide runs (and its action
// list truncates) under cfg, not under the recorded configuration.
// This is what turns one recorded trace into a whole knob-grid sweep —
// internal/autotune prices every grid point through here — and it
// preserves the differential invariant as a special case: replaying
// the recorded policy with exactly the recorded knobs reproduces the
// recorded action stream and costs bit-identically.
//
// Only the decision knobs come from cfg; the migration cost constants
// still come from the header, because they describe the recorded
// kernel, not the policy. A zero cfg.Kind with non-zero knobs is
// respected as given (after WithDefaults), so a caller can sweep one
// knob while holding the rest at their registry defaults.
func ReplayWith(src io.Reader, pol policy.Policy, cfg policy.Config) (ReplayStats, error) {
	return replayReader(NewReader(src), pol, &cfg)
}

// ReplayReader is Replay over an existing Reader (e.g. one whose
// Header the caller already inspected).
func ReplayReader(r *Reader, pol policy.Policy) (ReplayStats, error) {
	return replayReader(r, pol, nil)
}

// DecodeAll reads a whole trace into memory: the header and every
// quantum record. On corruption the decoded prefix is returned
// together with the ErrCorrupt (ErrVersion for a skewed header), so
// callers that replay the same trace many times — the autotuner
// replays it once per knob-grid point — decode the bytes once and
// replay the in-memory records via ReplayDecoded instead of re-parsing
// JSON per replay.
//
// On corruption the returned prefix is truncated to the last complete
// keyframe interval (see Replay): records decoded after the final
// boundary belong to delta chains the corruption may have stranded, so
// they are dropped rather than replayed half-valid.
func DecodeAll(src io.Reader) (Header, []Quantum, error) {
	r := NewReader(src)
	h, err := r.Header()
	if err != nil {
		return Header{}, nil, err
	}
	var quanta []Quantum
	for {
		q, err := r.Next()
		if err == io.EOF {
			return h, quanta, nil
		}
		if err != nil {
			if k := h.KeyframeInterval; k > 0 {
				quanta = quanta[:len(quanta)-len(quanta)%k]
			}
			return h, quanta, err
		}
		quanta = append(quanta, q)
	}
}

// ReplayDecoded is ReplayWith over an already-decoded trace: pol is
// re-driven across the quanta under cfg, priced with the header's
// recorded cost constants. The records are only read, never mutated,
// so one decoded trace serves any number of concurrent replays. Each
// view must list its groups in strictly ascending address order, as
// DecodeAll's do; a hand-built view that does not fails the replay
// with ErrCorrupt.
func ReplayDecoded(h Header, quanta []Quantum, pol policy.Policy, cfg policy.Config) (ReplayStats, error) {
	i := 0
	next := func() (Quantum, error) {
		if i == len(quanta) {
			return Quantum{}, io.EOF
		}
		q := quanta[i]
		i++
		return q, nil
	}
	override := cfg
	// The in-memory source cannot fail mid-stream (DecodeAll already
	// truncated any corrupt tail to a keyframe boundary), so the loop
	// skips its rollback snapshots.
	return replayLoop(h, next, pol, &override, false)
}

// replayReader drives the streaming replay. override, when non-nil, is
// the injected knob configuration; nil means the header's recorded
// knobs.
func replayReader(r *Reader, pol policy.Policy, override *policy.Config) (ReplayStats, error) {
	if pol == nil {
		return ReplayStats{MatchesRecorded: true}, fmt.Errorf("trace: replay needs a policy")
	}
	h, err := r.Header()
	if err != nil {
		return ReplayStats{MatchesRecorded: true, Policy: pol.Name()}, err
	}
	return replayLoop(h, r.Next, pol, override, true)
}

// replayLoop is the replay engine: quanta arrive from next (io.EOF
// ends the trace; any other error is surfaced with the prefix stats).
// With canFail set, the loop snapshots its state at every keyframe
// boundary and restores the last snapshot when next fails, so the
// reported prefix never includes records from a stranded delta chain.
func replayLoop(h Header, next func() (Quantum, error), pol policy.Policy, override *policy.Config, canFail bool) (ReplayStats, error) {
	st := ReplayStats{MatchesRecorded: true}
	if pol == nil {
		return st, fmt.Errorf("trace: replay needs a policy")
	}
	st.Policy = pol.Name()
	st.RecordedPolicy = h.Policy
	cfg := h.PolicyConfig()
	if override != nil {
		cfg = override.WithDefaults()
	}

	// procs holds each process's replay state, looked up once per
	// quantum. Multiprogrammed instances share one virtual heap layout,
	// so the same group address in two processes is two different
	// groups.
	procs := map[string]*procState{}

	// Rollback snapshot: the stats as of the last keyframe boundary
	// (record indexes 0, K, 2K, ...). Taken only when the source can
	// fail mid-stream; the process states need no snapshot because an
	// error ends the loop — there is no accounting after the restore.
	k := h.KeyframeInterval
	snapshot := canFail && k > 0
	snapStats := st

	for idx := 0; ; idx++ {
		if snapshot && idx%k == 0 {
			snapStats = st
		}
		q, err := next()
		if err == io.EOF {
			for _, ps := range procs {
				ps.addResidency(&st)
			}
			return st, nil
		}
		var ps *procState
		if err == nil {
			if ps = procs[q.Proc]; ps == nil {
				ps = &procState{}
				procs[q.Proc] = ps
			}
			err = ps.observe(q, &st)
		}
		if err != nil {
			if snapshot {
				// Records past the last boundary may sit on a delta
				// chain the corruption stranded: discard them.
				st = snapStats
			}
			return st, err
		}
		st.Quanta++

		// Re-drive the policy against the recorded view, exactly as
		// the engine would: decide, then truncate.
		actions := pol.Decide(q.View, cfg)
		if len(actions) > cfg.MaxGroupsPerQuantum {
			actions = actions[:cfg.MaxGroupsPerQuantum]
		}
		st.Actions += uint64(len(actions))

		if actionsEqual(actions, q.Actions) {
			// Bit-identical decision: the engine's executed costs are
			// exactly what this policy's run charged.
			for _, e := range q.Exec {
				st.PagesMigrated += uint64(e.Moved)
				st.StallCycles += e.Stall
			}
		} else {
			if st.MatchesRecorded {
				st.MatchesRecorded = false
				st.FirstMismatchQuantum = q.Q
			}
			// Divergent decision: price it with the recorded cost
			// constants, moving every resident page of the group — as
			// this record listed it; a group the record did not list
			// moves nothing.
			for _, a := range actions {
				moved := 0
				if g := ps.find(a.Addr); g != nil && g.seen == ps.records {
					moved = g.pages
				}
				st.PagesMigrated += uint64(moved)
				st.StallCycles += float64(moved)*h.MigrationPageCycles + h.TLBShootdownCycles
			}
		}

		// The replayed decision history owns the replayed tier.
		for _, a := range actions {
			if a.From == a.To {
				continue
			}
			if g := ps.find(a.Addr); g != nil {
				g.replayedPCM = a.To == policy.PCMNode
			}
		}
	}
}

// groupState is one page group of a process as the replay tracks it:
// whether it sits on PCM under no migrations at all (the baseline,
// its first-observed tier) and under the replayed decision history,
// plus — as of the latest record that listed it — the recorded run's
// tier, its resident pages, and that record's number. Only "on PCM or
// not" is ever asked of a tier, so one flag each keeps the record at
// 24 bytes.
type groupState struct {
	addr        uint64
	pages       int
	seen        uint32
	baselinePCM bool
	replayedPCM bool
	recordedPCM bool
}

// procState is one process's replay state: every group any of its
// records listed, in address order, and the count of its records so
// far (a group with seen == records is in the latest view).
type procState struct {
	groups  []groupState
	spare   []groupState // merge target, swapped with groups
	records uint32
}

// observe merges a quantum's view into the process's state in one pass
// — both sides are address-ordered — and charges the view's window
// writes to each placement history. A view out of address order
// leaves the state and stats untouched and fails as ErrCorrupt; the
// Reader rejects such views, so only hand-built quanta reach it.
func (p *procState) observe(q Quantum, st *ReplayStats) error {
	view := q.View.Groups
	old := p.groups
	out := p.spare[:0]
	if need := len(old) + len(view); cap(out) < need {
		out = make([]groupState, 0, need)
	}
	seen := p.records + 1
	var baseW, recW, repW uint64
	i := 0
	for j, g := range view {
		if j > 0 && g.Addr <= view[j-1].Addr {
			return fmt.Errorf("%w: quantum %d of %q: view groups not in ascending address order",
				ErrCorrupt, q.Q, q.Proc)
		}
		for i < len(old) && old[i].addr < g.Addr {
			out = append(out, old[i])
			i++
		}
		pcm := g.Node == policy.PCMNode
		gs := groupState{addr: g.Addr, baselinePCM: pcm, replayedPCM: pcm}
		if i < len(old) && old[i].addr == g.Addr {
			gs = old[i]
			i++
		}
		gs.pages, gs.seen, gs.recordedPCM = g.Pages, seen, pcm
		out = append(out, gs)

		// Window write accounting under each placement history. The
		// recorded view's Node is the recorded run's placement.
		if g.WriteLines == 0 {
			continue
		}
		if gs.baselinePCM {
			baseW += g.WriteLines
		}
		if pcm {
			recW += g.WriteLines
		}
		if gs.replayedPCM {
			repW += g.WriteLines
		}
	}
	out = append(out, old[i:]...)
	p.groups, p.spare, p.records = out, old, seen
	st.BaselinePCMWriteLines += baseW
	st.RecordedPCMWriteLines += recW
	st.PCMWriteLines += repW
	return nil
}

// find returns the state of the group at addr, nil if no record of
// the process ever listed it.
func (p *procState) find(addr uint64) *groupState {
	i, ok := slices.BinarySearchFunc(p.groups, addr, func(g groupState, a uint64) int {
		return cmp.Compare(g.addr, a)
	})
	if !ok {
		return nil
	}
	return &p.groups[i]
}

// addResidency sums the process's final-view residency: the pages of
// the groups its last record listed, per tier, as the replayed
// decision history and as the recorded run placed them.
func (p *procState) addResidency(st *ReplayStats) {
	for _, g := range p.groups {
		if g.seen != p.records {
			continue
		}
		pages := uint64(g.pages)
		if g.replayedPCM {
			st.ReplayedPCMPages += pages
		} else {
			st.ReplayedDRAMPages += pages
		}
		if g.recordedPCM {
			st.RecordedPCMPages += pages
		} else {
			st.RecordedDRAMPages += pages
		}
	}
}

// actionsEqual compares action lists, treating nil and empty alike.
func actionsEqual(a, b []policy.Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
