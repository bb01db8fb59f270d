// Package autotune searches a placement-policy knob grid against one
// recorded trace, entirely offline.
//
// The paper fixes its placement parameters per workload by hand; the
// write-threshold knobs (HotWriteLines, ColdWriteLines,
// DRAMBudgetPages) and the wear factor trade PCM write placement
// against migration stalls, and the right settings are workload
// dependent. Searching that space live costs one full emulator run per
// grid point. This package prices an entire grid from a single
// recorded trace instead: every point replays the same recorded view
// stream through trace.ReplayWith with its own knob configuration, so
// a 3x3x3 grid costs one emulation plus 27 millisecond-scale replays —
// the parameter-sensitivity workflow METICULOUS-style emulators treat
// as first class (arXiv:2309.06565), applied to the NUMA emulation
// methodology of arXiv:1808.00064.
//
// Each evaluated Point carries the replay's cost model: estimated
// migration stalls, pages migrated, the PCM write placement under the
// point's decisions, and the reduction against the no-migration
// baseline. Points are scored on two objectives — minimize
// StallCycles, minimize PCMWriteLines — and the Pareto-optimal
// frontier (dominated points excluded, exact ties kept) is reported in
// a stable order together with a recommended point: the frontier knee,
// the point closest to the per-grid ideal in normalized objective
// space.
//
// Replay estimates are exact where the replayed decisions match the
// recorded stream and knob-priced approximations where they diverge
// (recorded views reflect the recorded policy's placement history); a
// tuned point is therefore validated with a live emulator run, which
// hybridmem.Sweep.Knobs and paperfigs' autotune step automate.
// EstimateTolerance is the documented accuracy contract for that
// validation.
package autotune

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/policy"
	"repro/internal/trace"
)

// EstimateTolerance is the relative error the replay cost model is
// allowed against a live run of the same knob point: |predicted -
// live| / max(live, 1) for stall cycles. Matching-decision replays are
// exact (tolerance 0 would hold); divergent-decision estimates carry
// the recorded placement history's bias, which this bound caps for the
// validation suite and the CI smoke step.
const EstimateTolerance = 0.25

// Grid enumerates a knob space for one policy: the cartesian product
// of the listed values per knob. A nil dimension holds that knob at
// its registry default, so a Grid zero value (plus a policy kind) is a
// single-point grid of the defaults.
type Grid struct {
	// Policy is the policy every point replays (typically the
	// migrating kinds: write-threshold or wear-level).
	Policy policy.Kind
	// HotWriteLines, ColdWriteLines, and DRAMBudgetPages are the
	// write-threshold knobs; WearFactors is wear-level's rotation
	// threshold. Values must be valid for policy.Config (hot > 0,
	// budget > 0, wear factor > 0); Validate rejects values the
	// config layer would silently replace with defaults.
	HotWriteLines   []uint64
	ColdWriteLines  []uint64
	DRAMBudgetPages []uint64
	WearFactors     []float64
}

// MaxGridPoints bounds one search's cartesian product. Each point
// costs a full trace replay, so an unbounded grid would let one
// policytune invocation — or one POST /v1/autotune request against a
// shared hybridserved — monopolize the host; 4096 is far above any
// sensible sweep (a 3x3x3 study is 27 points).
const MaxGridPoints = 4096

// Validate rejects grids whose points would not round-trip through
// policy.Config — zero hot thresholds or budgets and non-positive
// wear factors are indistinguishable from "use the default" at the
// config layer, so a grid naming them would silently evaluate a
// different point than it reports — plus grids that could not mean
// what they say: duplicate values (which would duplicate points and
// make the recommendation ambiguous), dimensions varied for a policy
// that never reads them (every point would price identically), and
// cartesian products past MaxGridPoints.
func (g Grid) Validate() error {
	if g.Policy < policy.Static || g.Policy >= policy.NumKinds {
		return fmt.Errorf("autotune: unknown policy Kind(%d)", int(g.Policy))
	}
	for _, v := range g.HotWriteLines {
		if v == 0 {
			return fmt.Errorf("autotune: hot write threshold must be > 0")
		}
	}
	for _, v := range g.DRAMBudgetPages {
		if v == 0 {
			return fmt.Errorf("autotune: DRAM budget must be > 0 pages")
		}
	}
	for _, v := range g.WearFactors {
		if v <= 0 {
			return fmt.Errorf("autotune: wear factor must be > 0, got %g", v)
		}
	}
	for dim, n := range map[string]int{
		"hot":    uniqueUints(g.HotWriteLines),
		"cold":   uniqueUints(g.ColdWriteLines),
		"budget": uniqueUints(g.DRAMBudgetPages),
		"wear":   uniqueFloats(g.WearFactors),
	} {
		if n < 0 {
			return fmt.Errorf("autotune: duplicate %s grid values (each point must be a distinct knob tuple)", dim)
		}
	}
	// A dimension the policy never reads prices every point
	// identically; varying it is a mistake worth naming, not a
	// degenerate search worth running.
	wt := g.Policy == policy.WriteThreshold
	if !wt && (len(g.HotWriteLines) > 1 || len(g.ColdWriteLines) > 1 || len(g.DRAMBudgetPages) > 1) {
		return fmt.Errorf("autotune: policy %s ignores the write-threshold knobs; drop the hot/cold/budget grid dimensions", g.Policy)
	}
	if g.Policy != policy.WearLevel && len(g.WearFactors) > 1 {
		return fmt.Errorf("autotune: policy %s ignores the wear factor; drop the wear grid dimension", g.Policy)
	}
	points := 1
	for _, n := range []int{len(g.HotWriteLines), len(g.ColdWriteLines),
		len(g.DRAMBudgetPages), len(g.WearFactors)} {
		points *= dimSize(n)
		if points > MaxGridPoints {
			// Bail per dimension so the product cannot overflow.
			return fmt.Errorf("autotune: grid exceeds %d points", MaxGridPoints)
		}
	}
	return nil
}

// dimSize is a dimension's contribution to the point count (an empty
// dimension contributes its single default value).
func dimSize(n int) int {
	if n == 0 {
		return 1
	}
	return n
}

// uniqueUints returns the value count, or -1 on a duplicate.
func uniqueUints(vs []uint64) int {
	seen := make(map[uint64]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return -1
		}
		seen[v] = true
	}
	return len(vs)
}

// uniqueFloats returns the value count, or -1 on a duplicate.
func uniqueFloats(vs []float64) int {
	seen := make(map[float64]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return -1
		}
		seen[v] = true
	}
	return len(vs)
}

// Points expands the grid into knob configurations in a fixed order:
// hot-major, then cold, budget, wear factor — the order Run evaluates
// and Report.Points preserves. Empty dimensions contribute the
// registry default value, so every returned Config is fully resolved.
func (g Grid) Points() []policy.Config {
	hot := g.HotWriteLines
	if len(hot) == 0 {
		hot = []uint64{policy.DefaultHotWriteLines}
	}
	cold := g.ColdWriteLines
	if len(cold) == 0 {
		cold = []uint64{policy.DefaultColdWriteLines}
	}
	budget := g.DRAMBudgetPages
	if len(budget) == 0 {
		budget = []uint64{policy.DefaultDRAMBudgetPages}
	}
	wear := g.WearFactors
	if len(wear) == 0 {
		wear = []float64{policy.DefaultWearFactor}
	}
	pts := make([]policy.Config, 0, len(hot)*len(cold)*len(budget)*len(wear))
	for _, h := range hot {
		for _, c := range cold {
			for _, b := range budget {
				for _, w := range wear {
					pts = append(pts, policy.Config{
						Kind:            g.Policy,
						HotWriteLines:   h,
						ColdWriteLines:  c,
						DRAMBudgetPages: b,
						WearFactor:      w,
					}.WithDefaults())
				}
			}
		}
	}
	return pts
}

// Point is one evaluated knob configuration: the knobs, the replay's
// cost model for them, and its frontier standing. The JSON field names
// are the policytune ndjson schema and the /v1/autotune wire format.
type Point struct {
	// The knob configuration, spelled like the trace header.
	Policy          string  `json:"policy"`
	HotWriteLines   uint64  `json:"hotWriteLines"`
	ColdWriteLines  uint64  `json:"coldWriteLines"`
	DRAMBudgetPages uint64  `json:"dramBudgetPages"`
	WearFactor      float64 `json:"wearFactor"`

	// The replay outcome under these knobs.
	Quanta            uint64  `json:"quanta"`
	Actions           uint64  `json:"actions"`
	PagesMigrated     uint64  `json:"pagesMigrated"`
	StallCycles       float64 `json:"stallCycles"`
	PCMWriteLines     uint64  `json:"pcmWriteLines"`
	PCMWriteReduction float64 `json:"pcmWriteReduction"`
	// MatchesRecorded marks the point whose decisions reproduced the
	// recorded stream: its costs are the live run's, not estimates.
	MatchesRecorded bool `json:"matchesRecorded"`

	// Pareto marks frontier membership; Recommended marks the one
	// frontier point Report.Recommended selects.
	Pareto      bool `json:"pareto"`
	Recommended bool `json:"recommended,omitempty"`
}

// Config reconstructs the point's resolved knob configuration.
func (p Point) Config() policy.Config {
	cfg := policy.Config{
		HotWriteLines:   p.HotWriteLines,
		ColdWriteLines:  p.ColdWriteLines,
		DRAMBudgetPages: p.DRAMBudgetPages,
		WearFactor:      p.WearFactor,
	}
	for k := policy.Static; k < policy.NumKinds; k++ {
		if k.String() == p.Policy {
			cfg.Kind = k
			break
		}
	}
	return cfg.WithDefaults()
}

// dominates reports strict Pareto dominance of a over b on the two
// minimization objectives: no worse on both, strictly better on one.
// Exact ties on both objectives dominate in neither direction, so tied
// points survive to the frontier together.
func dominates(a, b Point) bool {
	if a.StallCycles > b.StallCycles || a.PCMWriteLines > b.PCMWriteLines {
		return false
	}
	return a.StallCycles < b.StallCycles || a.PCMWriteLines < b.PCMWriteLines
}

// Frontier returns the Pareto-optimal subset of points on (minimize
// StallCycles, minimize PCMWriteLines), sorted by stall cycles
// ascending with PCM writes and then the knob tuple as tiebreaks — a
// total, deterministic order independent of the input order.
func Frontier(points []Point) []Point {
	var front []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			p.Pareto = true
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool { return pointLess(front[i], front[j]) })
	return front
}

// pointLess is the frontier's total order.
func pointLess(a, b Point) bool {
	if a.StallCycles != b.StallCycles {
		return a.StallCycles < b.StallCycles
	}
	if a.PCMWriteLines != b.PCMWriteLines {
		return a.PCMWriteLines < b.PCMWriteLines
	}
	if a.HotWriteLines != b.HotWriteLines {
		return a.HotWriteLines < b.HotWriteLines
	}
	if a.ColdWriteLines != b.ColdWriteLines {
		return a.ColdWriteLines < b.ColdWriteLines
	}
	if a.DRAMBudgetPages != b.DRAMBudgetPages {
		return a.DRAMBudgetPages < b.DRAMBudgetPages
	}
	return a.WearFactor < b.WearFactor
}

// recommend picks the frontier knee: the frontier point closest to the
// ideal (min stall, min PCM writes over all evaluated points) in
// objective space normalized by each objective's observed range. A
// degenerate range (every point equal on an objective) contributes
// zero, and exact distance ties resolve by the frontier's stable
// order, so the recommendation is deterministic.
func recommend(all, front []Point) (Point, bool) {
	if len(front) == 0 {
		return Point{}, false
	}
	minStall, maxStall := all[0].StallCycles, all[0].StallCycles
	minPCM, maxPCM := all[0].PCMWriteLines, all[0].PCMWriteLines
	for _, p := range all[1:] {
		minStall = min(minStall, p.StallCycles)
		maxStall = max(maxStall, p.StallCycles)
		minPCM = min(minPCM, p.PCMWriteLines)
		maxPCM = max(maxPCM, p.PCMWriteLines)
	}
	norm := func(v, lo, hi float64) float64 {
		if hi <= lo {
			return 0
		}
		return (v - lo) / (hi - lo)
	}
	best, bestDist := front[0], 0.0
	for i, p := range front {
		ds := norm(p.StallCycles, minStall, maxStall)
		dp := norm(float64(p.PCMWriteLines), float64(minPCM), float64(maxPCM))
		dist := ds*ds + dp*dp
		if i == 0 || dist < bestDist {
			best, bestDist = p, dist
		}
	}
	return best, true
}

// Report is one grid search over one trace: every evaluated point in
// grid order, the Pareto frontier in its stable order, and the
// recommended knob set. Frontier membership is flagged on the points
// themselves too, so a table can render one list.
type Report struct {
	// Header identifies the recorded run the grid was priced against.
	Header trace.Header `json:"header"`
	// Points holds every grid point in Grid.Points order.
	Points []Point `json:"points"`
	// Frontier is the Pareto-optimal subset (see Frontier).
	Frontier []Point `json:"frontier"`
	// Recommended is the frontier knee (meaningless when Frontier is
	// empty, which only happens for an empty Points).
	Recommended Point `json:"recommended"`
}

// Run replays every point of the grid against the trace in src and
// assembles the report. The trace is decoded once (header + quanta)
// and RunDecoded replays the in-memory records per point, so grid size
// multiplies only the replay work, not the JSON parsing; ctx cancels
// between points.
//
// On a corrupt trace every point prices the same valid prefix — the
// grid stays internally comparable — and Run returns the prefix report
// together with the trace.ErrCorrupt that truncated it. A
// version-skewed or headless trace fails before any point runs.
func Run(ctx context.Context, src io.Reader, g Grid) (Report, error) {
	if err := g.Validate(); err != nil {
		return Report{}, err
	}
	hdr, quanta, truncated := trace.DecodeAll(src)
	if truncated != nil && len(quanta) == 0 && hdr == (trace.Header{}) {
		// No header at all (corrupt line 1 or version skew): nothing
		// to price, fail the search up front.
		return Report{}, truncated
	}
	rep, err := RunDecoded(ctx, hdr, quanta, g)
	if err != nil {
		return rep, err
	}
	return rep, truncated
}

// RunDecoded is Run over an already-decoded trace (trace.DecodeAll):
// every grid point replays the same in-memory quanta, which are only
// read, so callers that keep a decoded trace resident — the estimate
// tier's cache — price any number of grids, concurrently, without
// decoding again.
func RunDecoded(ctx context.Context, hdr trace.Header, quanta []trace.Quantum, g Grid) (Report, error) {
	rep := Report{Header: hdr}
	if err := g.Validate(); err != nil {
		return rep, err
	}
	pol, err := policy.NewPolicy(g.Policy.String())
	if err != nil {
		return rep, err
	}

	for _, cfg := range g.Points() {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		st, err := trace.ReplayDecoded(hdr, quanta, pol, cfg)
		if err != nil {
			return rep, err
		}
		rep.Points = append(rep.Points, Point{
			Policy:            cfg.Kind.String(),
			HotWriteLines:     cfg.HotWriteLines,
			ColdWriteLines:    cfg.ColdWriteLines,
			DRAMBudgetPages:   cfg.DRAMBudgetPages,
			WearFactor:        cfg.WearFactor,
			Quanta:            st.Quanta,
			Actions:           st.Actions,
			PagesMigrated:     st.PagesMigrated,
			StallCycles:       st.StallCycles,
			PCMWriteLines:     st.PCMWriteLines,
			PCMWriteReduction: st.PCMWriteReduction(),
			MatchesRecorded:   st.MatchesRecorded && st.RecordedPolicy == pol.Name(),
		})
	}

	rep.Frontier = Frontier(rep.Points)
	rec, recommended := recommend(rep.Points, rep.Frontier)
	if recommended {
		rec.Recommended = true
		rep.Recommended = rec
		for i := range rep.Frontier {
			if samePoint(rep.Frontier[i], rec) {
				rep.Frontier[i].Recommended = true
			}
		}
	}
	// Flag frontier membership (and the recommendation, always a
	// frontier member) on the full point list in one pass.
	for i := range rep.Points {
		for _, f := range rep.Frontier {
			if samePoint(rep.Points[i], f) {
				rep.Points[i].Pareto = true
				rep.Points[i].Recommended = recommended && samePoint(rep.Points[i], rec)
			}
		}
	}
	return rep, nil
}

// samePoint matches points by their knob tuple — unique per grid,
// because Validate rejects duplicate dimension values.
func samePoint(a, b Point) bool {
	return a.Policy == b.Policy &&
		a.HotWriteLines == b.HotWriteLines &&
		a.ColdWriteLines == b.ColdWriteLines &&
		a.DRAMBudgetPages == b.DRAMBudgetPages &&
		a.WearFactor == b.WearFactor
}
