package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/policy"
)

// The replay engine and the delta decoder are checked differentially
// against reference implementations kept here: the straightforward
// map-based forms they replaced. The references hash every group by
// (process, address) and re-sort merged views; the production code
// merges address-ordered lists instead. Both must agree on every
// ReplayStats field and every reconstructed view.

// referenceReplay is the map-based replay engine: per-group tiers in a
// map keyed by (process, address), a per-quantum pages map, and final
// residency read from each process's last view.
func referenceReplay(h Header, quanta []Quantum, pol policy.Policy, cfg policy.Config) ReplayStats {
	st := ReplayStats{MatchesRecorded: true, Policy: pol.Name(), RecordedPolicy: h.Policy}
	cfg = cfg.WithDefaults()
	type groupKey struct {
		proc string
		addr uint64
	}
	type groupTier struct {
		baseline int
		replayed int
	}
	tiers := map[groupKey]*groupTier{}
	lastView := map[string][]policy.GroupStat{}
	for _, q := range quanta {
		st.Quanta++
		lastView[q.Proc] = q.View.Groups
		pages := make(map[uint64]int, len(q.View.Groups))
		for _, g := range q.View.Groups {
			pages[g.Addr] = g.Pages
			gt, ok := tiers[groupKey{q.Proc, g.Addr}]
			if !ok {
				gt = &groupTier{baseline: g.Node, replayed: g.Node}
				tiers[groupKey{q.Proc, g.Addr}] = gt
			}
			if g.WriteLines == 0 {
				continue
			}
			if gt.baseline == policy.PCMNode {
				st.BaselinePCMWriteLines += g.WriteLines
			}
			if g.Node == policy.PCMNode {
				st.RecordedPCMWriteLines += g.WriteLines
			}
			if gt.replayed == policy.PCMNode {
				st.PCMWriteLines += g.WriteLines
			}
		}
		actions := pol.Decide(q.View, cfg)
		if len(actions) > cfg.MaxGroupsPerQuantum {
			actions = actions[:cfg.MaxGroupsPerQuantum]
		}
		st.Actions += uint64(len(actions))
		if actionsEqual(actions, q.Actions) {
			for _, e := range q.Exec {
				st.PagesMigrated += uint64(e.Moved)
				st.StallCycles += e.Stall
			}
		} else {
			if st.MatchesRecorded {
				st.MatchesRecorded = false
				st.FirstMismatchQuantum = q.Q
			}
			for _, a := range actions {
				moved := pages[a.Addr]
				st.PagesMigrated += uint64(moved)
				st.StallCycles += float64(moved)*h.MigrationPageCycles + h.TLBShootdownCycles
			}
		}
		for _, a := range actions {
			if gt, ok := tiers[groupKey{q.Proc, a.Addr}]; ok && a.From != a.To {
				gt.replayed = a.To
			}
		}
	}
	for proc, groups := range lastView {
		for _, g := range groups {
			pages := uint64(g.Pages)
			if gt, ok := tiers[groupKey{proc, g.Addr}]; ok && gt.replayed == policy.PCMNode {
				st.ReplayedPCMPages += pages
			} else {
				st.ReplayedDRAMPages += pages
			}
			if g.Node == policy.PCMNode {
				st.RecordedPCMPages += pages
			} else {
				st.RecordedDRAMPages += pages
			}
		}
	}
	return st
}

// referenceApplyDelta is the map-based delta merge: changed groups
// overwrite, tombstones delete, and the survivors are re-sorted.
func referenceApplyDelta(prev, changed []policy.GroupStat, removed []uint64) []policy.GroupStat {
	if len(changed) == 0 && len(removed) == 0 {
		return prev
	}
	merged := make(map[uint64]policy.GroupStat, len(prev)+len(changed))
	for _, g := range prev {
		merged[g.Addr] = g
	}
	for _, g := range changed {
		merged[g.Addr] = g
	}
	for _, a := range removed {
		delete(merged, a)
	}
	if len(merged) == 0 {
		return nil
	}
	out := make([]policy.GroupStat, 0, len(merged))
	for _, g := range merged {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// requireViewsMatchReference rebuilds every view of a clean trace from
// its wire records with referenceApplyDelta and fails unless DecodeAll
// reconstructed the same views.
func requireViewsMatchReference(t *testing.T, data []byte, quanta []Quantum) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var h Header
	if err := json.Unmarshal(lines[0], &h); err != nil {
		t.Fatal(err)
	}
	prev := map[string][]policy.GroupStat{}
	n := 0
	for _, line := range lines[1:] {
		if bytes.HasPrefix(line, footerPrefix) {
			break
		}
		var rec wireRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		changed, err := decodeRuns(rec.G, h.GroupBytes)
		if err != nil {
			t.Fatal(err)
		}
		removed, err := decodeAddrs(rec.RM)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Key {
			prev[rec.Proc] = changed
		} else {
			prev[rec.Proc] = referenceApplyDelta(prev[rec.Proc], changed, removed)
		}
		if n >= len(quanta) || !groupsEqual(quanta[n].View.Groups, prev[rec.Proc]) {
			t.Fatalf("record %d: decoded view differs from the reference reconstruction", n)
		}
		n++
	}
	if n != len(quanta) {
		t.Fatalf("reference rebuilt %d views, DecodeAll %d", n, len(quanta))
	}
}

// requireReplayMatchesReference replays quanta through ReplayDecoded
// and the reference engine and fails on any differing field.
func requireReplayMatchesReference(t *testing.T, name string, h Header, quanta []Quantum, pol policy.Policy, cfg policy.Config) ReplayStats {
	t.Helper()
	got, err := ReplayDecoded(h, quanta, pol, cfg)
	if err != nil {
		t.Fatalf("%s: ReplayDecoded: %v", name, err)
	}
	if want := referenceReplay(h, quanta, pol, cfg); got != want {
		t.Fatalf("%s: replay differs from the reference engine\n got %+v\nwant %+v", name, got, want)
	}
	return got
}

// builtinPolicies instantiates every registered built-in policy.
func builtinPolicies(t testing.TB) []policy.Policy {
	var pols []policy.Policy
	for k := policy.Static; k < policy.NumKinds; k++ {
		pol, err := policy.NewPolicy(k.String())
		if err != nil {
			t.Fatal(err)
		}
		pols = append(pols, pol)
	}
	return pols
}

// serveGrid is the 3x3 write-threshold grid hybridserved's benchmark
// traffic autotunes over (hot x cold thresholds, defaults elsewhere).
func serveGrid() []policy.Config {
	var cfgs []policy.Config
	for _, hot := range []uint64{64, 256, 1024} {
		for _, cold := range []uint64{0, 16, 64} {
			cfgs = append(cfgs, policy.Config{Kind: policy.WriteThreshold,
				HotWriteLines: hot, ColdWriteLines: cold}.WithDefaults())
		}
	}
	return cfgs
}

func decodeGolden(t testing.TB) ([]byte, Header, []Quantum) {
	t.Helper()
	data, err := os.ReadFile(fuzzGolden)
	if err != nil {
		t.Fatal(err)
	}
	h, quanta, err := DecodeAll(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decoding the golden trace: %v", err)
	}
	return data, h, quanta
}

// TestReplayMatchesReferenceOnGolden checks the committed golden
// trace's decoded views, then replays it under every built-in policy
// (recorded knobs) and every point of the serve autotune grid, through
// both the in-memory and the streaming entry points.
func TestReplayMatchesReferenceOnGolden(t *testing.T) {
	data, h, quanta := decodeGolden(t)
	requireViewsMatchReference(t, data, quanta)
	for _, pol := range builtinPolicies(t) {
		cfgs := []policy.Config{h.PolicyConfig()}
		if pol.Name() == policy.WriteThreshold.String() {
			cfgs = append(cfgs, serveGrid()...)
		}
		if pol.Name() == policy.WearLevel.String() {
			for _, wf := range []float64{1, 1.5, 3} {
				cfgs = append(cfgs, policy.Config{Kind: policy.WearLevel, WearFactor: wf}.WithDefaults())
			}
		}
		for _, cfg := range cfgs {
			name := fmt.Sprintf("%s %s", pol.Name(), cfg.Key())
			want := requireReplayMatchesReference(t, name, h, quanta, pol, cfg)
			got, err := ReplayWith(bytes.NewReader(data), pol, cfg)
			if err != nil || got != want {
				t.Fatalf("%s: streaming replay = %+v, %v; want %+v", name, got, err, want)
			}
		}
	}
}

// demotionQuanta synthesizes a two-process trace whose views hold
// hundreds of DRAM pages, so write-threshold demotes under any budget
// below that: DRAM groups with write counts around the cold thresholds
// (many tied), PCM groups hot enough to promote, group sets that shift
// between quanta, and recorded actions that match a replay under a
// 64-page budget.
func demotionQuanta(rng *rand.Rand, n int) (Header, []Quantum) {
	h := testHeader()
	var quanta []Quantum
	for i := 0; i < n; i++ {
		proc := []string{"a", "b"}[rng.IntN(2)]
		var v policy.View
		v.Quantum = uint64(i + 1)
		addr := uint64(0x10000000)
		for range 40 + rng.IntN(120) {
			addr += uint64(1+rng.IntN(3)) * 65536
			gs := policy.GroupStat{Addr: addr, Node: rng.IntN(2), Pages: 1 + rng.IntN(16)}
			if gs.Node == policy.DRAMNode {
				gs.WriteLines = []uint64{0, 0, 8, 16, 16, 40, 64, 200}[rng.IntN(8)]
				v.DRAMPages += uint64(gs.Pages)
			} else {
				gs.WriteLines = []uint64{0, 100, 256, 256, 512, 2048}[rng.IntN(6)]
				v.PCMPages += uint64(gs.Pages)
			}
			gs.MaxWear = uint32(rng.IntN(4)) * 64
			v.Groups = append(v.Groups, gs)
		}
		q := Quantum{Q: v.Quantum, Proc: proc, View: v}
		if rng.IntN(3) == 0 {
			cfg := policy.Config{Kind: policy.WriteThreshold, DRAMBudgetPages: 64}.WithDefaults()
			pol, _ := policy.NewPolicy(policy.WriteThreshold.String())
			q.Actions = pol.Decide(v, cfg)
			if len(q.Actions) > cfg.MaxGroupsPerQuantum {
				q.Actions = q.Actions[:cfg.MaxGroupsPerQuantum]
			}
			for range q.Actions {
				q.Exec = append(q.Exec, policy.Exec{Moved: 16, Stall: 23200})
			}
		}
		quanta = append(quanta, q)
	}
	return h, quanta
}

// TestReplayMatchesReferenceUnderDemotion covers the demotion path no
// recorded benchmark trace reaches: DRAM residency over budget, under
// cold thresholds 0, 16 and 64, with action limits below, at and above
// the candidate counts.
func TestReplayMatchesReferenceUnderDemotion(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	h, quanta := demotionQuanta(rng, 24)
	pol, _ := policy.NewPolicy(policy.WriteThreshold.String())
	for _, cold := range []uint64{0, 16, 64} {
		for _, budget := range []uint64{1, 64, 400, 1 << 20} {
			for _, max := range []int{1, 3, 64, 1000} {
				cfg := policy.Config{Kind: policy.WriteThreshold, HotWriteLines: 256,
					ColdWriteLines: cold, DRAMBudgetPages: budget, MaxGroupsPerQuantum: max}
				requireReplayMatchesReference(t, cfg.Key(), h, quanta, pol, cfg)
			}
		}
	}
}

// scramblePolicy is a custom policy exercising what the built-ins
// never emit: actions out of urgency order, more actions than the
// limit, rotations (From == To), and addresses the current view does
// not list — some listed by earlier views, some never seen.
type scramblePolicy struct{ seed uint64 }

func (scramblePolicy) Name() string { return "scramble" }

func (p scramblePolicy) Decide(v policy.View, cfg policy.Config) []policy.Action {
	rng := rand.New(rand.NewPCG(p.seed, v.Quantum))
	var actions []policy.Action
	for _, g := range v.Groups {
		if rng.IntN(4) == 0 {
			actions = append(actions, policy.Action{Addr: g.Addr, From: g.Node, To: rng.IntN(2)})
		}
	}
	// Addresses in demotionQuanta's range: groups an earlier view of
	// the process listed, or none ever did.
	for i := 0; i < 8; i++ {
		addr := 0x10000000 + uint64(rng.IntN(500))*65536
		actions = append(actions, policy.Action{Addr: addr, From: rng.IntN(2), To: rng.IntN(2)})
	}
	rng.Shuffle(len(actions), func(i, j int) { actions[i], actions[j] = actions[j], actions[i] })
	return actions
}

func TestReplayMatchesReferenceForCustomPolicy(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	h, quanta := demotionQuanta(rng, 32)
	for seed := uint64(0); seed < 8; seed++ {
		for _, max := range []int{1, 5, 64, 1000} {
			cfg := policy.Config{MaxGroupsPerQuantum: max}
			requireReplayMatchesReference(t, fmt.Sprintf("seed %d max %d", seed, max),
				h, quanta, scramblePolicy{seed}, cfg)
		}
	}
}

// TestReplayDecodedRejectsUnorderedView: hand-built quanta bypass the
// Reader's order check, so the replay checks the order its merge
// relies on, and fails without charging the offending quantum.
func TestReplayDecodedRejectsUnorderedView(t *testing.T) {
	h := testHeader()
	good := Quantum{Q: 1, Proc: "p", View: synthView(1, 0)}
	bad := Quantum{Q: 2, Proc: "p", View: synthView(2, 0)}
	g := bad.View.Groups
	g[0], g[1] = g[1], g[0]
	pol, _ := policy.NewPolicy(policy.WriteThreshold.String())
	st, err := ReplayDecoded(h, []Quantum{good, bad}, pol, h.PolicyConfig())
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "quantum 2") {
		t.Fatalf("unordered view: err = %v, want ErrCorrupt naming quantum 2", err)
	}
	if want := referenceReplay(h, []Quantum{good}, pol, h.PolicyConfig()); st.Quanta != 1 ||
		st.PCMWriteLines != want.PCMWriteLines || st.BaselinePCMWriteLines != want.BaselinePCMWriteLines {
		t.Fatalf("stats after the rejected quantum = %+v, want the first quantum's %+v", st, want)
	}
}

// TestApplyDeltaMatchesReference merges random address-ordered
// previous views, changed lists and tombstone lists — overlapping,
// disjoint, tombstones naming absent and changed groups — through both
// implementations.
func TestApplyDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	sortedGroups := func(n, span int) []policy.GroupStat {
		var out []policy.GroupStat
		for _, slot := range rng.Perm(span)[:n] {
			out = append(out, policy.GroupStat{Addr: uint64(slot) * 4096,
				Node: rng.IntN(2), Pages: 1 + rng.IntN(16), WriteLines: uint64(rng.IntN(9))})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
		return out
	}
	for i := 0; i < 2000; i++ {
		span := 1 + rng.IntN(64)
		prev := sortedGroups(rng.IntN(span+1), span)
		changed := sortedGroups(rng.IntN(span+1), span)
		var removed []uint64
		for _, slot := range rng.Perm(span)[:rng.IntN(span+1)] {
			removed = append(removed, uint64(slot)*4096)
		}
		sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
		if rng.IntN(4) == 0 {
			changed = nil
		}
		if rng.IntN(4) == 0 {
			removed = nil
		}
		got := applyDelta(prev, changed, removed)
		want := referenceApplyDelta(prev, changed, removed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: applyDelta(%v, %v, %v)\n got %v\nwant %v", i, prev, changed, removed, got, want)
		}
	}
}

// orderTrace writes a header, a valid first keyframe interval (two
// records at interval 2), and then the given raw record lines.
func orderTrace(t *testing.T, lines ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, testHeaderK(2))
	if err != nil {
		t.Fatal(err)
	}
	rec.OnQuantum("p", synthView(1, 0), nil, nil)
	rec.OnQuantum("p", synthView(2, 300), nil, nil)
	for _, l := range lines {
		buf.WriteString(l + "\n")
	}
	return buf.Bytes()
}

// TestReaderRejectsUnorderedAddresses: group addresses must ascend
// strictly in keyframe runs, delta runs and tombstones alike. Each
// violation is ErrCorrupt naming its line, and DecodeAll keeps the
// prefix up to the last keyframe boundary.
func TestReaderRejectsUnorderedAddresses(t *testing.T) {
	cases := []struct {
		name string
		line string
		want string
	}{
		{"keyframe out of order", `{"q":3,"proc":"p","key":true,"g":[[1048576,1,0,16],[-196608,1,1,16]]}`, "ascend"},
		{"duplicate keyframe group", `{"q":3,"proc":"p","key":true,"g":[[1048576,1,0,16],[-65536,1,1,16]]}`, "ascend"},
		{"delta group out of order", `{"q":3,"proc":"p","key":true,"g":[[1048576,2,0,16]]}` + "\n" +
			`{"q":4,"proc":"p","g":[[1179648,1,1,16],[-196608,1,1,16]]}`, "ascend"},
		{"tombstones out of order", `{"q":3,"proc":"p","key":true,"g":[[1048576,4,0,16]]}` + "\n" +
			`{"q":4,"proc":"p","rm":[1179648,-65536]}`, "tombstone"},
		{"duplicate tombstone", `{"q":3,"proc":"p","key":true,"g":[[1048576,4,0,16]]}` + "\n" +
			`{"q":4,"proc":"p","rm":[1114112,0]}`, "tombstone"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := orderTrace(t, tc.line)
			badLine := 2 + strings.Count(tc.line, "\n") + 2 // header + 2 records + the case's lines
			r := NewReader(bytes.NewReader(data))
			var err error
			for err == nil {
				_, err = r.Next()
			}
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", badLine)) ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want ErrCorrupt naming line %d (%s)", err, badLine, tc.want)
			}
			_, quanta, derr := DecodeAll(bytes.NewReader(data))
			if !errors.Is(derr, ErrCorrupt) || len(quanta) != 2 {
				t.Fatalf("DecodeAll = %d quanta, %v; want the 2-record keyframe interval and ErrCorrupt", len(quanta), derr)
			}
		})
	}
}

// TestRecorderRejectsUnorderedView: the writer refuses what the reader
// would reject, so a recorded trace always reads back.
func TestRecorderRejectsUnorderedView(t *testing.T) {
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	v := synthView(1, 0)
	v.Groups[0], v.Groups[1] = v.Groups[1], v.Groups[0]
	rec.OnQuantum("p", v, nil, nil)
	if err := rec.Err(); err == nil || !strings.Contains(err.Error(), "address order") {
		t.Fatalf("Err() = %v, want an address-order error", err)
	}
	if rec.Quanta() != 0 {
		t.Fatalf("recorded %d quanta of an unordered view", rec.Quanta())
	}
}
