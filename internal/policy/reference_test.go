package policy_test

import (
	"bytes"
	"math/rand/v2"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/policy"
	"repro/internal/trace"
)

// The built-in Decides rank compact keys and stop at the action limit.
// They are checked differentially against the reference forms kept
// here: the whole candidate list sorted with sort.Slice, every action
// emitted, and the list cut to MaxGroupsPerQuantum the way the engine
// and the replay cut it.

// referenceWriteThreshold is write-threshold's full-sort Decide.
func referenceWriteThreshold(v policy.View, cfg policy.Config) []policy.Action {
	var actions []policy.Action
	demoted := 0
	if v.DRAMPages > cfg.DRAMBudgetPages {
		var cold []policy.GroupStat
		for _, g := range v.Groups {
			if g.Node == policy.DRAMNode && g.WriteLines <= cfg.ColdWriteLines {
				cold = append(cold, g)
			}
		}
		sort.Slice(cold, func(i, j int) bool {
			if cold[i].WriteLines != cold[j].WriteLines {
				return cold[i].WriteLines < cold[j].WriteLines
			}
			return cold[i].Addr < cold[j].Addr
		})
		excess := int(v.DRAMPages - cfg.DRAMBudgetPages)
		for _, g := range cold {
			if demoted >= excess {
				break
			}
			actions = append(actions, policy.Action{Addr: g.Addr, From: policy.DRAMNode, To: policy.PCMNode})
			demoted += g.Pages
		}
	}
	var hot []policy.GroupStat
	for _, g := range v.Groups {
		if g.Node == policy.PCMNode && g.WriteLines >= cfg.HotWriteLines {
			hot = append(hot, g)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].WriteLines != hot[j].WriteLines {
			return hot[i].WriteLines > hot[j].WriteLines
		}
		return hot[i].Addr < hot[j].Addr
	})
	free := int64(cfg.DRAMBudgetPages) - int64(v.DRAMPages) + int64(demoted)
	for _, g := range hot {
		if free < int64(g.Pages) {
			break
		}
		actions = append(actions, policy.Action{Addr: g.Addr, From: policy.PCMNode, To: policy.DRAMNode})
		free -= int64(g.Pages)
	}
	return actions
}

// referenceWearLevel is wear-level's full-sort Decide.
func referenceWearLevel(v policy.View, cfg policy.Config) []policy.Action {
	var sum float64
	n := 0
	for _, g := range v.Groups {
		if g.Node == policy.PCMNode && g.MaxWear > 0 {
			sum += float64(g.MaxWear)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	threshold := cfg.WearFactor * sum / float64(n)
	var worn []policy.GroupStat
	for _, g := range v.Groups {
		if g.Node == policy.PCMNode && float64(g.MaxWear) > threshold {
			worn = append(worn, g)
		}
	}
	sort.Slice(worn, func(i, j int) bool {
		if worn[i].MaxWear != worn[j].MaxWear {
			return worn[i].MaxWear > worn[j].MaxWear
		}
		return worn[i].Addr < worn[j].Addr
	})
	var actions []policy.Action
	for _, g := range worn {
		actions = append(actions, policy.Action{Addr: g.Addr, From: policy.PCMNode, To: policy.PCMNode})
	}
	return actions
}

var references = map[policy.Kind]func(policy.View, policy.Config) []policy.Action{
	policy.WriteThreshold: referenceWriteThreshold,
	policy.WearLevel:      referenceWearLevel,
}

// requireDecideMatchesReference checks one view and config: the
// built-in returns at most MaxGroupsPerQuantum actions, exactly the
// reference's list after the engine's cut. It reports whether the
// reference list was longer than the cut.
func requireDecideMatchesReference(t *testing.T, kind policy.Kind, v policy.View, cfg policy.Config) bool {
	t.Helper()
	pol, err := policy.NewPolicy(kind.String())
	if err != nil {
		t.Fatal(err)
	}
	got := pol.Decide(v, cfg)
	want := references[kind](v, cfg)
	cut := len(want) > cfg.MaxGroupsPerQuantum
	if cut {
		want = want[:cfg.MaxGroupsPerQuantum]
	}
	if len(got) > cfg.MaxGroupsPerQuantum || !slices.Equal(got, want) {
		t.Fatalf("%s on quantum %d (%d groups):\n got %v\nwant %v", cfg.Key(), v.Quantum, len(v.Groups), got, want)
	}
	return cut
}

// goldenViews decodes the committed golden trace's views.
func goldenViews(t testing.TB) (trace.Header, []policy.View) {
	t.Helper()
	data, err := os.ReadFile("../../testdata/traces/pr_kgn_write-threshold_quick.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	h, quanta, err := trace.DecodeAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	views := make([]policy.View, len(quanta))
	for i, q := range quanta {
		views[i] = q.View
	}
	return h, views
}

// TestDecideMatchesReferenceOnGolden runs both Decides over the golden
// trace's views under the recorded knobs, the serve autotune grid (3
// hot by 3 cold thresholds), budgets that force demotion, action limits
// around the hot-list length, and several wear factors.
func TestDecideMatchesReferenceOnGolden(t *testing.T) {
	h, views := goldenViews(t)
	cfgs := []policy.Config{h.PolicyConfig()}
	for _, hot := range []uint64{64, 256, 1024} {
		for _, cold := range []uint64{0, 16, 64} {
			for _, budget := range []uint64{0, 1024, 8000} {
				for _, max := range []int{0, 1, 16, 1000} {
					cfgs = append(cfgs, policy.Config{Kind: policy.WriteThreshold, HotWriteLines: hot,
						ColdWriteLines: cold, DRAMBudgetPages: budget, MaxGroupsPerQuantum: max}.WithDefaults())
				}
			}
		}
	}
	for _, wf := range []float64{0.5, 1, 1.5, 2, 3} {
		for _, max := range []int{0, 1, 16, 1000} {
			cfgs = append(cfgs, policy.Config{Kind: policy.WearLevel, WearFactor: wf,
				MaxGroupsPerQuantum: max}.WithDefaults())
		}
	}
	for _, cfg := range cfgs {
		kinds := []policy.Kind{policy.WriteThreshold, policy.WearLevel}
		for _, v := range views {
			for _, k := range kinds {
				requireDecideMatchesReference(t, k, v, cfg)
			}
		}
	}
}

// syntheticView draws n address-ordered groups whose signals collide
// often (few distinct write counts and wear levels), so ties broken by
// address decide the order.
func syntheticView(rng *rand.Rand, n int) policy.View {
	v := policy.View{Quantum: uint64(rng.IntN(1000))}
	addr := uint64(0x40000000)
	for range n {
		addr += uint64(1+rng.IntN(4)) << 16
		g := policy.GroupStat{Addr: addr, Node: rng.IntN(2), Pages: 1 + rng.IntN(16)}
		g.WriteLines = []uint64{0, 0, 4, 16, 16, 64, 100, 256, 256, 300, 1024}[rng.IntN(11)]
		g.MaxWear = uint32(rng.IntN(5)) * 32
		if g.Node == policy.DRAMNode {
			v.DRAMPages += uint64(g.Pages)
		} else {
			v.PCMPages += uint64(g.Pages)
		}
		v.Groups = append(v.Groups, g)
	}
	return v
}

// TestDecideMatchesReferenceSynthetic sweeps random views against
// limits below, at and above the candidate counts, with budgets from
// far under to far over DRAM residency and cold thresholds 0/16/64 —
// including demotion lists that alone reach the limit — and checks
// each of those shapes actually occurred.
func TestDecideMatchesReferenceSynthetic(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	var cut, uncut, demoteFill int
	for i := 0; i < 400; i++ {
		v := syntheticView(rng, rng.IntN(200))
		hot := []uint64{16, 100, 256}[rng.IntN(3)]
		for _, cold := range []uint64{0, 16, 64} {
			for _, budget := range []uint64{1, v.DRAMPages / 2, v.DRAMPages + 1, v.DRAMPages + 50} {
				for _, max := range []int{1, 2, 7, 64, len(v.Groups)} {
					if max == 0 {
						continue
					}
					cfg := policy.Config{Kind: policy.WriteThreshold, HotWriteLines: hot,
						ColdWriteLines: cold, DRAMBudgetPages: max64(budget, 1), MaxGroupsPerQuantum: max}
					if requireDecideMatchesReference(t, policy.WriteThreshold, v, cfg) {
						cut++
					} else {
						uncut++
					}
					full := referenceWriteThreshold(v, cfg)
					if len(full) > max && full[max-1].To == policy.PCMNode {
						demoteFill++
					}
				}
			}
		}
		for _, wf := range []float64{0.5, 1, 2} {
			for _, max := range []int{1, 3, 64} {
				cfg := policy.Config{Kind: policy.WearLevel, WearFactor: wf, MaxGroupsPerQuantum: max}
				requireDecideMatchesReference(t, policy.WearLevel, v, cfg)
			}
		}
	}
	if cut == 0 || uncut == 0 || demoteFill == 0 {
		t.Fatalf("sweep missed a shape: %d cut lists, %d uncut, %d filled by demotions alone", cut, uncut, demoteFill)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// TestDecideLimitEdges pins the limit against hot lists exactly one
// shorter than, equal to and one longer than MaxGroupsPerQuantum.
func TestDecideLimitEdges(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		v := policy.View{Quantum: 1, PCMPages: uint64(n) * 16}
		for i := range n {
			v.Groups = append(v.Groups, policy.GroupStat{Addr: uint64(i+1) << 16, Node: policy.PCMNode,
				Pages: 16, WriteLines: 500 + uint64(i%2)})
		}
		cfg := policy.Config{Kind: policy.WriteThreshold, MaxGroupsPerQuantum: 4}.WithDefaults()
		requireDecideMatchesReference(t, policy.WriteThreshold, v, cfg)
		pol, _ := policy.NewPolicy(policy.WriteThreshold.String())
		if got := len(pol.Decide(v, cfg)); got != min(n, 4) {
			t.Errorf("%d hot groups, limit 4: %d actions", n, got)
		}
	}
}

// TestDecideLimitAfterDemotions: demotions leave a few pages of DRAM
// headroom, and the promotions that fit it share the limit with them.
func TestDecideLimitAfterDemotions(t *testing.T) {
	v := policy.View{Quantum: 1, DRAMPages: 101, PCMPages: 10}
	v.Groups = append(v.Groups, policy.GroupStat{Addr: 1 << 16, Node: policy.DRAMNode, Pages: 16})
	v.Groups = append(v.Groups, policy.GroupStat{Addr: 2 << 16, Node: policy.DRAMNode, Pages: 85, WriteLines: 900})
	for i := range 10 {
		v.Groups = append(v.Groups, policy.GroupStat{Addr: uint64(i+3) << 16, Node: policy.PCMNode,
			Pages: 1, WriteLines: 300 + uint64(i%3)})
	}
	for _, max := range []int{1, 2, 4, 11, 64} {
		cfg := policy.Config{Kind: policy.WriteThreshold, DRAMBudgetPages: 100, MaxGroupsPerQuantum: max}.WithDefaults()
		requireDecideMatchesReference(t, policy.WriteThreshold, v, cfg)
	}
	pol, _ := policy.NewPolicy(policy.WriteThreshold.String())
	cfg := policy.Config{Kind: policy.WriteThreshold, DRAMBudgetPages: 100, MaxGroupsPerQuantum: 4}.WithDefaults()
	if got := pol.Decide(v, cfg); len(got) != 4 || got[0].To != policy.PCMNode || got[1].To != policy.DRAMNode {
		t.Fatalf("one demotion then promotions up to the limit: got %v", got)
	}
}

// TestWearLevelTiedMaxWear: groups tied on MaxWear rank by address, so
// the cut keeps the lowest addresses among the tie.
func TestWearLevelTiedMaxWear(t *testing.T) {
	v := policy.View{Quantum: 1}
	for i, wear := range []uint32{1, 1, 1, 1, 90, 90, 90, 90, 90, 50, 90} {
		v.Groups = append(v.Groups, policy.GroupStat{Addr: uint64(100-i) << 16, Node: policy.PCMNode,
			Pages: 16, MaxWear: wear})
	}
	slices.SortFunc(v.Groups, func(a, b policy.GroupStat) int { return int(a.Addr>>16) - int(b.Addr>>16) })
	for _, max := range []int{1, 3, 6, 64} {
		cfg := policy.Config{Kind: policy.WearLevel, WearFactor: 1, MaxGroupsPerQuantum: max}
		requireDecideMatchesReference(t, policy.WearLevel, v, cfg)
	}
	pol, _ := policy.NewPolicy(policy.WearLevel.String())
	got := pol.Decide(v, policy.Config{Kind: policy.WearLevel, WearFactor: 1, MaxGroupsPerQuantum: 3})
	want := []policy.Action{{Addr: 90 << 16, From: 1, To: 1}, {Addr: 92 << 16, From: 1, To: 1}, {Addr: 93 << 16, From: 1, To: 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("tied wear cut = %v, want %v", got, want)
	}
}

func benchmarkDecide(b *testing.B, kind policy.Kind) {
	h, views := goldenViews(b)
	pol, err := policy.NewPolicy(kind.String())
	if err != nil {
		b.Fatal(err)
	}
	cfg := h.PolicyConfig()
	cfg.Kind = kind
	b.ReportAllocs()
	for b.Loop() {
		for _, v := range views {
			pol.Decide(v, cfg)
		}
	}
}

// BenchmarkDecideWriteThreshold and BenchmarkDecideWearLevel time one
// Decide per golden-trace view under the recorded knobs.
func BenchmarkDecideWriteThreshold(b *testing.B) { benchmarkDecide(b, policy.WriteThreshold) }
func BenchmarkDecideWearLevel(b *testing.B)      { benchmarkDecide(b, policy.WearLevel) }
