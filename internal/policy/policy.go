// Package policy is the dynamic-placement engine of the emulation
// platform: a pluggable decision layer that runs at GC-safepoint
// quanta and decides, per page group of the managed heap, which
// emulated tier (DRAM or PCM) backs it.
//
// The paper's Kingsguard collectors fix every space's tier when the
// plan is constructed; this package generalizes that into online
// page-level placement, the direction the NUMA-emulation line of work
// (arXiv:1808.00064) and hardware emulators with per-region migration
// latencies (METICULOUS, arXiv:2309.06565) explore. A policy sees a
// per-quantum View — page groups with their current tier, resident
// pages, window access/write counts from the memory devices, and wear
// — and returns migration Actions. The Engine executes them through
// the kernel's MovePages, so every migration pays an explicit cost:
// page-copy traffic on both memory controllers, QPI crossings, remap
// work, and a TLB shootdown, all charged to the process at the
// safepoint.
//
// Every decision is parameterized by a Config — the policy kind plus
// its knobs (HotWriteLines, ColdWriteLines, DRAMBudgetPages,
// WearFactor, MaxGroupsPerQuantum) — injected per engine instance, not
// read from globals: NewEngine/NewEngineWith take the Config, Decide
// receives it per quantum, and trace.ReplayWith re-drives recorded
// views under any Config. That per-instance injection is what lets
// internal/autotune price a whole knob grid against one recorded
// trace and the facade run tuned knob points live
// (hybridmem.WithPolicyConfig) without cross-talk between concurrent
// platforms.
//
// Policies are pluggable at the library level: Register adds a named
// policy to the registry and NewEngineWith wraps any Policy value in
// an engine an embedder can hook onto jvm.Runtime.Safepoint directly.
// The platform facade (hybridmem.WithPolicy and the CLI/HTTP
// surfaces) exposes the four built-ins only — custom policies have no
// stable cross-process identity to key cached results by. The
// built-ins cover the spectrum: static (no engine work at all; the
// paper's behavior bit-for-bit), first-touch (the OS default
// placement; no migrations), write-threshold (promote write-hot PCM
// groups to DRAM, demote cold DRAM groups under pressure), and
// wear-level (rotate the most-worn PCM groups onto fresh frames using
// the devices' wear histograms).
//
// Everything is deterministic: views are built in address order,
// decisions are sorted with address tiebreaks, and all state is
// per-run.
package policy

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/heap"
	"repro/internal/kernel"
	"repro/internal/machine"
)

// DRAMNode and PCMNode are the NUMA roles of the paper's platform.
const (
	DRAMNode = 0
	PCMNode  = 1
)

// Kind enumerates the built-in placement policies.
type Kind int

const (
	// Static is the paper's behavior: tiers fixed at plan
	// construction, no engine, bit-identical results.
	Static Kind = iota
	// FirstTouch leaves heap placement to the OS default: a page
	// lands on the node local to the first thread that touches it.
	FirstTouch
	// WriteThreshold promotes PCM page groups whose per-quantum write
	// rate exceeds a threshold to DRAM, and demotes cold DRAM groups
	// back to PCM when DRAM residency exceeds its budget.
	WriteThreshold
	// WearLevel rotates the most-worn PCM page groups onto fresh
	// frames round-robin, spreading writes across the device using
	// the existing wear histograms.
	WearLevel
	// NumKinds is the number of built-in policies.
	NumKinds
)

// String names the policy as the CLI and HTTP surfaces spell it.
func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case FirstTouch:
		return "first-touch"
	case WriteThreshold:
		return "write-threshold"
	case WearLevel:
		return "wear-level"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Description is the one-line summary served by GET /v1/policies.
func (k Kind) Description() string {
	switch k {
	case Static:
		return "tiers fixed at plan construction (the paper's behavior)"
	case FirstTouch:
		return "OS default placement: pages land on the first-touching thread's node"
	case WriteThreshold:
		return "promote write-hot PCM page groups to DRAM; demote cold DRAM groups under pressure"
	case WearLevel:
		return "rotate the most-worn PCM page groups onto fresh frames"
	default:
		return ""
	}
}

// Config is a resolved policy configuration: the kind plus its knobs.
// The zero value is Static — today's behavior.
type Config struct {
	Kind Kind
	// HotWriteLines is WriteThreshold's promotion knob: a PCM group
	// whose window write count reaches it migrates to DRAM.
	HotWriteLines uint64
	// ColdWriteLines is WriteThreshold's demotion knob: under DRAM
	// pressure, DRAM groups at or below it migrate to PCM.
	ColdWriteLines uint64
	// DRAMBudgetPages is WriteThreshold's pressure point: demotion
	// starts once DRAM-resident heap pages exceed it.
	DRAMBudgetPages uint64
	// WearFactor is WearLevel's hot threshold: a PCM group rotates
	// when its most-worn page exceeds WearFactor times the mean.
	WearFactor float64
	// MaxGroupsPerQuantum bounds the migrations one safepoint may
	// issue, so a policy cannot stall a quantum arbitrarily.
	MaxGroupsPerQuantum int
	// ReadWindow additionally tracks per-page reads in the window, so
	// GroupStat.ReadLines carries data. No built-in policy consumes
	// reads; custom (NewEngineWith / core.Options.Policy) setups
	// opt in because per-line read counting is hot-path work.
	ReadWindow bool
}

// Default knob values.
const (
	DefaultHotWriteLines       = 256
	DefaultColdWriteLines      = 0
	DefaultDRAMBudgetPages     = 32768 // 128 MB
	DefaultWearFactor          = 2.0
	DefaultMaxGroupsPerQuantum = 64
)

// WithDefaults fills unset knobs with their defaults.
func (c Config) WithDefaults() Config {
	if c.HotWriteLines == 0 {
		c.HotWriteLines = DefaultHotWriteLines
	}
	if c.DRAMBudgetPages == 0 {
		c.DRAMBudgetPages = DefaultDRAMBudgetPages
	}
	if c.WearFactor <= 0 {
		c.WearFactor = DefaultWearFactor
	}
	if c.MaxGroupsPerQuantum <= 0 {
		c.MaxGroupsPerQuantum = DefaultMaxGroupsPerQuantum
	}
	return c
}

// Key renders the configuration as a stable cache/store key fragment.
// Static is spelled bare so platforms without a policy keep a readable
// key; other kinds append their resolved knobs, so two configurations
// that could produce different Results never share a key.
func (c Config) Key() string {
	if c.Kind == Static {
		return "static"
	}
	d := c.WithDefaults()
	return fmt.Sprintf("%s(hot=%d,cold=%d,budget=%d,wf=%g,max=%d,rw=%t)",
		d.Kind, d.HotWriteLines, d.ColdWriteLines, d.DRAMBudgetPages, d.WearFactor,
		d.MaxGroupsPerQuantum, d.ReadWindow)
}

// NeedsWindow reports whether the policy reads per-page window
// counters (the devices only track them when asked: counting is free
// of model perturbation but not of host memory).
func (c Config) NeedsWindow() bool { return c.Kind == WriteThreshold || c.ReadWindow }

// NeedsReadWindow reports whether reads should be window-counted too.
func (c Config) NeedsReadWindow() bool { return c.ReadWindow }

// NeedsWear reports whether the policy reads the wear histograms.
func (c Config) NeedsWear() bool { return c.Kind == WearLevel }

// FirstTouchHeap reports whether heap spaces should take the OS
// first-touch placement instead of the plan's explicit bindings.
func (c Config) FirstTouchHeap() bool { return c.Kind == FirstTouch }

// Migrates reports whether the built-in policy can ever move pages.
// Static's effect is no engine at all, and first-touch's is entirely
// the plan-time binding, so neither needs per-safepoint work.
func (c Config) Migrates() bool {
	return c.Kind == WriteThreshold || c.Kind == WearLevel
}

// GroupStat is one page group as a policy sees it at a quantum. The
// JSON tags are the trace-record schema: internal/trace streams views
// verbatim, and the trace golden test freezes the field names.
type GroupStat struct {
	// Addr is the group's base virtual address.
	Addr uint64 `json:"addr"`
	// Node is the group's current tier intent from the heap's
	// PageMap (heap.TierUnknown under first-touch until decided).
	Node int `json:"node"`
	// Pages is the number of resident pages in the group.
	Pages int `json:"pages"`
	// WriteLines is the group's memory-controller writeback traffic
	// over the window (zero unless the policy asked for window
	// tracking). ReadLines is the read-side counterpart; no built-in
	// policy consumes it, so it stays zero unless the machine was
	// configured with TrackWindowReads for a custom policy.
	WriteLines uint64 `json:"w,omitempty"`
	ReadLines  uint64 `json:"r,omitempty"`
	// MaxWear is the lifetime write count of the group's most-worn
	// page (zero unless wear tracking is on).
	MaxWear uint32 `json:"wear,omitempty"`
}

// View is the engine's per-quantum snapshot of one process's heap.
type View struct {
	// Groups holds every page group with at least one resident page,
	// in address order.
	Groups []GroupStat `json:"groups"`
	// DRAMPages and PCMPages are the resident heap pages per tier.
	DRAMPages uint64 `json:"dramPages"`
	PCMPages  uint64 `json:"pcmPages"`
	// Quantum is the safepoint sequence number, starting at 1.
	Quantum uint64 `json:"quantum"`
}

// Action is one migration decision: move the group's pages currently
// on From to To. From == To rotates the pages onto fresh frames of
// the same node (wear leveling).
type Action struct {
	Addr uint64 `json:"addr"`
	From int    `json:"from"`
	To   int    `json:"to"`
}

// Exec is the executed outcome of one Action: how many pages MovePages
// actually migrated and the stall cycles it charged. An exec list can
// be shorter than its action list — the engine stops a quantum early
// when the destination node runs out of frames.
type Exec struct {
	Moved int     `json:"moved"`
	Stall float64 `json:"stall"`
}

// Tap observes every quantum the engine executes: the view the policy
// saw, the actions it emitted (post-truncation, exactly as executed),
// and the per-action execution outcomes. internal/trace's Recorder is
// the canonical Tap; a tapped engine also gathers window and wear
// counters unconditionally so the observed views are complete even for
// policies that would not read them.
type Tap interface {
	OnQuantum(proc string, v View, actions []Action, exec []Exec)
}

// Policy decides migrations from a View. Implementations must be
// deterministic: equal views and configs must yield equal actions.
type Policy interface {
	// Name is the registry name.
	Name() string
	// Decide returns the quantum's migrations, most urgent first. The
	// engine truncates the list to cfg.MaxGroupsPerQuantum; the
	// built-in policies return at most that many, so only custom
	// policies are cut.
	Decide(v View, cfg Config) []Action
}

// registry holds the pluggable policies by name.
var registry = map[string]func() Policy{}

// Register installs a named policy factory. Registering a taken name
// panics: policies are wired at init time, where a collision is a
// programming error.
func Register(name string, factory func() Policy) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	registry[name] = factory
}

// NewPolicy instantiates a registered policy by name.
func NewPolicy(name string) (Policy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q", name)
	}
	return f(), nil
}

func init() {
	Register(Static.String(), func() Policy { return staticPolicy{} })
	Register(FirstTouch.String(), func() Policy { return firstTouchPolicy{} })
	Register(WriteThreshold.String(), func() Policy { return writeThresholdPolicy{} })
	Register(WearLevel.String(), func() Policy { return wearLevelPolicy{} })
}

// staticPolicy never migrates: the paper's plan-time tiering is
// entirely the plan's bindings. It is registered so traces recorded
// under static replay uniformly through the same registry path.
type staticPolicy struct{}

func (staticPolicy) Name() string                 { return Static.String() }
func (staticPolicy) Decide(View, Config) []Action { return nil }

// firstTouchPolicy never migrates: its whole effect is the first-touch
// initial placement the runtime applies when the plan is built.
type firstTouchPolicy struct{}

func (firstTouchPolicy) Name() string                 { return FirstTouch.String() }
func (firstTouchPolicy) Decide(View, Config) []Action { return nil }

// writeThresholdPolicy promotes write-hot PCM groups and, under DRAM
// pressure, demotes the coldest DRAM groups.
type writeThresholdPolicy struct{}

func (writeThresholdPolicy) Name() string { return WriteThreshold.String() }

func (writeThresholdPolicy) Decide(v View, cfg Config) []Action {
	limit := actionLimit(v, cfg)
	// Demotions come first — under pressure, freeing DRAM takes
	// priority over filling it, and the engine truncates the action
	// list from the head.
	var actions []Action
	demoted := 0
	if v.DRAMPages > cfg.DRAMBudgetPages {
		cold := topK{k: limit, order: coldestFirst}
		for _, g := range v.Groups {
			if g.Node == DRAMNode && g.WriteLines <= cfg.ColdWriteLines {
				cold.push(rankKey{signal: g.WriteLines, addr: g.Addr, pages: g.Pages})
			}
		}
		// When the demotions alone reach the limit, demoted may fall
		// short of what the uncut list would demote, but then no
		// promotion survives the cut either.
		excess := int(v.DRAMPages - cfg.DRAMBudgetPages)
		keys := cold.sorted()
		actions = slices.Grow(actions, len(keys))
		for _, g := range keys {
			if demoted >= excess {
				break
			}
			actions = append(actions, Action{Addr: g.addr, From: DRAMNode, To: PCMNode})
			demoted += g.pages
		}
	}
	if len(actions) == limit {
		return actions
	}

	// Hottest first; address breaks ties so the order is total.
	hot := topK{k: limit - len(actions), order: hottestFirst}
	for _, g := range v.Groups {
		if g.Node == PCMNode && g.WriteLines >= cfg.HotWriteLines {
			hot.push(rankKey{signal: g.WriteLines, addr: g.Addr, pages: g.Pages})
		}
	}
	// Promotions respect the budget: a hot set larger than the free
	// DRAM headroom keeps its coolest groups on PCM rather than
	// growing DRAM residency without bound (which would end in frame
	// exhaustion, not just a missed target).
	free := int64(cfg.DRAMBudgetPages) - int64(v.DRAMPages) + int64(demoted)
	keys := hot.sorted()
	actions = slices.Grow(actions, len(keys))
	for _, g := range keys {
		if free < int64(g.pages) {
			break
		}
		actions = append(actions, Action{Addr: g.addr, From: PCMNode, To: DRAMNode})
		free -= int64(g.pages)
	}
	return actions
}

// wearLevelPolicy rotates PCM groups whose most-worn page exceeds
// WearFactor times the mean onto fresh frames of the same node.
type wearLevelPolicy struct{}

func (wearLevelPolicy) Name() string { return WearLevel.String() }

func (wearLevelPolicy) Decide(v View, cfg Config) []Action {
	var sum float64
	n := 0
	for _, g := range v.Groups {
		if g.Node == PCMNode && g.MaxWear > 0 {
			sum += float64(g.MaxWear)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	threshold := cfg.WearFactor * sum / float64(n)
	worn := topK{k: actionLimit(v, cfg), order: hottestFirst}
	for _, g := range v.Groups {
		if g.Node == PCMNode && float64(g.MaxWear) > threshold {
			worn.push(rankKey{signal: uint64(g.MaxWear), addr: g.Addr})
		}
	}
	keys := worn.sorted()
	if len(keys) == 0 {
		return nil
	}
	actions := make([]Action, len(keys))
	for i, g := range keys {
		actions[i] = Action{Addr: g.addr, From: PCMNode, To: PCMNode}
	}
	return actions
}

// actionLimit is how many actions a built-in Decide returns at most:
// cfg.MaxGroupsPerQuantum, the engine's truncation point. A view can
// yield at most one action per group, so an unset bound (a Config
// that skipped WithDefaults) means all of them.
func actionLimit(v View, cfg Config) int {
	if m := cfg.MaxGroupsPerQuantum; m > 0 && m < len(v.Groups) {
		return m
	}
	return len(v.Groups)
}

// rankKey is the compact record the built-in policies rank in place of
// whole GroupStats: the group's ranking signal (write lines or wear),
// its address, and the pages a migration of it moves.
type rankKey struct {
	signal uint64
	addr   uint64
	pages  int
}

// hottestFirst orders by signal descending, coldestFirst ascending;
// both break ties by address, so each is a total order over a view.
func hottestFirst(a, b rankKey) int {
	if c := cmp.Compare(b.signal, a.signal); c != 0 {
		return c
	}
	return cmp.Compare(a.addr, b.addr)
}

func coldestFirst(a, b rankKey) int {
	if c := cmp.Compare(a.signal, b.signal); c != 0 {
		return c
	}
	return cmp.Compare(a.addr, b.addr)
}

// topK keeps the first k of the keys pushed to it under order, without
// ordering the rest: a bounded heap whose root is the last key kept,
// so a candidate that cannot make the cut costs one comparison.
type topK struct {
	k     int
	order func(a, b rankKey) int
	heap  []rankKey
}

// push offers one candidate.
func (t *topK) push(x rankKey) {
	h := t.heap
	if len(h) < t.k {
		if h == nil {
			h = make([]rankKey, 0, t.k)
		}
		h = append(h, x)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if t.order(h[p], h[i]) >= 0 {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		t.heap = h
		return
	}
	if len(h) == 0 || t.order(x, h[0]) >= 0 {
		return
	}
	h[0] = x
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && t.order(h[r], h[c]) > 0 {
			c = r
		}
		if t.order(h[i], h[c]) >= 0 {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sorted returns the kept keys in order.
func (t *topK) sorted() []rankKey {
	slices.SortFunc(t.heap, t.order)
	return t.heap
}

// Stats accumulates the engine's work across a run.
type Stats struct {
	// PagesMigrated counts pages whose frames moved (cross-tier
	// migrations and same-node wear rotations alike).
	PagesMigrated uint64
	// StallCycles is the total remap + TLB-shootdown cost charged to
	// the processes at safepoints.
	StallCycles float64
	// Quanta counts safepoint invocations.
	Quanta uint64
}

// Engine runs one policy over a run's processes. One engine is shared
// by every instance of a multiprogrammed run (the cooperative kernel
// guarantees a single runner), and all of its state dies with the run.
type Engine struct {
	cfg   Config
	pol   Policy
	stats Stats
	tap   Tap
	hook  QuantumHook
	// marks is buildView's per-quantum scratch: one flag per page
	// group, raised for groups overlapping a mapped region.
	marks []bool
}

// QuantumHook observes a summary of each executed quantum: the
// process, the safepoint sequence number, how many actions ran, the
// pages and stall cycles they cost, and the quantum's wall-clock span.
// Unlike a Tap it sees no views and forces no extra counter gathering,
// so it is cheap enough for per-quantum telemetry (latency histograms,
// policy.quantum spans) on uninstrumented-model terms: the emulated
// costs are unchanged.
type QuantumHook func(proc string, quantum uint64, actions, pagesMoved int, stallCycles float64, start time.Time, wall time.Duration)

// SetQuantumHook attaches a summary observer. Install before the run
// starts; the field is not synchronized against OnSafepoint.
func (e *Engine) SetQuantumHook(h QuantumHook) { e.hook = h }

// NewEngine resolves the configuration's policy from the registry.
// Static needs no engine; callers should not construct one for it.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if cfg.Kind == Static {
		return nil, fmt.Errorf("policy: the static policy takes no engine")
	}
	pol, err := NewPolicy(cfg.Kind.String())
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, pol: pol}, nil
}

// NewEngineWith wraps a custom (Register-style) policy in an engine;
// the config's kind is advisory for custom policies.
func NewEngineWith(pol Policy, cfg Config) *Engine {
	return &Engine{cfg: cfg.WithDefaults(), pol: pol}
}

// NewObserver wraps the configuration's policy — including static and
// first-touch, which NewEngine refuses because they need no
// per-safepoint work — in an engine whose only job is observation:
// with a Tap attached it streams every quantum's view, and since the
// non-migrating policies decide nothing it never moves a page. The
// trace recorder uses it so engine-less policies still produce
// per-quantum trace records.
func NewObserver(cfg Config) (*Engine, error) {
	cfg = cfg.WithDefaults()
	pol, err := NewPolicy(cfg.Kind.String())
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, pol: pol}, nil
}

// SetTap attaches a per-quantum observer. A tapped engine gathers
// window and wear counters for every view regardless of what its own
// policy needs, so recorded traces carry the signals any replayed
// policy might read. Devices not configured to track a counter report
// zeros, exactly as a policy would see live.
func (e *Engine) SetTap(t Tap) { e.tap = t }

// Stats returns the accumulated migration statistics.
func (e *Engine) Stats() Stats { return e.stats }

// OnSafepoint runs one policy quantum for a process: build the view
// from the page map, the page tables, and the device counters; let
// the policy decide; execute the migrations through MovePages; and
// open a fresh observation window.
func (e *Engine) OnSafepoint(p *kernel.Process, pm *heap.PageMap) {
	if e == nil || pm == nil {
		return
	}
	var t0 time.Time
	if e.hook != nil {
		t0 = time.Now()
	}
	e.stats.Quanta++
	m := p.Kernel().Machine()
	v := e.buildView(p, pm, m)

	actions := e.pol.Decide(v, e.cfg)
	if len(actions) > e.cfg.MaxGroupsPerQuantum {
		actions = actions[:e.cfg.MaxGroupsPerQuantum]
	}
	var exec []Exec
	if e.tap != nil && len(actions) > 0 {
		exec = make([]Exec, 0, len(actions))
	}
	var movedQ int
	var stallQ float64
	for _, a := range actions {
		moved, stall, err := p.MovePages(a.Addr, heap.PageGroupBytes, a.From, a.To)
		e.stats.PagesMigrated += uint64(moved)
		e.stats.StallCycles += stall
		movedQ += moved
		stallQ += stall
		if e.tap != nil {
			exec = append(exec, Exec{Moved: moved, Stall: stall})
		}
		// Retarget the map only for a complete batch: a group cut
		// short by frame exhaustion keeps its old tier so its
		// stranded pages stay eligible for the retry below.
		if moved > 0 && a.From != a.To && err == nil {
			pm.SetRange(a.Addr, a.Addr+heap.PageGroupBytes, a.To)
		}
		if err != nil {
			// Destination node full: no later action of this quantum
			// can do better, stop and let the next quantum retry.
			break
		}
	}
	if e.tap != nil {
		e.tap.OnQuantum(p.Name, v, actions, exec)
	}
	if e.hook != nil {
		e.hook(p.Name, v.Quantum, len(actions), movedQ, stallQ, t0, time.Since(t0))
	}
}

// buildView assembles the quantum's snapshot in address order. Only
// groups overlapping a mapped region are scanned, so the per-quantum
// cost follows the process's footprint, not the heap's virtual span.
func (e *Engine) buildView(p *kernel.Process, pm *heap.PageMap, m *machine.Machine) View {
	v := View{Quantum: e.stats.Quanta}
	nodeBytes := m.Config().NodeBytes
	if len(e.marks) != pm.Groups() {
		e.marks = make([]bool, pm.Groups())
	} else {
		for i := range e.marks {
			e.marks[i] = false
		}
	}
	p.AS.MappedRanges(pm.Lo(), pm.Hi(), func(start, end uint64) {
		first := (start - pm.Lo()) / heap.PageGroupBytes
		last := (end - 1 - pm.Lo()) / heap.PageGroupBytes
		for i := first; i <= last; i++ {
			e.marks[i] = true
		}
	})
	for i := 0; i < pm.Groups(); i++ {
		if !e.marks[i] {
			continue
		}
		base := pm.GroupAddr(i)
		g := GroupStat{Addr: base, Node: pm.Node(base)}
		for pg := 0; pg < heap.PageGroupPages; pg++ {
			pa, ok := p.AS.Lookup(base + uint64(pg)*kernel.PageSize)
			if !ok {
				continue
			}
			g.Pages++
			node := int(pa / nodeBytes)
			if node >= m.Nodes() {
				node = m.Nodes() - 1
			}
			if node == DRAMNode {
				v.DRAMPages++
			} else {
				v.PCMPages++
			}
			dev := m.Node(node)
			off := pa % nodeBytes
			if e.cfg.NeedsWindow() || e.tap != nil {
				// Destructive read: the window restarts per page as
				// its owning process observes it, so one instance's
				// quantum never clears another instance's signal.
				w, rd := dev.TakeWindow(off)
				g.WriteLines += uint64(w)
				g.ReadLines += uint64(rd)
			}
			if e.cfg.NeedsWear() || e.tap != nil {
				if w := dev.PageWear(off); w > g.MaxWear {
					g.MaxWear = w
				}
			}
			// A resident page of an undecided (first-touch) group
			// tells the map which tier the OS picked.
			if g.Node == heap.TierUnknown {
				g.Node = node
			}
		}
		if g.Pages > 0 {
			if pm.Node(base) == heap.TierUnknown {
				// Teach the map the tier the OS picked, so residency
				// reads and custom policies see it too.
				pm.SetRange(base, base+heap.PageGroupBytes, g.Node)
			}
			v.Groups = append(v.Groups, g)
		}
	}
	return v
}
