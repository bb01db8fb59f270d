package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	hybridmem "repro"
)

// cell is one experiment of an emulate op.
type cell struct {
	app       string
	collector hybridmem.Collector
	instances int
	policy    hybridmem.Policy
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/x%d/%s", c.app, c.collector, c.instances, c.policy)
}

// dacapoCells are quick-scale DaCapo cells from the 24-cell sweep
// (lusearch, xalan, pmd under PCM-Only, KG-N and KG-W, static
// placement) plus one two-instance cell. Their working sets mostly
// fit the modelled caches. The order balances the two RunBatch
// workers: about 2.5 s of emulation each before the short cells.
var dacapoCells = []cell{
	{"lusearch", hybridmem.KGN, 1, hybridmem.Static},
	{"xalan", hybridmem.KGW, 1, hybridmem.Static},
	{"pmd", hybridmem.KGN, 2, hybridmem.Static},
	{"xalan", hybridmem.PCMOnly, 1, hybridmem.Static},
	{"pmd", hybridmem.PCMOnly, 1, hybridmem.Static},
}

// graphCells are GraphChi PageRank, Connected Components and ALS on
// the default dataset under KG-N with the write-threshold migrating
// policy, plus one wear-level cell. They stream past the LLC and run
// the live policy engine with device window and wear tracking.
var graphCells = []cell{
	{"PR", hybridmem.KGN, 1, hybridmem.WriteThreshold},
	{"CC", hybridmem.KGN, 1, hybridmem.WriteThreshold},
	{"ALS", hybridmem.KGN, 1, hybridmem.WriteThreshold},
	{"PR", hybridmem.KGN, 1, hybridmem.WearLevel},
}

// emulate runs a fixed grid of cells on a fresh Platform per op, so
// nothing is memoized between ops, and checks every cell's Result.
type emulate struct {
	name   string
	seed   uint64
	cells  []cell
	counts map[string]float64 // per-op counts read from the Results
}

func newDacapo(seed uint64) workload {
	return &emulate{name: "emulate-dacapo", seed: seed, cells: dacapoCells}
}

func newGraph(seed uint64) workload {
	return &emulate{name: "emulate-graph", seed: seed, cells: graphCells}
}

func (w *emulate) clients() int { return 1 }
func (w *emulate) close()       {}

// windowFailures is always 0: every emulate op is checked on its own.
func (w *emulate) windowFailures() int { return 0 }

// setup is one cold op: what a one-shot hybridemu or paperfigs
// invocation pays before its first result.
func (w *emulate) setup(ctx context.Context, e *env) error {
	return w.op(ctx, e)
}

func (w *emulate) op(ctx context.Context, e *env) error {
	ctx, sp := e.span(ctx, "op")
	defer sp.End()
	opts := []hybridmem.Option{hybridmem.WithScale(hybridmem.Quick), hybridmem.WithSeed(w.seed)}
	if tel := e.telemetry(); tel != nil {
		opts = append(opts, hybridmem.WithTelemetry(tel))
	}
	results, err := runCells(ctx, e, hybridmem.New(opts...), w.cells)
	if err != nil {
		return err
	}
	return w.check(e, results)
}

// runCells runs cells on p, a fresh Platform, and returns their
// Results in cell order. Cells that share one placement policy go
// through RunBatch. A grid that mixes policies runs the way RunSweep
// runs a policy dimension: one flat pool of GOMAXPROCS workers over
// per-policy platforms derived from p, which share its result cache.
func runCells(ctx context.Context, e *env, p *hybridmem.Platform, cells []cell) ([]hybridmem.Result, error) {
	specs := make([]hybridmem.RunSpec, len(cells))
	plats := make([]*hybridmem.Platform, len(cells))
	byPolicy := map[hybridmem.Policy]*hybridmem.Platform{}
	for i, c := range cells {
		specs[i] = hybridmem.RunSpec{AppName: c.app, Collector: c.collector, Instances: c.instances}
		if byPolicy[c.policy] == nil {
			byPolicy[c.policy] = p.With(hybridmem.WithPolicy(c.policy))
		}
		plats[i] = byPolicy[c.policy]
	}
	ctx, sp := e.span(ctx, "facade.run_batch")
	defer sp.End()
	if len(byPolicy) == 1 {
		return plats[0].RunBatch(ctx, specs...)
	}
	results := make([]hybridmem.Result, len(cells))
	err := forEach(len(cells), func(i int) (err error) {
		results[i], err = plats[i].Run(ctx, specs[i])
		return err
	})
	return results, err
}

// check compares every cell's encoded Result with the oracle (default
// seed) or the first op's (other seeds), and reads the op's counts.
func (w *emulate) check(e *env, results []hybridmem.Result) error {
	counts := map[string]float64{}
	var accesses, lines float64
	for i, c := range w.cells {
		r := results[i]
		b, err := hybridmem.EncodeResult(r)
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		sum := sha256.Sum256(b)
		if err := e.check(w.name+"/"+c.String(), hex.EncodeToString(sum[:])); err != nil {
			return err
		}
		if r.Estimated || r.Seconds <= 0 || len(r.RuntimeStats) != c.instances {
			return fmt.Errorf("%s: implausible result (estimated %v, %v s, %d runtimes)",
				c, r.Estimated, r.Seconds, len(r.RuntimeStats))
		}
		if c.policy == hybridmem.Static && r.PagesMigrated != 0 {
			return fmt.Errorf("%s: static placement migrated %d pages", c, r.PagesMigrated)
		}
		for _, st := range r.RuntimeStats {
			accesses += float64(st.MutatorReads + st.MutatorWrites)
			counts["jvm.alloc_objects"] += float64(st.AllocObjects)
			counts["jvm.gcs"] += float64(st.MinorGCs + st.FullGCs)
		}
		lines += float64(r.DRAMReadLines + r.DRAMWriteLines + r.PCMReadLines + r.PCMWriteLines)
		counts["kernel.zeroed_pages"] += float64(r.ZeroedPages)
		counts["machine.qpi_lines"] += float64(r.QPI.ReadLines + r.QPI.WriteLines)
		counts["policy.pages_migrated"] += float64(r.PagesMigrated)
	}
	counts["jvm.mutator_accesses"] = accesses
	counts["memdev.lines"] = lines
	counts["memdev.lines_per_access"] = lines / accesses
	w.counts = counts
	return nil
}

func (w *emulate) layers(r *spanReport, plain, traced loopResult, m map[string]metric) {
	for k, v := range w.counts {
		m[k] = metric{v, "count"}
	}
	m["memdev.lines_per_access"] = metric{w.counts["memdev.lines_per_access"], "ratio"}
	acc := w.counts["jvm.mutator_accesses"]
	m["facade.accesses_per_s"] = metric{acc * plain.opsPerSec(), "1/s"}
	if acc > 0 {
		m["cache.ns_per_access"] = metric{m["cache.self_s"].Value / acc * 1e9, "ns"}
	}
	m["core.plan_s"] = metric{r.median("plan"), "s"}
	m["core.execute_s"] = metric{r.median("execute"), "s"}
	// A run's time outside plan and execute: building the machine (a
	// fresh cache hierarchy and devices) and reading the Result back.
	m["core.emulate_self_s"] = metric{r.selfMedian("emulate"), "s"}
	m["policy.quantum_s"] = metric{r.median("policy.quantum"), "s"}
	m["policy.quanta"] = metric{perOp(float64(r.count("policy.quantum")), len(traced.lat)), "count"}
}
