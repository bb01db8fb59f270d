// Command paperfigs regenerates every table and figure of the paper's
// evaluation (Tables I–III, Figures 3–8) plus the ablation studies,
// printing the same rows and series the paper reports, ready to set
// beside the paper's own numbers.
//
// Usage:
//
//	paperfigs [-scale quick|std|full] [-seed N] [-only fig7,tableII,...]
//	          [-policy static|first-touch|write-threshold|wear-level]
//
// Scales: quick (CI-sized inputs), std (full DaCapo profiles, 1M-edge
// graphs, 4x large datasets, 5-app DaCapo subset for the
// multiprogrammed figures), full (the paper's sizes; slow).
//
// -policy re-runs every grid under a dynamic placement policy. Two
// steps go beyond the paper's evaluation and only run when named in
// -only: "policies" (a placement-policy comparison table over the
// GraphChi workloads) and "autotune" (the trace-driven knob search:
// record one traced run, price a knob grid offline by replay, then
// validate every grid point with a live emulator run and check the
// predicted stall ranking and the recommended point's estimate
// tolerance).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	hybridmem "repro"
	"repro/internal/experiments"
)

func main() {
	scale := flag.String("scale", "std", "input scale: quick, std, or full")
	seed := flag.Uint64("seed", 1, "workload seed")
	parallel := flag.Int("parallel", 0, "concurrent platform runs (0 = one per core)")
	only := flag.String("only", "", "comma-separated subset (tableI,tableII,tableIII,fig3,fig4,fig5,fig6,fig7,fig8,ablations,policies,autotune)")
	policyName := flag.String("policy", "static", "placement policy the grids run under")
	storeDir := flag.String("store", "", "durable result store directory: reruns and -only subsets replay finished runs from disk instead of recomputing")
	flag.Parse()

	sc, err := hybridmem.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(2)
	}
	pol, err := hybridmem.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	// Ctrl-C cancels the in-flight experiment batches.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	r := experiments.NewRunner(experiments.Config{Scale: sc, Seed: *seed, Parallelism: *parallel, StoreDir: *storeDir, Policy: pol})
	fmt.Printf("# Paper evaluation regeneration (scale=%s, seed=%d, policy=%s)\n\n", sc, *seed, pol)
	start := time.Now()
	step := func(name string, f func() (string, error)) {
		if !sel(name) {
			return
		}
		t0 := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s took %s]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	step("tableI", func() (string, error) { return experiments.RenderTableI(), nil })
	step("tableII", func() (string, error) {
		res, err := r.TableII(ctx)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	})
	step("fig3", func() (string, error) {
		rows, err := r.Fig3(ctx)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig3(rows), nil
	})
	step("fig4", func() (string, error) {
		res, err := r.Fig4(ctx)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig4(res), nil
	})
	step("fig5", func() (string, error) {
		res, err := r.Fig5(ctx)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig5(res), nil
	})
	step("fig6", func() (string, error) {
		rows, rec, err := r.Fig6(ctx)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig6(rows, rec), nil
	})
	step("fig7", func() (string, error) {
		rows, err := r.Fig7(ctx)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig7(rows), nil
	})
	step("fig8", func() (string, error) {
		rows, err := r.Fig8(ctx)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig8(rows), nil
	})
	step("tableIII", func() (string, error) {
		res, err := r.TableIII(ctx)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	})
	step("ablations", func() (string, error) {
		var b strings.Builder
		l3, err := r.AblationL3(ctx, []int{4, 20})
		if err != nil {
			return "", err
		}
		b.WriteString(l3.Render())
		b.WriteByte('\n')
		obs, err := r.AblationObserver(ctx, []int{1, 2, 4}, "pmd")
		if err != nil {
			return "", err
		}
		b.WriteString(obs.Render())
		b.WriteByte('\n')
		nur, err := r.AblationNursery(ctx, []int{4, 32})
		if err != nil {
			return "", err
		}
		b.WriteString(nur.Render())
		b.WriteByte('\n')
		mon, err := r.AblationMonitorSocket(ctx, "pmd")
		if err != nil {
			return "", err
		}
		b.WriteString(mon.Render())
		b.WriteByte('\n')
		fl, err := r.AblationFreeLists(ctx, "pmd")
		if err != nil {
			return "", err
		}
		b.WriteString(fl.Render())
		return b.String(), nil
	})
	// The policy comparison goes beyond the paper's evaluation, so it
	// only runs when explicitly selected.
	if want["policies"] {
		step("policies", func() (string, error) {
			res, err := r.AblationPolicies(ctx)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		})
	}
	// The trace-driven autotune workflow (record once, price a knob
	// grid offline, validate every point live) also goes beyond the
	// paper and only runs when named in -only.
	if want["autotune"] {
		step("autotune", func() (string, error) {
			res, err := r.Autotune(ctx)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		})
	}
	cs := r.CacheStats()
	fmt.Printf("# total: %s (%d computed, %d replayed from memory, %d from store)\n",
		time.Since(start).Round(time.Second), computed(cs), cs.Hits, cs.DiskHits)
}

// computed counts genuine platform computes: without a store every
// memory miss computes; with one, only the disk misses do.
func computed(cs hybridmem.CacheStats) uint64 {
	if cs.DiskHits+cs.DiskMisses > 0 {
		return cs.DiskMisses
	}
	return cs.Misses
}
