package hybridmem

import (
	"context"
	"runtime"

	"repro/internal/fabric/jobs"
)

// Sweep declaratively enumerates an experiment grid — apps ×
// collectors × instance counts × datasets — in a deterministic order
// (the paper's evaluation is exactly such grids: Figs 4–8 and Tables
// II–III sweep the benchmarks across collectors and multiprogramming
// degrees). A zero dimension takes its default: all eight collectors,
// one instance, the default dataset.
type Sweep struct {
	apps       []string
	collectors []Collector
	instances  []int
	datasets   []Dataset
	policies   []Policy
	knobs      []PolicyConfig
	native     bool
}

// NewSweep starts a sweep over the named applications. With no names
// it covers the full 15-benchmark registry.
func NewSweep(apps ...string) *Sweep {
	return &Sweep{apps: apps}
}

// Collectors restricts the sweep to the given collector plans
// (default: all eight configurations in the paper's order).
func (s *Sweep) Collectors(cs ...Collector) *Sweep {
	s.collectors = cs
	return s
}

// Instances sets the multiprogramming degrees to sweep (default: 1).
func (s *Sweep) Instances(ns ...int) *Sweep {
	s.instances = ns
	return s
}

// Datasets sets the input datasets to sweep (default: Default).
func (s *Sweep) Datasets(ds ...Dataset) *Sweep {
	s.datasets = ds
	return s
}

// Native switches the sweep to the C++ implementations on the malloc
// runtime; the collector dimension collapses (native runs have no
// garbage collector).
func (s *Sweep) Native() *Sweep {
	s.native = true
	return s
}

// Policies adds a placement-policy dimension to the sweep. Unlike the
// other dimensions, policy is a platform knob rather than a RunSpec
// field: RunSweep runs the whole Specs() grid once per named policy on
// a derived platform (sharing both cache tiers), and the combined
// result slice is policy-major — Results[p*len(Specs())+i] is
// Specs()[i] under PolicySweep()[p]. An empty dimension (the default)
// runs the grid once under the platform's own configured policy.
func (s *Sweep) Policies(ps ...Policy) *Sweep {
	s.policies = ps
	return s
}

// PolicySweep returns the sweep's placement-policy dimension (nil
// when the platform's configured policy applies).
func (s *Sweep) PolicySweep() []Policy {
	return s.policies
}

// Knobs adds explicit policy knob configurations to the sweep's
// platform dimension — typically tuned points from an Autotune report
// (KnobPoint.Config), validated live against the same spec grid. Like
// Policies, each configuration runs the whole Specs() grid on a
// derived platform (WithPolicyConfig) sharing both cache tiers. Knob
// configurations follow any Policies entries in the combined
// configuration-major result layout; see Configs for the resolved
// order.
func (s *Sweep) Knobs(cfgs ...PolicyConfig) *Sweep {
	s.knobs = cfgs
	return s
}

// Configs resolves the sweep's platform dimension into policy
// configurations, in the order RunSweep executes its passes: the
// Policies entries (each with default knobs) followed by the Knobs
// entries, knobs resolved. nil means a single pass under the
// platform's own configured policy.
func (s *Sweep) Configs() []PolicyConfig {
	if len(s.policies) == 0 && len(s.knobs) == 0 {
		return nil
	}
	cfgs := make([]PolicyConfig, 0, len(s.policies)+len(s.knobs))
	for _, pol := range s.policies {
		cfgs = append(cfgs, PolicyConfig{Kind: pol}.WithDefaults())
	}
	for _, cfg := range s.knobs {
		cfgs = append(cfgs, cfg.WithDefaults())
	}
	return cfgs
}

// Specs expands the grid into RunSpecs, ordered app-major then
// collector, instances, dataset — a fixed order, so Specs()[i] lines
// up with the i-th Result of RunBatch (and of RunSweep without a
// Policies dimension; with one, results repeat policy-major — see
// RunSweep). Empty dimensions
// take their documented defaults (the 15-benchmark registry, all
// eight collectors, 1 instance, the Default dataset); repeated entries
// are preserved in order, so a dimension like Instances(1, 1, 2)
// yields aligned duplicate columns rather than collapsing.
func (s *Sweep) Specs() []RunSpec {
	apps := s.apps
	if len(apps) == 0 {
		apps = Apps()
	}
	collectors := s.collectors
	if s.native {
		collectors = []Collector{0}
	} else if len(collectors) == 0 {
		collectors = Collectors()
	}
	instances := s.instances
	if len(instances) == 0 {
		instances = []int{1}
	}
	datasets := s.datasets
	if len(datasets) == 0 {
		datasets = []Dataset{Default}
	}

	specs := make([]RunSpec, 0, len(apps)*len(collectors)*len(instances)*len(datasets))
	for _, app := range apps {
		for _, c := range collectors {
			for _, n := range instances {
				for _, d := range datasets {
					specs = append(specs, RunSpec{
						AppName:   app,
						Collector: c,
						Instances: n,
						Dataset:   d,
						Native:    s.native,
					})
				}
			}
		}
	}
	return specs
}

// RunSweep executes the sweep through the platform's worker pool and
// returns Results aligned with sweep.Specs(). With a Policies or Knobs
// dimension the grid runs once per policy configuration on a derived
// platform and the results concatenate configuration-major:
// Results[c*len(Specs())+i] is Specs()[i] under Configs()[c].
//
// The whole (configuration x spec) grid runs through one flat worker
// pool rather than a serial pass per configuration, so a narrow spec
// grid under many configurations still keeps every worker busy.
func (p *Platform) RunSweep(ctx context.Context, sweep *Sweep) ([]Result, error) {
	specs := sweep.Specs()
	cfgs := sweep.Configs()
	if len(cfgs) == 0 {
		return p.RunBatch(ctx, specs...)
	}
	platforms := make([]*Platform, len(cfgs))
	for c, cfg := range cfgs {
		platforms[c] = p.With(WithPolicyConfig(cfg))
	}
	results := make([]Result, len(cfgs)*len(specs))
	workers := p.cfg.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err := jobs.Pool(ctx, workers, len(results), func(ctx context.Context, i int) error {
		res, err := platforms[i/len(specs)].Run(ctx, specs[i%len(specs)])
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	return results, err
}
