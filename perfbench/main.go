// Command perfbench is the repository's end-to-end benchmark. One run
// sets a workload up several times, drives it in a closed loop for a
// fixed time, checks every operation's output, and prints the
// end-to-end metrics as the last line of standard output:
//
//	perfbench --workload emulate-dacapo --seed 1 --seconds 20 --trace 0
//
// Its time metrics are scaled to a reference host speed, which a
// kernel timed between ops measures (calibrate.go).
//
// With --trace 1 the same run instead prints the per-layer metrics:
// the second half of the timed window runs with spans recorded around
// every call the benchmark makes (joined by the program's own
// telemetry spans) and a CPU profile of the process, and the first
// half, untraced, gives the tracing overhead. Spans and the profile
// are written under .bench_build/perfbench when the run ends.
//
// Workloads, metrics and the layer each metric explains are described
// in README.md. bench.sh builds and runs this command from the root
// of a checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// processStart approximates the process's start for setup_s.
var processStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up on a shared host does not move it.
const setupReps = 3

// outDir holds what a run leaves behind (spans, profiles, the
// serve-replay temp dirs), relative to the checkout root.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark traffic shape. The harness calls setup
// setupReps times (each builds the workload's state from nothing and
// checks it), then op from clients() goroutines until the timed window
// ends, then windowFailures.
type workload interface {
	setup(ctx context.Context, e *env) error
	// op runs and checks one operation.
	op(ctx context.Context, e *env) error
	clients() int
	// windowFailures counts ops of the window just ended that only
	// the program's own counters show to have gone wrong.
	windowFailures() int
	// layers adds the workload's span- and count-based per-layer
	// metrics, given the untraced and traced halves of a traced run.
	layers(spans *spanReport, plain, traced loopResult, m map[string]metric)
	close()
}

// prober is a workload that times the program's entry points directly
// after its traced window.
type prober interface {
	probe(ctx context.Context, e *env) error
}

// workloads are the benchmark's workloads by name.
var workloads = map[string]func(seed uint64) workload{
	"emulate-dacapo": newDacapo,
	"emulate-graph":  newGraph,
	"serve-replay":   newServeReplay,
}

// env is what a workload's set-up and ops share with the harness.
type env struct {
	cfg    config
	stderr io.Writer
	// oracle holds the digests the default seed must reproduce; nil on
	// other seeds, whose outputs must instead repeat refs, the digests
	// first seen in the run.
	oracle map[string]string
	refMu  sync.Mutex
	refs   map[string]string
	// tel is the telemetry bundle while tracing is on, else nil. Ops
	// read it on every call, so the harness can switch tracing on
	// between the untraced and traced halves of a traced run.
	mu   sync.Mutex
	tel  *obs.Telemetry
	sink *spanSink
	// tracer exists for the whole run: serve-replay builds its server
	// on it once, at set-up.
	tracer *obs.Tracer
}

func newEnv(cfg config, stderr io.Writer) *env {
	e := &env{cfg: cfg, stderr: stderr, refs: map[string]string{}, sink: &spanSink{}}
	e.tracer = obs.NewTracer("bench", obs.WithSpanSink(e.sink), obs.WithRingSize(1))
	if cfg.seed == defaultSeed {
		e.oracle = oracleDigests()
	}
	return e
}

// telemetry returns the current telemetry bundle, nil when untraced.
func (e *env) telemetry() *obs.Telemetry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tel
}

func (e *env) setTracing(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tel = nil
	e.sink.on.Store(on)
	if on {
		e.tel = &obs.Telemetry{Node: "bench", Tracer: e.tracer}
	}
}

// span starts a benchmark span under ctx's span, or a fresh trace; it
// is a no-op while tracing is off.
func (e *env) span(ctx context.Context, name string) (context.Context, *obs.Span) {
	tel := e.telemetry()
	if tel == nil {
		return ctx, nil
	}
	return tel.Tracer.Start(ctx, name)
}

// check compares an output's digest against the oracle (default seed)
// or, on other seeds, against the first digest the run saw under the
// same name.
func (e *env) check(name, digest string) error {
	if e.oracle != nil {
		want, ok := e.oracle[name]
		switch {
		case !ok:
			return fmt.Errorf("%s: no oracle digest for this output", name)
		case digest != want:
			return fmt.Errorf("%s: output digest %.12s, oracle has %.12s", name, digest, want)
		}
		return nil
	}
	e.refMu.Lock()
	defer e.refMu.Unlock()
	if want, ok := e.refs[name]; ok && digest != want {
		return fmt.Errorf("%s: output digest %.12s differs from the first run's %.12s", name, digest, want)
	}
	e.refs[name] = digest
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: emulate-dacapo, emulate-graph or serve-replay")
	seed := fs.Uint64("seed", 1, "workload seed, passed to hybridmem.WithSeed")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	record := fs.String("record-oracle", "", "run one op of every workload on the default seed and write their output digests to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordOracle(*record, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traced == 1}
	res, err := runWorkload(cfg, mk(cfg.seed), stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload sets w up, runs its timed window and assembles the
// result. An error means the run could not be measured at all; a
// failed op only makes the result incorrect.
func runWorkload(cfg config, w workload, stdout, stderr io.Writer) (result, error) {
	defer w.close()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	e := newEnv(cfg, stderr)
	meta, _ := json.Marshal(hostMeta(cfg))
	fmt.Fprintf(stdout, "# host %s\n", meta)

	// A traced run traces its set-up too, for the set-up spans
	// (recordings, exact runs, store and library opens).
	e.setTracing(cfg.trace)
	ctx := context.Background()
	// An untraced run calibrates before each set-up and after the
	// last; the first set-up also counts the process's start-up.
	calibrated := !cfg.trace
	var setups, kernel []float64
	startup := time.Since(processStart).Seconds()
	for i := range setupReps {
		if calibrated {
			kernel = append(kernel, calibrate())
		}
		start := time.Now()
		if err := w.setup(ctx, e); err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setups[0] += startup
	if calibrated {
		kernel = append(kernel, calibrate())
	}
	window := func(d time.Duration) loopResult {
		lr := timedLoop(ctx, e, w, d, calibrated)
		if bad := w.windowFailures(); bad > 0 {
			fmt.Fprintf(stderr, "perfbench: the program's counters show %d failed ops\n", bad)
			lr.attempted += bad
			lr.failed += bad
		}
		return lr
	}

	if !cfg.trace {
		e.setTracing(false)
		lr := window(cfg.seconds)
		kernel = append(kernel, lr.kernel...)
		scale := refScale(kernel)
		fmt.Fprintf(stdout, "# detail %s\n", lr.detail(setups))
		fmt.Fprintf(stdout, "# calibration %s\n", calDetail(kernel, scale, lr))
		m := map[string]metric{
			"setup_s":         {median(setups) * scale, "s"},
			"ops_per_s":       {lr.opsPerSec() / scale, "1/s"},
			"op_p50_s":        {median(lr.lat) * scale, "s"},
			"alloc_mb_per_op": {perOp(lr.allocMB, len(lr.lat)), "MB"},
			"rss_mb":          {lr.rssMB, "MB"},
		}
		return result{Correct: lr.failed == 0 && len(lr.lat) > 0, Attempted: lr.attempted,
			Failed: lr.failed, Metrics: only(endToEnd, m)}, nil
	}

	// Traced run: an untraced first half is the baseline the tracing
	// overhead is measured against; the second half runs with spans on
	// and under the CPU profiler.
	e.setTracing(false)
	plain := window(cfg.seconds / 2)
	before, err := e.sink.records()
	if err != nil {
		return result{}, err
	}
	e.setTracing(true)
	prof, err := startProfile(cfg)
	if err != nil {
		return result{}, err
	}
	traced := window(cfg.seconds - cfg.seconds/2)
	samples, err := prof.stop()
	if err != nil {
		return result{}, err
	}
	if p, ok := w.(prober); ok {
		if err := p.probe(ctx, e); err != nil {
			return result{}, fmt.Errorf("probe: %w", err)
		}
	}
	e.setTracing(false)
	all, err := e.sink.records()
	if err != nil {
		return result{}, err
	}
	spanFile := fmt.Sprintf("%s/spans-%s-seed%d.ndjson", outDir, cfg.workload, cfg.seed)
	if err := e.sink.writeFile(spanFile); err != nil {
		return result{}, err
	}
	m := map[string]metric{}
	layerCPU := attribute(samples)
	for _, name := range profileMetrics() {
		m[name] = metric{perOp(layerCPU[name], len(traced.lat)), "s"}
	}
	w.layers(newSpanReport(all, len(before)), plain, traced, m)
	m["tracing.untraced_ops_per_s"] = metric{plain.opsPerSec(), "1/s"}
	m["tracing.traced_ops_per_s"] = metric{traced.opsPerSec(), "1/s"}
	if t := traced.opsPerSec(); t > 0 {
		m["tracing.overhead"] = metric{plain.opsPerSec()/t - 1, "ratio"}
	}
	fmt.Fprintf(stdout, "# detail %s\n", traced.detail(setups))
	fmt.Fprintf(stdout, "# spans %s (%d spans), profile %s (%d samples)\n", spanFile, len(all), prof.path, len(samples))
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	return result{Correct: failed == 0 && len(traced.lat) > 0, Attempted: attempted, Failed: failed,
		Metrics: only(perLayer, m)}, nil
}

// forEach calls f for 0..n-1 from GOMAXPROCS goroutines and waits
// for them; it returns every error f returned.
func forEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func perOp(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// loopResult is one timed window of a closed loop.
type loopResult struct {
	lat       []float64 // seconds per successful op
	attempted int
	failed    int
	wall      float64   // seconds the clients ran, calibrations left out
	allocMB   float64   // Go heap MB allocated while the clients ran
	rssMB     float64   // median resident set while the clients ran
	kernel    []float64 // the window's calibration kernel times; none in a traced run
}

// timedLoop runs w's ops from w.clients() goroutines, each issuing its
// next op only when the previous one returns, and starts no op once d
// has passed; ops in flight at the deadline complete and count, so the
// window always covers whole ops. A calibrated window runs in epochs:
// it times the calibration kernel, runs the clients until the epoch
// ends, waits for their ops, and times the kernel again after the last
// epoch.
func timedLoop(ctx context.Context, e *env, w workload, d time.Duration, calibrated bool) loopResult {
	// Start every window from a collected heap returned to the OS, so
	// garbage and memory left by set-up or an earlier window are not
	// charged to it.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	var lr loopResult
	var mu sync.Mutex
	var ms runtime.MemStats
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		end := deadline
		if calibrated {
			lr.kernel = append(lr.kernel, calibrate())
			if t := time.Now().Add(epoch); t.Before(end) {
				end = t
			}
		}
		var wg sync.WaitGroup
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		start := time.Now()
		for range w.clients() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					t0 := time.Now()
					err := w.op(ctx, e)
					lat := time.Since(t0).Seconds()
					mu.Lock()
					lr.attempted++
					if err != nil {
						lr.failed++
						fmt.Fprintf(e.stderr, "perfbench: op failed: %v\n", err)
					} else {
						lr.lat = append(lr.lat, lat)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		lr.wall += time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		lr.allocMB += float64(ms.TotalAlloc-alloc0) / 1e6
	}
	if calibrated {
		lr.kernel = append(lr.kernel, calibrate())
	}
	lr.rssMB = rss.medianMB()
	return lr
}

func (lr loopResult) opsPerSec() float64 {
	if lr.wall <= 0 {
		return 0
	}
	return float64(len(lr.lat)) / lr.wall
}

// detail summarises a window for the log: sample counts, every op's
// latency, and the tail where the percentile rule allows one.
func (lr loopResult) detail(setups []float64) string {
	d := map[string]any{
		"ops": len(lr.lat), "attempted": lr.attempted, "failed": lr.failed,
		"failure_ratio": failureRatio(lr.attempted, lr.failed),
		"wall_s":        lr.wall, "setup_reps_s": setups,
	}
	if p99, ok := percentile(lr.lat, 0.99); ok {
		d["op_p99_s"] = p99
	}
	if len(lr.lat) <= 20 {
		d["op_s"] = lr.lat
	}
	b, _ := json.Marshal(d)
	return string(b)
}
