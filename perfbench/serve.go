package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	hybridmem "repro"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/trace/library"
)

// request is one HTTP request of serve-replay's traffic. When hdr is
// set, the answer must carry that header with the value want: it says
// which tier answered.
type request struct {
	class  string // names the request's span and its latency class
	method string
	target string
	body   string
	hdr    string
	want   string
}

// warmRecordings are the live traces set-up records through GET
// /v1/trace, which files each in the trace library with its measured
// baseline Result.
var warmRecordings = []request{
	{"record", "GET", "/v1/trace?app=PR&collector=KG-N&policy=write-threshold&source=live", "", traceSource, "live"},
	{"record", "GET", "/v1/trace?app=CC&collector=KG-N&policy=write-threshold&source=live", "", traceSource, "live"},
	{"record", "GET", "/v1/trace?app=pmd&collector=KG-N&policy=write-threshold&source=live", "", traceSource, "live"},
}

// warmExact are the exact runs set-up appends to the store. They lie
// outside the sweep's grid, so the sweep is answered by estimates.
var warmExact = []request{
	{"exact", "POST", "/v1/run?answer=exact", `{"app":"pmd","collector":"KG-W"}`, answerSource, "exact"},
	{"exact", "POST", "/v1/run?answer=exact", `{"app":"pmd","collector":"PCM-Only"}`, answerSource, "exact"},
}

// replayMix is one op of the timed loop: a client session of seven
// requests, issued in order. Every request is answered from the trace
// library, the estimate tier, the result cache or the store, so the
// loop runs no emulation. Autotune prices PR's trace, which does not
// change with the seed, so the heaviest request costs the same on
// every seed.
var replayMix = []request{
	{"sweep", "POST", "/v1/sweep?answer=auto",
		`{"apps":["PR","CC","pmd"],"collectors":["KG-N"],"policies":["static","first-touch","write-threshold"]}`, "", ""},
	{"run_estimate", "POST", "/v1/run?answer=auto", `{"app":"CC","collector":"KG-N","policy":"first-touch"}`,
		answerSource, "estimate"},
	{"run_estimate", "POST", "/v1/run?answer=auto", `{"app":"PR","collector":"KG-N","policy":"write-threshold"}`,
		answerSource, "estimate"},
	{"run_exact", "POST", "/v1/run?answer=exact", `{"app":"pmd","collector":"KG-W"}`, answerSource, "exact"},
	{"autotune", "POST", "/v1/autotune",
		`{"run":{"app":"PR","collector":"KG-N"},"grid":{"hotWriteLines":[64,256,1024],"coldWriteLines":[0,16,64]},"source":"library"}`,
		traceSource, "library"},
	{"trace_get", "GET", "/v1/trace?app=CC&collector=KG-N&policy=write-threshold&source=library", "",
		traceSource, "library"},
	{"results", "GET", "/v1/results", "", "", ""},
}

// The headers that name the tier an answer came from.
const (
	answerSource = "X-Answer-Source"
	traceSource  = "X-Trace-Source"
)

// The sizes of replayMix's sweep (three apps under three policies)
// and autotune grid (three hot by three cold thresholds).
const (
	sweepCells         = 9
	autotuneGridPoints = 9
)

// serveReplay is an in-process single-node server with a store and a
// trace library, driven by calling ServeHTTP directly.
type serveReplay struct {
	seed uint64

	// The state of the latest set-up; earlier set-ups are torn down.
	dir    string
	p      *hybridmem.Platform
	lib    *hybridmem.TraceLibrary
	srv    *serve.Server
	traces map[string][]byte // recorded trace bytes by app
	exact  []store.Record    // set-up's exact answers
	// residencyGap sums, over set-up's same-policy estimates, the DRAM
	// pages by which their residency differs from the measured run.
	residencyGap float64
	// marks are the server's counters when the current window began;
	// last is what the previous window added to them.
	marks, last map[string]float64
}

func newServeReplay(seed uint64) workload { return &serveReplay{seed: seed} }

func (w *serveReplay) clients() int { return runtime.GOMAXPROCS(0) }

func (w *serveReplay) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.p != nil {
		if st, err := w.p.Store(); err == nil && st != nil {
			st.Close()
		}
		w.p = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// setup starts a server on an empty store and library in a fresh
// temp dir and fills both only through the server's endpoints: live
// recordings, exact runs, then one pass over the request mix, whose
// answers become the references the loop's answers must repeat.
func (w *serveReplay) setup(ctx context.Context, e *env) error {
	w.close()
	w.exact, w.residencyGap = nil, 0
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	ctx, sp := e.span(ctx, "setup")
	defer sp.End()

	_, lsp := e.span(ctx, "library.open")
	w.lib, err = hybridmem.OpenTraceLibrary(filepath.Join(dir, "library"))
	lsp.End()
	if err != nil {
		return err
	}
	w.p = hybridmem.New(hybridmem.WithScale(hybridmem.Quick), hybridmem.WithSeed(w.seed),
		hybridmem.WithStore(filepath.Join(dir, "store")))
	_, ssp := e.span(ctx, "store.open")
	_, err = w.p.Store()
	ssp.End()
	if err != nil {
		return err
	}
	// A traced run hands the server the benchmark's tracer, so the
	// server's spans join the benchmark's; an untraced one leaves the
	// server its own.
	cfg := serve.Config{
		MaxInFlight:  runtime.GOMAXPROCS(0),
		Node:         "bench",
		Registry:     obs.NewRegistry(),
		Logger:       slog.New(slog.NewTextHandler(e.stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
		TraceLibrary: w.lib,
	}
	if e.cfg.trace {
		cfg.Tracer = e.tracer
	}
	if w.srv, err = serve.New(w.p, cfg); err != nil {
		return err
	}

	// Recordings and exact runs emulate: run them GOMAXPROCS at a time.
	warm := append(append([]request{}, warmRecordings...), warmExact...)
	bodies := make([][]byte, len(warm))
	if err := forEach(len(warm), func(i int) error {
		rec, err := w.do(ctx, e, "setup."+warm[i].class, warm[i])
		if err == nil {
			bodies[i] = rec.Body.Bytes()
		}
		return err
	}); err != nil {
		return err
	}
	w.traces = map[string][]byte{}
	for i, r := range warm {
		name := fmt.Sprintf("serve-replay/setup/%s/%d", r.class, i)
		if err := e.check(name, digest(bodies[i])); err != nil {
			return err
		}
		if r.class == "record" {
			w.traces[queryApp(r.target)] = bodies[i]
			continue
		}
		var rec store.Record
		if err := json.Unmarshal(bodies[i], &rec); err != nil {
			return fmt.Errorf("exact answer: %w", err)
		}
		if rec.Result.Estimated {
			return fmt.Errorf("exact answer for %s is an estimate", rec.Key)
		}
		w.exact = append(w.exact, rec)
	}
	if w.lib.Len() != len(warmRecordings) {
		return fmt.Errorf("trace library holds %d traces after %d recordings", w.lib.Len(), len(warmRecordings))
	}

	// One pass over the mix checks what each answer means; the loop
	// then only checks that answers repeat byte for byte.
	for i := range replayMix {
		rec, err := w.do(ctx, e, "setup.warm", replayMix[i])
		if err != nil {
			return err
		}
		if err := w.checkMeaning(replayMix[i], rec); err != nil {
			return fmt.Errorf("%s %s: %w", replayMix[i].method, replayMix[i].target, err)
		}
		if err := w.checkAnswer(e, i, rec); err != nil {
			return err
		}
	}
	w.marks, err = w.scrape()
	return err
}

// do serves one request through ServeHTTP under a span named class.
func (w *serveReplay) do(ctx context.Context, e *env, class string, r request) (*httptest.ResponseRecorder, error) {
	ctx, sp := e.span(ctx, class)
	defer sp.End()
	req := httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	w.srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("%s %s: status %d: %s", r.method, r.target, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if got := rec.Header().Get(r.hdr); r.hdr != "" && got != r.want {
		return rec, fmt.Errorf("%s %s: %s %q, want %q", r.method, r.target, r.hdr, got, r.want)
	}
	return rec, nil
}

func (w *serveReplay) op(ctx context.Context, e *env) error {
	ctx, sp := e.span(ctx, "op")
	defer sp.End()
	for i, r := range replayMix {
		rec, err := w.do(ctx, e, "serve."+r.class, r)
		if err != nil {
			return err
		}
		if err := w.checkAnswer(e, i, rec); err != nil {
			return err
		}
	}
	return nil
}

// checkAnswer checks that the answer to mix request i repeats the
// reference answer byte for byte. A sweep streams its cells in
// completion order, so its lines are compared as a sorted set.
func (w *serveReplay) checkAnswer(e *env, i int, rec *httptest.ResponseRecorder) error {
	r := replayMix[i]
	body := rec.Body.Bytes()
	if r.class == "sweep" {
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		sort.Strings(lines)
		body = []byte(strings.Join(lines, "\n"))
	}
	return e.check(fmt.Sprintf("serve-replay/%d-%s", i, r.class), digest(body))
}

// checkMeaning checks the reference answer to a mix request: where it
// came from, and for same-policy estimates that they equal the
// measured baseline exactly.
func (w *serveReplay) checkMeaning(r request, rec *httptest.ResponseRecorder) error {
	body := rec.Body.Bytes()
	switch r.class {
	case "sweep":
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(nil, 1<<24)
		n := 0
		for sc.Scan() {
			var item serve.SweepItem
			if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
				return err
			}
			if item.Error != "" || item.Result == nil || !item.Result.Estimated {
				return fmt.Errorf("sweep cell %d not estimated: %s", item.Index, item.Error)
			}
			if err := w.checkSamePolicy(item.Key, item.Policy, *item.Result); err != nil {
				return err
			}
			n++
		}
		if n != sweepCells {
			return fmt.Errorf("sweep streamed %d cells, want %d", n, sweepCells)
		}
		return sc.Err()
	case "run_estimate", "run_exact":
		var out store.Record
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if out.Result.Estimated != (r.want == "estimate") {
			return fmt.Errorf("answer estimated=%v, want %s", out.Result.Estimated, r.want)
		}
		if out.Result.Estimated {
			var req serve.RunRequest
			if err := json.Unmarshal([]byte(r.body), &req); err != nil {
				return err
			}
			return w.checkSamePolicy(out.Key, req.Policy, out.Result)
		}
		return nil
	case "autotune":
		var rep hybridmem.AutotuneReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return err
		}
		if len(rep.Points) != autotuneGridPoints || len(rep.Frontier) == 0 {
			return fmt.Errorf("autotune priced %d points with a frontier of %d, want %d and at least 1",
				len(rep.Points), len(rep.Frontier), autotuneGridPoints)
		}
	case "trace_get":
		if !bytes.Equal(body, w.traces[queryApp(r.target)]) {
			return errors.New("library trace differs from the live recording")
		}
	case "results":
		var out struct{ Total int }
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if out.Total != len(warmExact) {
			return fmt.Errorf("store lists %d records, want %d", out.Total, len(warmExact))
		}
	}
	return nil
}

// checkSamePolicy checks an estimate under the policy its trace was
// recorded with against the recorded run's measured Result, which the
// trace library keeps beside the trace. The estimate tier answers such
// a request from a replay that matches the recording, so the answer
// must be exact: every field equal, with confidence 1. The one
// exception is the residency histogram, which the tier shifts by the
// replay's residency delta even when the replay matches; the pages it
// is off by are added to residencyGap and reported, not failed.
func (w *serveReplay) checkSamePolicy(key, policy string, res hybridmem.Result) error {
	if policy != hybridmem.WriteThreshold.String() {
		return nil
	}
	if res.Estimate == nil || !res.Estimate.MatchesRecorded || res.Estimate.Confidence != 1 {
		return fmt.Errorf("same-policy estimate of %s did not replay the recording exactly: %+v", key, res.Estimate)
	}
	tr, err := w.lib.Get(key)
	if err != nil {
		return err
	}
	var base struct{ Result hybridmem.Result }
	if err := json.Unmarshal(tr.Base(), &base); err != nil {
		return fmt.Errorf("baseline of %s: %w", key, err)
	}
	d := int64(res.DRAMResidentPages) - int64(base.Result.DRAMResidentPages)
	w.residencyGap += float64(max(d, -d))
	res.Estimated, res.Estimate = false, nil
	res.DRAMResidentPages, res.PCMResidentPages = base.Result.DRAMResidentPages, base.Result.PCMResidentPages
	got, err := hybridmem.EncodeResult(res)
	if err != nil {
		return err
	}
	want, err := hybridmem.EncodeResult(base.Result)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("same-policy estimate of %s differs from its measured baseline", key)
	}
	return nil
}

// windowCounters are the server metrics a window reads, by the
// per-layer name they are reported under.
var windowCounters = map[string]string{
	"estimate.hits":   "hybridserved_estimate_hits_total",
	"estimate.misses": "hybridserved_estimate_misses_total",
	"estimate.loads":  "hybridserved_estimate_loads_total",
	"jobs.hits":       "hybridserved_cache_hits_total",
	"jobs.misses":     "hybridserved_cache_misses_total",
	"serve.rejected":  "hybridserved_rejected_total",
	// The sum of the admission-wait histogram, in seconds.
	"serve.admission_wait_s": "hybridserved_admission_wait_seconds_sum",
}

// windowFailures reads the server's counters since the previous
// window. Every cache miss is an emulation and every estimate miss a
// fall-through the loop must not take, and every rejection a refused
// request: each counts as a failed op.
func (w *serveReplay) windowFailures() int {
	now, err := w.scrape()
	if err != nil {
		return 1
	}
	bad := 0
	for _, k := range []string{"jobs.misses", "estimate.misses", "serve.rejected"} {
		bad += int(now[k] - w.marks[k])
	}
	w.last, w.marks = delta(now, w.marks), now
	return bad
}

// scrape reads the server's counters through GET /metrics.
func (w *serveReplay) scrape() (map[string]float64, error) {
	rec := httptest.NewRecorder()
	w.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	return parseCounters(rec.Body.String(), windowCounters)
}

// parseCounters reads a Prometheus text exposition and returns, for
// each name in series, the sum of its series' values over all label
// sets.
func parseCounters(text string, series map[string]string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		end, sp := strings.IndexAny(line, "{ "), strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || end < 0 || sp < 0 {
			continue
		}
		for k, name := range series {
			if line[:end] == name {
				v, err := strconv.ParseFloat(line[sp+1:], 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", name, err)
				}
				out[k] += v
			}
		}
	}
	return out, nil
}

func delta(now, before map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range now {
		out[k] = v - before[k]
	}
	return out
}

// queryApp returns a request target's app query parameter.
func queryApp(target string) string {
	_, q, _ := strings.Cut(target, "?")
	for _, kv := range strings.Split(q, "&") {
		if v, ok := strings.CutPrefix(kv, "app="); ok {
			return v
		}
	}
	return ""
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// probeReps is how often a traced run repeats each probed call.
const probeReps = 10

// probe times, as spans, the entry points beneath the server that the
// loop and set-up reach: the library reads, decodes and replays the
// estimate tier and autotune perform per request, the estimate answer
// itself, the autotune grid, and the store and library writes,
// re-opens, lookups and listings. It runs on copies in scratch
// directories, so the server's own state is untouched.
func (w *serveReplay) probe(ctx context.Context, e *env) error {
	est := w.p.With(hybridmem.WithTraceLibrary(w.lib))
	pols := []hybridmem.Policy{hybridmem.Static, hybridmem.FirstTouch, hybridmem.WriteThreshold}
	recorded := w.p.With(hybridmem.WithPolicy(hybridmem.WriteThreshold))
	var grid struct{ Grid hybridmem.KnobGrid }
	if err := json.Unmarshal([]byte(replayMix[4].body), &grid); err != nil {
		return err
	}
	grid.Grid.Policy = hybridmem.WriteThreshold
	timed := func(name string, f func() error) error {
		_, sp := e.span(ctx, name)
		defer sp.End()
		return f()
	}
	for rep := range probeReps {
		sdir := filepath.Join(w.dir, "probe", fmt.Sprintf("store-%d", rep))
		ldir := filepath.Join(w.dir, "probe", fmt.Sprintf("library-%d", rep))
		st, err := store.Open(sdir)
		if err != nil {
			return err
		}
		for _, rec := range w.exact {
			if err := timed("store.append", func() error { return st.Put(rec.Key, rec.Spec, rec.Result) }); err != nil {
				return err
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
		if err := timed("store.open", func() (err error) { st, err = store.Open(sdir); return err }); err != nil {
			return err
		}
		for _, rec := range w.exact {
			var got store.Record
			timed("store.get", func() error { got, _ = st.Get(rec.Key); return nil })
			if got.Sum != rec.Sum {
				return fmt.Errorf("store probe: %s read back with sum %q", rec.Key, got.Sum)
			}
		}
		var n int
		timed("store.list", func() error { n = len(st.List(func(store.Record) bool { return true })); return nil })
		if err := st.Close(); err != nil {
			return err
		}
		if n != len(w.exact) {
			return fmt.Errorf("store probe: listed %d records, want %d", n, len(w.exact))
		}

		lib, err := library.Open(ldir)
		if err != nil {
			return err
		}
		var keys []string
		for _, app := range []string{"PR", "CC", "pmd"} {
			key := recorded.SpecKey(hybridmem.RunSpec{AppName: app, Collector: hybridmem.KGN, Instances: 1})
			keys = append(keys, key)
			tr, err := w.lib.Get(key)
			if err != nil {
				return err
			}
			if err := timed("library.put", func() error { _, err := lib.PutWithBase(tr.Bytes(), tr.Base()); return err }); err != nil {
				return err
			}
		}
		if err := timed("library.open", func() (err error) { lib, err = library.Open(ldir); return err }); err != nil {
			return err
		}
		for i, key := range keys {
			var tr *library.Trace
			if err := timed("library.get", func() (err error) { tr, err = lib.Get(key); return err }); err != nil {
				return err
			}
			var h trace.Header
			var quanta []trace.Quantum
			if err := timed("trace.decode", func() (err error) {
				h, quanta, err = trace.DecodeAll(bytes.NewReader(tr.Bytes()))
				return err
			}); err != nil {
				return err
			}
			for _, pol := range pols {
				impl, err := policy.NewPolicy(pol.String())
				if err != nil {
					return err
				}
				cfg := hybridmem.PolicyConfig{Kind: pol}.WithDefaults()
				if err := timed("trace.replay", func() error { _, err := trace.ReplayDecoded(h, quanta, impl, cfg); return err }); err != nil {
					return err
				}
				spec := hybridmem.RunSpec{AppName: []string{"PR", "CC", "pmd"}[i], Collector: hybridmem.KGN, Instances: 1}
				ok := false
				timed("estimate.answer", func() error { _, ok = est.With(hybridmem.WithPolicy(pol)).Estimate(spec); return nil })
				if !ok {
					return fmt.Errorf("estimate probe: no estimate for %s under %s", spec.AppName, pol)
				}
			}
			if i == 0 { // replayMix autotunes PR
				if err := timed("autotune.grid", func() error {
					_, err := hybridmem.Autotune(ctx, bytes.NewReader(tr.Bytes()), grid.Grid)
					return err
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// serveSpans are the per-layer span medians serve-replay reports: the
// request classes around ServeHTTP and the probed entry points.
var serveSpans = []string{
	"serve.sweep", "serve.run_estimate", "serve.run_exact", "serve.autotune", "serve.trace_get", "serve.results",
	"trace.replay", "trace.decode", "estimate.answer", "autotune.grid",
	"store.open", "store.append", "store.get", "store.list",
	"library.open", "library.put", "library.get",
}

func (w *serveReplay) layers(r *spanReport, plain, traced loopResult, m map[string]metric) {
	for _, name := range serveSpans {
		m[name+"_s"] = metric{r.median(name), "s"}
	}
	m["setup.record_s"] = metric{r.setupMedian("setup.record"), "s"}
	m["setup.exact_s"] = metric{r.setupMedian("setup.exact"), "s"}
	m["estimate.residency_gap_pages"] = metric{w.residencyGap, "count"}
	n := len(traced.lat)
	for k, v := range w.last {
		m[k] = metric{perOp(v, n), "count"}
	}
	m["serve.admission_wait_s"] = metric{perOp(w.last["serve.admission_wait_s"], n), "s"}
	// The tail of single requests, all classes together.
	var reqs []float64
	for _, s := range r.window {
		if strings.HasPrefix(s.Name, "serve.") {
			reqs = append(reqs, float64(s.DurNs)/1e9)
		}
	}
	if p99, ok := percentile(reqs, 0.99); ok {
		m["serve.op_p99_s"] = metric{p99, "s"}
	}
}
