package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	hybridmem "repro"
	"repro/internal/obs"
	"repro/internal/trace/library"
)

// TestInflightFiguresAgree holds an admission slot the way the drift
// validator does and checks that every in-flight figure the node
// publishes counts it — /healthz, /v1/healthz, /v1/status and the
// hybridserved_inflight_runs gauge — and that all of them drop back
// to 0 once it is released.
func TestInflightFiguresAgree(t *testing.T) {
	s, err := New(hybridmem.New(hybridmem.WithScale(hybridmem.Quick)), Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	check := func(want int) {
		t.Helper()
		for _, path := range []string{"/healthz", "/v1/healthz", "/v1/status"} {
			var doc struct {
				Inflight int `json:"inflight"`
			}
			getJSON(t, ts.URL+path, &doc)
			if doc.Inflight != want {
				t.Errorf("%s inflight = %d, want %d", path, doc.Inflight, want)
			}
		}
		if got := metricValue(t, ts.URL, "hybridserved_inflight_runs"); got != uint64(want) {
			t.Errorf("hybridserved_inflight_runs = %d, want %d", got, want)
		}
	}

	release, err := s.admit(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	check(1)
	release()
	check(0)
}

// TestRequestLifecycle sends every request kind that opens a
// lifecycle with a traceparent header and checks that its span
// continues that trace and names the app and spec key, that its
// flight-recorder record carries the same trace id with the kind and
// outcome of its path, and that a failing live trace or autotune marks
// its span with the error.
func TestRequestLifecycle(t *testing.T) {
	lib, err := library.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := hybridmem.New(hybridmem.WithScale(hybridmem.Quick), hybridmem.WithSeed(7))
	// One slot and no queue: holding the slot makes the failing cases
	// fail admission deterministically.
	s, err := New(p, Config{MaxInFlight: 1, MaxQueued: -1, TraceLibrary: lib})
	if err != nil {
		t.Fatal(err)
	}
	const autotune = `{"run":{"app":"pmd","collector":"KG-N"},"grid":{"hotWriteLines":[2100,3000]}`
	cases := []struct {
		name, method, target, body string
		hold                       bool // hold the only admission slot
		span, kind, outcome        string
		status                     int
	}{
		{"run", "POST", "/v1/run?answer=exact", `{"app":"pmd","collector":"KG-N"}`,
			false, "run", "run", OutcomeComputed, http.StatusOK},
		{"sweep cell", "POST", "/v1/sweep?answer=exact", `{"apps":["pmd"],"collectors":["KG-N"]}`,
			false, "run", "run", OutcomeCoalesced, http.StatusOK},
		{"live trace", "GET", "/v1/trace?app=pmd&collector=KG-N&policy=write-threshold", "",
			false, "trace", "trace", OutcomeComputed, http.StatusOK},
		{"library trace", "GET", "/v1/trace?app=pmd&collector=KG-N&policy=write-threshold", "",
			false, "trace", "trace", OutcomeLibrary, http.StatusOK},
		{"library autotune", "POST", "/v1/autotune", autotune + `}`,
			false, "autotune", "autotune", OutcomeLibrary, http.StatusOK},
		{"live autotune", "POST", "/v1/autotune", autotune + `,"source":"live"}`,
			false, "autotune", "autotune", OutcomeComputed, http.StatusOK},
		{"failing live trace", "GET", "/v1/trace?app=pmd&collector=KG-N&source=live", "",
			true, "trace", "trace", "", http.StatusTooManyRequests},
		{"failing live autotune", "POST", "/v1/autotune", autotune + `,"source":"live"}`,
			true, "autotune", "autotune", "", http.StatusTooManyRequests},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parent := obs.SpanContext{TraceID: fmt.Sprintf("%032x", 0xa0+i), SpanID: "00000000000000b1"}
			req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
			req.Header.Set("traceparent", parent.Traceparent())
			if c.hold {
				release, err := s.admit(context.Background(), nil)
				if err != nil {
					t.Fatal(err)
				}
				defer release()
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != c.status {
				t.Fatalf("status = %d, want %d: %s", rec.Code, c.status, rec.Body.Bytes())
			}

			var spans []obs.SpanRecord
			for _, sp := range s.tel.Tracer.Recent(0) {
				if sp.Trace == parent.TraceID && sp.Name == c.span {
					spans = append(spans, sp)
				}
			}
			runs := s.runs.List(func(ri RunInfo) bool { return ri.Trace == parent.TraceID && ri.Kind == c.kind })
			if len(spans) != 1 || len(runs) != 1 {
				t.Fatalf("trace %s holds %d %q spans and %d %q records, want 1 each",
					parent.TraceID, len(spans), c.span, len(runs), c.kind)
			}
			sp, run := spans[0], runs[0]
			if sp.Attrs["app"] != "pmd" || sp.Attrs["key"] == "" || sp.Attrs["key"] != run.Key {
				t.Errorf("span attrs = %v, want app pmd and the record's key %q", sp.Attrs, run.Key)
			}
			if run.Outcome != c.outcome {
				t.Errorf("record outcome = %q, want %q", run.Outcome, c.outcome)
			}
			if failed := c.status != http.StatusOK; failed != (run.State == RunFailed) || failed != (sp.Attrs["error"] != "") {
				t.Errorf("failed = %v, but record state = %q and span error = %q", failed, run.State, sp.Attrs["error"])
			}
		})
	}
}
