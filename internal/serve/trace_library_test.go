package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	hybridmem "repro"
	"repro/internal/trace"
	"repro/internal/trace/library"
)

// newLibraryServer builds a Quick-scale server backed by a fresh trace
// library in a temp directory.
func newLibraryServer(t *testing.T) (*Server, *library.Library, *httptest.Server) {
	t.Helper()
	lib, err := library.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := hybridmem.New(hybridmem.WithScale(hybridmem.Quick), hybridmem.WithSeed(7))
	s, err := New(p, Config{MaxInFlight: 2, TraceLibrary: lib})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, lib, ts
}

// cancelOnWrite is a ResponseRecorder that drops the request context
// after a fixed number of body writes — the handler-side shape of a
// client that disconnects mid-stream.
type cancelOnWrite struct {
	*httptest.ResponseRecorder
	writes int
	after  int
	cancel context.CancelFunc
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.writes++
	if c.writes == c.after {
		c.cancel()
	}
	return c.ResponseRecorder.Write(p)
}

// TestTraceDisconnectCancelsRunAndFreesSlot is the regression test for
// the streaming bug where a client disconnect left the traced run
// emulating into a dead connection with its admission slot held. The
// context is cancelled right after the first quantum record hits the
// wire; the run must stop with the client's cancellation, the flight
// recorder must record the failure, and — with MaxInFlight=1 — the
// next trace request must get the slot back.
func TestTraceDisconnectCancelsRunAndFreesSlot(t *testing.T) {
	p := hybridmem.New(hybridmem.WithScale(hybridmem.Quick))
	s, err := New(p, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	const url = "/v1/trace?app=lusearch&collector=KG-N&policy=write-threshold"

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Write 1 is the trace header, write 2 the first quantum record:
	// cancelling there is deterministically mid-stream.
	rec := &cancelOnWrite{ResponseRecorder: httptest.NewRecorder(), after: 2, cancel: cancel}
	s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil).WithContext(ctx))

	runs := s.runs.List(func(ri RunInfo) bool { return ri.Kind == "trace" })
	if len(runs) != 1 {
		t.Fatalf("flight recorder has %d trace runs, want 1", len(runs))
	}
	if runs[0].State != RunFailed {
		t.Errorf("disconnected run state = %q, want %q", runs[0].State, RunFailed)
	}
	if !strings.Contains(runs[0].Error, context.Canceled.Error()) {
		t.Errorf("disconnected run error = %q, want the client's cancellation", runs[0].Error)
	}
	if got, _ := s.adm.Depth(); got != 0 {
		t.Errorf("inflight = %d after disconnect, want 0", got)
	}

	// The stream stopped early: a torn or short prefix, not a full
	// trace with its footer.
	if bytes.Contains(rec.Body.Bytes(), []byte(`"footer"`)) {
		t.Error("disconnected stream carries a footer: the run was not cancelled")
	}

	// Slot released: with MaxInFlight=1 a second traced run can only
	// succeed if the first one's slot came back.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest("GET", url, nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("trace after disconnect = %d, want 200 (slot leaked?)", rec2.Code)
	}
	if _, quanta, err := trace.DecodeAll(bytes.NewReader(rec2.Body.Bytes())); err != nil || len(quanta) == 0 {
		t.Errorf("trace after disconnect: %d quanta, err %v", len(quanta), err)
	}
}

func getTrace(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestTraceLibraryServesResidentTraces drives the library fast path on
// GET /v1/trace: a miss records live and warms the library, a hit is
// served byte-identically without emulating, and neighborhood keying
// shares one recording across policies.
func TestTraceLibraryServesResidentTraces(t *testing.T) {
	s, lib, ts := newLibraryServer(t)
	url := ts.URL + "/v1/trace?app=PR&collector=KG-N&policy=write-threshold"

	// Empty library: ?source=library insists and must 404.
	resp, _ := getTrace(t, url+"&source=library")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("source=library on empty library = %d, want 404", resp.StatusCode)
	}
	// A bad source is rejected before any work.
	resp, _ = getTrace(t, url+"&source=nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("source=nope = %d, want 400", resp.StatusCode)
	}

	// First request misses, records live, and ingests the recording.
	resp, live := getTrace(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Trace-Source"); src != "live" {
		t.Errorf("first request X-Trace-Source = %q, want live", src)
	}
	if lib.Len() != 1 {
		t.Fatalf("library has %d traces after a live run, want 1", lib.Len())
	}

	// Second request is answered from the library, byte for byte.
	resp, resident := getTrace(t, url)
	if src := resp.Header.Get("X-Trace-Source"); src != "library" {
		t.Errorf("second request X-Trace-Source = %q, want library", src)
	}
	if !bytes.Equal(resident, live) {
		t.Error("library trace differs from the live recording that seeded it")
	}

	// A different policy in the same neighborhood reuses the entry:
	// replay gives it the policy's decisions, not a fresh emulation.
	resp, other := getTrace(t, ts.URL+"/v1/trace?app=PR&collector=KG-N&policy=wear-level")
	if src := resp.Header.Get("X-Trace-Source"); src != "library" {
		t.Errorf("policy sibling X-Trace-Source = %q, want library", src)
	}
	if !bytes.Equal(other, live) {
		t.Error("policy sibling served different bytes than the resident trace")
	}

	// ?source=live forces a fresh recording past the resident entry.
	resp, _ = getTrace(t, url+"&source=live")
	if src := resp.Header.Get("X-Trace-Source"); src != "live" {
		t.Errorf("source=live X-Trace-Source = %q, want live", src)
	}

	// The flight recorder distinguishes the library hits.
	hits := s.runs.List(func(ri RunInfo) bool { return ri.Outcome == OutcomeLibrary })
	if len(hits) != 2 {
		t.Errorf("flight recorder has %d library-outcome runs, want 2", len(hits))
	}
}

// TestAutotuneFromLibrary prices a knob grid against a resident trace:
// the first autotune records live and warms the library, the second is
// served from it with an identical report and zero platform runs.
func TestAutotuneFromLibrary(t *testing.T) {
	s, lib, ts := newLibraryServer(t)
	req := AutotuneRequest{
		Run: RunRequest{App: "PR", Collector: "KG-N"},
		Grid: AutotuneGrid{
			Policy:        "write-threshold",
			HotWriteLines: []uint64{2100, 3000},
		},
	}

	req.Source = "library"
	resp := postJSON(t, ts.URL+"/v1/autotune", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("source=library on empty library = %d, want 404", resp.StatusCode)
	}
	req.Source = "nope"
	resp = postJSON(t, ts.URL+"/v1/autotune", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("source=nope = %d, want 400", resp.StatusCode)
	}

	req.Source = ""
	resp = postJSON(t, ts.URL+"/v1/autotune", req)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("autotune = %d: %s", resp.StatusCode, body)
	}
	if src := resp.Header.Get("X-Trace-Source"); src != "live" {
		t.Errorf("first autotune X-Trace-Source = %q, want live", src)
	}
	var first hybridmem.AutotuneReport
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lib.Len() != 1 {
		t.Fatalf("library has %d traces after a live autotune, want 1", lib.Len())
	}

	resp = postJSON(t, ts.URL+"/v1/autotune", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second autotune = %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Trace-Source"); src != "library" {
		t.Errorf("second autotune X-Trace-Source = %q, want library", src)
	}
	var second hybridmem.AutotuneReport
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !reflect.DeepEqual(first, second) {
		t.Error("library-priced report differs from the live-priced report over the same trace")
	}

	// Library autotunes price from the estimate tier's decoded-trace
	// cache: one load per library generation however many grids ask,
	// and never an estimate hit or miss.
	resp = postJSON(t, ts.URL+"/v1/autotune", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("third autotune = %d", resp.StatusCode)
	}
	if st := s.p.EstimateStats(); st != (hybridmem.EstimateStats{Loads: 1}) {
		t.Errorf("estimate stats after two library autotunes = %+v, want one load and no hits or misses", st)
	}
	if hits, misses := s.libHits.Load(), s.libMisses.Load(); hits != 2 || misses != 1 {
		t.Errorf("library hits/misses = %d/%d, want 2/1", hits, misses)
	}

	// The library hits never touched the platform: exactly one run
	// (the first, live autotune) executed.
	libRuns := s.runs.List(func(ri RunInfo) bool {
		return ri.Kind == "autotune" && ri.Outcome == OutcomeLibrary
	})
	if len(libRuns) != 2 {
		t.Errorf("flight recorder has %d library autotunes, want 2", len(libRuns))
	}
	computed := s.runs.List(func(ri RunInfo) bool {
		return ri.Kind == "autotune" && ri.Outcome == OutcomeComputed
	})
	if len(computed) != 1 {
		t.Errorf("flight recorder has %d computed autotunes, want 1", len(computed))
	}
}

// TestAutotuneFromCorruptLibraryTrace: a resident trace whose body no
// longer decodes is still a library hit, and the grid fails with 500
// instead of falling through to a live recording.
func TestAutotuneFromCorruptLibraryTrace(t *testing.T) {
	s, lib, ts := newLibraryServer(t)
	req := AutotuneRequest{
		Run:    RunRequest{App: "PR", Collector: "KG-N"},
		Grid:   AutotuneGrid{Policy: "write-threshold", HotWriteLines: []uint64{2100, 3000}},
		Source: "live",
	}
	resp := postJSON(t, ts.URL+"/v1/autotune", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lib.Len() != 1 {
		t.Fatalf("live autotune = %d with %d library traces, want 200 and 1", resp.StatusCode, lib.Len())
	}
	// Mangle the first quantum record; the header and footer the
	// library validates on read stay intact.
	files, err := filepath.Glob(filepath.Join(lib.Dir(), "*.ndjson"))
	if err != nil || len(files) != 1 {
		t.Fatalf("library files = %v, %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitN(data, []byte("\n"), 3)
	lines[1] = []byte(`{"q":1,"proc":`)
	if err := os.WriteFile(files[0], bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	req.Source = ""
	resp = postJSON(t, ts.URL+"/v1/autotune", req)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "corrupt") {
		t.Fatalf("autotune over a corrupt resident trace = %d: %s, want 500 naming the corruption", resp.StatusCode, body)
	}
	if hits, misses := s.libHits.Load(), s.libMisses.Load(); hits != 1 || misses != 0 {
		t.Errorf("library hits/misses = %d/%d, want 1/0", hits, misses)
	}
	failed := s.runs.List(func(ri RunInfo) bool { return ri.Kind == "autotune" && ri.State == RunFailed })
	if len(failed) != 1 {
		t.Errorf("flight recorder has %d failed autotunes, want 1", len(failed))
	}
}
