package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// HTTP surface of the flight recorder (registry.go): the run listing,
// the per-run detail document, and the live progress event stream.

// handleRuns serves GET /v1/runs: the flight recorder's live set plus
// its ring of recent runs, newest first, filtered by ?app=, ?kind=,
// ?state=, ?key=, ?trace= and paged with ?limit=/?offset= — the same
// shape as /v1/results, with total counting every match.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var fs filters[RunInfo]
	fs.equal(q, "app", func(info RunInfo) string { return info.App })
	fs.equal(q, "kind", func(info RunInfo) string { return info.Kind })
	fs.equal(q, "state", func(info RunInfo) string { return string(info.State) })
	fs.equal(q, "key", func(info RunInfo) string { return info.Key })
	fs.equal(q, "trace", func(info RunInfo) string { return info.Trace })
	limit, offset, err := window(q)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	runs := s.runs.List(fs.match)
	total := len(runs)
	runs = cut(runs, limit, offset)
	if runs == nil {
		runs = []RunInfo{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Count  int       `json:"count"`
		Total  int       `json:"total"`
		Offset int       `json:"offset"`
		Runs   []RunInfo `json:"runs"`
	}{Count: len(runs), Total: total, Offset: offset, Runs: runs})
}

// handleRunDetail serves GET /v1/runs/{id}: one run's full lifecycle
// record — state, outcome, per-phase timings, cumulative progress
// counters, and the trace ID that deep-links its span tree via
// GET /v1/spans?trace=<trace>.
func (s *Server) handleRunDetail(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, events, ok := s.runs.Get(id)
	if !ok {
		fail(w, http.StatusNotFound, fmt.Errorf("run %q not found (the recent-runs ring is bounded)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Run    RunInfo    `json:"run"`
		Events []RunEvent `json:"events"`
	}{Run: info, Events: events})
}

// handleRunEvents serves GET /v1/runs/{id}/events: the run's lifecycle
// events as ndjson — the retained history first, then (for a live run)
// each new event as it happens, flushed per line like /v1/sweep. The
// stream ends when the run reaches a terminal state or the client
// disconnects, so `curl` on an active run is a live progress tail.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	history, live, cancel, ok := s.runs.Watch(id)
	if !ok {
		fail(w, http.StatusNotFound, fmt.Errorf("run %q not found (the recent-runs ring is bounded)", id))
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev RunEvent) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, ev := range history {
		emit(ev)
	}
	if live == nil {
		return
	}
	for {
		select {
		case ev, open := <-live:
			if !open {
				return
			}
			emit(ev)
		case <-r.Context().Done():
			return
		}
	}
}
