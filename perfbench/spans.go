package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// spanSink keeps every finished span in memory, as the ndjson lines
// the tracer writes, until the run ends. The benchmark's own spans and
// the program's (emulate, plan, execute, policy.quantum, run, sweep,
// ...) share one tracer and therefore one sink. While off it drops
// what it is handed.
type spanSink struct {
	on  atomic.Bool
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *spanSink) Write(p []byte) (int, error) {
	if !s.on.Load() {
		return len(p), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// records decodes the spans recorded so far.
func (s *spanSink) records() ([]obs.SpanRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []obs.SpanRecord
	sc := bufio.NewScanner(bytes.NewReader(s.buf.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("decoding span: %w", err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// writeFile writes the recorded spans out as ndjson.
func (s *spanSink) writeFile(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.WriteFile(path, s.buf.Bytes(), 0o644)
}

// selfTimes returns each span's self time, keyed by span id: its
// duration minus the part of its interval that its children cover.
// Children are clipped to the parent's interval and overlapping
// children (concurrent RunBatch cells, parallel sweep cells) count
// once.
func selfTimes(recs []obs.SpanRecord) map[string]time.Duration {
	type iv struct{ lo, hi int64 }
	kids := map[string][]iv{}
	for _, r := range recs {
		if r.Parent != "" {
			kids[r.Parent] = append(kids[r.Parent], iv{r.Start, r.Start + r.DurNs})
		}
	}
	out := make(map[string]time.Duration, len(recs))
	for _, r := range recs {
		lo, hi := r.Start, r.Start+r.DurNs
		cs := kids[r.Span]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		covered, reach := int64(0), lo
		for _, c := range cs {
			a, b := max(c.lo, reach), min(c.hi, hi)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		out[r.Span] = time.Duration(r.DurNs - covered)
	}
	return out
}

// spanSeconds groups span durations (or self times, when self is
// non-nil) by span name, in seconds.
func spanSeconds(recs []obs.SpanRecord, self map[string]time.Duration) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		d := time.Duration(r.DurNs)
		if self != nil {
			d = self[r.Span]
		}
		out[r.Name] = append(out[r.Name], d.Seconds())
	}
	return out
}

// spanReport holds a traced run's spans, split into those recorded
// during set-up and those of the traced window.
type spanReport struct {
	setup, window []obs.SpanRecord
	self          map[string]time.Duration // window spans' self times
}

func newSpanReport(all []obs.SpanRecord, setupN int) *spanReport {
	return &spanReport{setup: all[:setupN], window: all[setupN:], self: selfTimes(all[setupN:])}
}

// median is the median duration in seconds of the window's spans
// named name (0 if there are none).
func (r *spanReport) median(name string) float64 { return median(spanSeconds(r.window, nil)[name]) }

// selfMedian is the median self time of the window's spans named name.
func (r *spanReport) selfMedian(name string) float64 {
	return median(spanSeconds(r.window, r.self)[name])
}

// setupMedian is the median duration of the set-up's spans named name.
func (r *spanReport) setupMedian(name string) float64 { return median(spanSeconds(r.setup, nil)[name]) }

// count is how many window spans are named name.
func (r *spanReport) count(name string) int {
	n := 0
	for _, s := range r.window {
		if s.Name == name {
			n++
		}
	}
	return n
}
