package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSelfTimes(t *testing.T) {
	span := func(id, parent string, start, dur int64) obs.SpanRecord {
		return obs.SpanRecord{Trace: "t", Span: id, Parent: parent, Name: id, Start: start, DurNs: dur}
	}
	recs := []obs.SpanRecord{
		span("root", "", 0, 100),
		// Two overlapping children cover [10, 50): 40, not 30+20.
		span("a", "root", 10, 30),
		span("b", "root", 30, 20),
		// A child running past its parent's end counts up to the end.
		span("c", "root", 90, 30),
		// Grandchildren only reduce their own parent.
		span("a1", "a", 12, 5),
		span("leaf", "c", 95, 1),
	}
	got := selfTimes(recs)
	for id, want := range map[string]time.Duration{
		"root": 100 - 40 - 10,
		"a":    30 - 5,
		"b":    20,
		"c":    30 - 1,
		"a1":   5,
		"leaf": 1,
	} {
		if got[id] != want {
			t.Errorf("self(%s) = %v, want %v", id, got[id], want)
		}
	}
	// Self times and durations group by span name.
	durs := spanSeconds(recs, nil)
	if len(durs["root"]) != 1 || durs["root"][0] != 100e-9 {
		t.Errorf("spanSeconds(root) = %v", durs["root"])
	}
	selfs := spanSeconds(recs, got)
	if selfs["root"][0] != 50e-9 {
		t.Errorf("self spanSeconds(root) = %v", selfs["root"])
	}
}

func TestSpanSinkRoundTrip(t *testing.T) {
	var sink spanSink
	sink.on.Store(true)
	tr := obs.NewTracer("bench", obs.WithSpanSink(&sink))
	root := tr.StartSpan(obs.SpanContext{}, "op")
	child := tr.StartSpan(root.Context(), "call")
	child.End()
	root.End()
	recs, err := sink.records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Name != "call" || recs[1].Name != "op" {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Trace != recs[1].Trace || recs[0].Parent != recs[1].Span {
		t.Errorf("child not linked to its op: %+v", recs)
	}
}

func TestSpanSinkDropsWhileOff(t *testing.T) {
	var sink spanSink
	tr := obs.NewTracer("bench", obs.WithSpanSink(&sink))
	tr.StartSpan(obs.SpanContext{}, "dropped").End()
	sink.on.Store(true)
	tr.StartSpan(obs.SpanContext{}, "kept").End()
	recs, err := sink.records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "kept" {
		t.Errorf("records = %+v, want only the span recorded while on", recs)
	}
}
