package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, at the root of
// the repository, in step with what a run prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the benchmark prints %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	for _, m := range profileMetrics() {
		found := false
		for _, s := range perLayer {
			found = found || s.Name == m
		}
		if !found {
			t.Errorf("profile metric %s is not a per-layer metric", m)
		}
	}
}

func TestOnlyKeepsListedMetrics(t *testing.T) {
	specs := []metricSpec{{"a_s", "s"}, {"b", "count"}}
	got := only(specs, map[string]metric{"a_s": {1.5, "s"}, "extra": {2, "s"}})
	if len(got) != 2 || got["a_s"] != (metric{1.5, "s"}) || got["b"] != (metric{0, "count"}) {
		t.Errorf("only = %v", got)
	}
}
