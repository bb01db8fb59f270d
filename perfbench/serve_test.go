package main

import (
	"errors"
	"testing"
)

func TestParseCounters(t *testing.T) {
	text := `# HELP hybridserved_cache_hits_total Runs served from the in-memory result cache.
# TYPE hybridserved_cache_hits_total counter
hybridserved_cache_hits_total{node="a"} 3
hybridserved_cache_hits_total{node="b"} 4.5
hybridserved_cache_hits_total_other 100
hybridserved_admission_wait_seconds_bucket{node="a",le="+Inf"} 2
hybridserved_admission_wait_seconds_sum{node="a"} 0.25
bare_counter 7
`
	got, err := parseCounters(text, map[string]string{
		"hits": "hybridserved_cache_hits_total",
		"wait": "hybridserved_admission_wait_seconds_sum",
		"bare": "bare_counter",
		"none": "absent_total",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"hits": 7.5, "wait": 0.25, "bare": 7}
	if len(got) != len(want) {
		t.Errorf("parseCounters = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseCounters("bare_counter x\n", map[string]string{"bare": "bare_counter"}); err == nil {
		t.Error("parsed a non-numeric value")
	}
}

func TestQueryApp(t *testing.T) {
	for target, want := range map[string]string{
		"/v1/trace?app=PR&collector=KG-N":  "PR",
		"/v1/trace?collector=KG-N&app=pmd": "pmd",
		"/v1/results":                      "",
	} {
		if got := queryApp(target); got != want {
			t.Errorf("queryApp(%q) = %q, want %q", target, got, want)
		}
	}
}

func TestForEach(t *testing.T) {
	seen := make([]int, 50)
	boom := errors.New("boom")
	err := forEach(len(seen), func(i int) error {
		seen[i]++
		if i == 7 || i == 31 {
			return boom
		}
		return nil
	})
	for i, n := range seen {
		if n != 1 {
			t.Errorf("index %d ran %d times", i, n)
		}
	}
	if !errors.Is(err, boom) {
		t.Errorf("forEach error = %v, want the callbacks' errors", err)
	}
	if err := forEach(0, func(int) error { return boom }); err != nil {
		t.Errorf("forEach over nothing = %v", err)
	}
}
