package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pb is a minimal protobuf encoder for building canned profiles.
type pb []byte

func (p pb) varint(x uint64) pb {
	for x >= 0x80 {
		p = append(p, byte(x)|0x80)
		x >>= 7
	}
	return append(p, byte(x))
}

func (p pb) uint(num int, v uint64) pb { return p.varint(uint64(num) << 3).varint(v) }

func (p pb) bytes(num int, b []byte) pb {
	return append(p.varint(uint64(num)<<3|2).varint(uint64(len(b))), b...)
}

// cannedProfile encodes a CPU profile whose samples each carry one
// stack (leaf first) and a CPU time, the way runtime/pprof lays them
// out: one location per frame, packed location ids and values.
func cannedProfile(t *testing.T, stacks [][]string, cpuNs []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var msg pb
	msg = msg.bytes(1, pb(nil).uint(1, 1).uint(2, 2))
	msg = msg.bytes(1, pb(nil).uint(1, 3).uint(2, 4))
	funcID := map[string]uint64{}
	for i, st := range stacks {
		var locs pb
		for _, f := range st {
			id, ok := funcID[f]
			if !ok {
				id = uint64(len(funcID) + 1)
				funcID[f] = id
				msg = msg.bytes(5, pb(nil).uint(1, id).uint(2, strIdx(f)))
				msg = msg.bytes(4, pb(nil).uint(1, id).bytes(4, pb(nil).uint(1, id)))
			}
			locs = locs.varint(id)
		}
		vals := pb(nil).varint(1).varint(uint64(cpuNs[i]))
		msg = msg.bytes(2, pb(nil).bytes(1, locs).bytes(2, vals))
	}
	for _, s := range strs {
		msg = msg.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(msg)
	zw.Close()
	return gz.Bytes()
}

func TestAttributionOnCannedProfile(t *testing.T) {
	cases := []struct {
		layer string
		stack []string // leaf first
	}{
		// Leaf frames decide the layer.
		{"cache.self_s", []string{"repro/internal/cache.(*Cache).Access", "repro/internal/machine.(*Machine).Load", "main.main"}},
		{"cache.self_s", []string{"repro/internal/cache.(*Cache).Access", "repro/internal/machine.(*Machine).Store"}},
		// LRU reorder copies are runtime.memmove, not cache.
		{"runtime.memmove_s", []string{"runtime.memmove", "repro/internal/cache.(*Cache).Access"}},
		{"runtime.memclr_s", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/kernel.newAddressSpace"}},
		{"runtime.malloc_s", []string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/objmodel.(*Table).Alloc"}},
		// Collector frames win over the leaf, and assists count too.
		{"runtime.gc_s", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime.gc_s", []string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc"}},
		{"runtime.map_s", []string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2", "repro/internal/trace.replayLoop"}},
		{"runtime.map_s", []string{"runtime.memhash64", "repro/internal/trace.replayLoop"}},
		// Assembly and compiler-generated frames belong to the runtime,
		// and map growth counts as map work, not as allocation.
		{"runtime.map_s", []string{"aeshashbody", "runtime.mapaccess2", "repro/internal/trace.replayLoop"}},
		{"runtime.map_s", []string{"type:.eq.repro/internal/trace.groupKey", "internal/runtime/maps.(*Map).getWithKeySmall", "repro/internal/trace.replayLoop"}},
		{"runtime.map_s", []string{"runtime.nextFreeFast", "runtime.mallocgc", "internal/runtime/maps.(*table).grow", "repro/internal/trace.replayLoop"}},
		// A runtime frame above the program's first frame does not count.
		{"runtime.malloc_s", []string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/trace.decode", "runtime.mapaccess2"}},
		{"json.self_s", []string{"encoding/json.(*encodeState).marshal", "repro/internal/serve.(*Server).handleRun", "main.serveOp"}},
		// Generic instantiations keep their package.
		{"policy.self_s", []string{"repro/internal/policy.decide[go.shape.int]", "repro/internal/policy.(*Engine).Quantum"}},
		// The benchmark's own checks, seen through the facade.
		{"bench.self_s", []string{"encoding/json.Marshal", "repro.EncodeResult", "main.checkCells"}},
		{"bench.self_s", []string{"crypto/sha256.block", "main.digest"}},
		// Standard-library leaves and unnamed packages are other.
		{"other.self_s", []string{"sort.partition_func", "repro/internal/autotune.frontier"}},
		{"other.self_s", []string{"sync.(*Mutex).Lock", "repro/internal/fabric/jobs.Pool"}},
		{"other.self_s", []string{"runtime.futex", "runtime.notesleep"}},
		{"other.self_s", nil},
	}
	stacks := make([][]string, len(cases))
	ns := make([]int64, len(cases))
	want := map[string]float64{}
	for i, c := range cases {
		stacks[i] = c.stack
		ns[i] = int64(i+1) * 1_000_000
		want[c.layer] += float64(ns[i]) / 1e9
	}
	samples, err := parseCPUProfile(cannedProfile(t, stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(cases) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(cases))
	}
	for i, s := range samples {
		if s.cpuNs != ns[i] || len(s.stack) != len(stacks[i]) {
			t.Fatalf("sample %d = %+v, want stack %v with %d ns", i, s, stacks[i], ns[i])
		}
		if got := layerOf(s.stack); got != cases[i].layer {
			t.Errorf("layerOf(%v) = %s, want %s", s.stack, got, cases[i].layer)
		}
	}
	got := attribute(samples)
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("attributed to %d layers, want %d: %v", len(got), len(want), got)
	}
	known := map[string]bool{}
	for _, m := range profileMetrics() {
		known[m] = true
	}
	for k := range want {
		if !known[k] {
			t.Errorf("layer %s missing from profileMetrics", k)
		}
	}
}

func TestParseRejectsNonProfiles(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("parsed a non-gzip input")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(pb(nil).bytes(1, pb(nil).uint(1, 1).uint(2, 2)).bytes(6, nil).bytes(6, []byte("samples")).bytes(6, []byte("count")))
	zw.Close()
	if _, err := parseCPUProfile(gz.Bytes()); err == nil {
		t.Error("parsed a profile without a cpu sample type")
	}
}

func TestFuncPkg(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/cache.(*Cache).Access":                 "repro/internal/cache",
		"repro/internal/fabric/jobs.(*Group[go.shape.int]).Do": "repro/internal/fabric/jobs",
		"repro.(*Platform).RunBatch.func1":                     "repro",
		"runtime.memmove":                                      "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":         "internal/runtime/maps",
		"main.main": "main",
	} {
		if got := funcPkg(name); got != want {
			t.Errorf("funcPkg(%q) = %q, want %q", name, got, want)
		}
	}
}
