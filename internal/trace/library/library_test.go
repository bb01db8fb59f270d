package library

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policy"
	"repro/internal/trace"
)

const specKey = "mode=emulation;seed=1;policy=write-threshold(hot=256);app=PR;gc=KG-N;n=1"

// synthTrace records n quanta with keyframe interval k, churning the
// views so the delta chains are non-trivial, and finishes with the
// footer the library requires.
func synthTrace(t *testing.T, n, k int) []byte {
	t.Helper()
	h := trace.Header{
		Key:                 specKey,
		App:                 "PR",
		Collector:           "KG-N",
		Instances:           1,
		Dataset:             "default",
		Mode:                "emulation",
		Seed:                1,
		MigrationPageCycles: 1200,
		TLBShootdownCycles:  4000,
		GroupBytes:          0x10000,
		KeyframeInterval:    k,
	}
	h.SetPolicyConfig(policy.Config{Kind: policy.WriteThreshold, HotWriteLines: 100})
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q <= n; q++ {
		rec.OnQuantum("PR#0", synthView(q), nil, nil)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// synthView varies per quantum: group heat changes every quantum, and
// a group appears/disappears on a cycle, so deltas carry changes and
// tombstones.
func synthView(q int) policy.View {
	groups := []policy.GroupStat{
		{Addr: 0x10000, Node: 0, Pages: 16, WriteLines: uint64(q)},
		{Addr: 0x20000, Node: 1, Pages: 16, WriteLines: uint64(2 * q)},
	}
	if q%3 != 0 {
		groups = append(groups, policy.GroupStat{Addr: 0x30000, Node: 1, Pages: 16, ReadLines: uint64(q)})
	}
	return policy.View{Quantum: uint64(q), Groups: groups, DRAMPages: 16, PCMPages: 32}
}

func TestNeighborhoodKey(t *testing.T) {
	hood := NeighborhoodKey(specKey)
	want := "mode=emulation;seed=1;app=PR;gc=KG-N;n=1"
	if hood != want {
		t.Errorf("NeighborhoodKey = %q, want %q", hood, want)
	}
	// Different policies, same neighborhood; a bare neighborhood is a
	// fixed point.
	other := NeighborhoodKey("mode=emulation;seed=1;policy=wear-level(rot=8);app=PR;gc=KG-N;n=1")
	if other != hood {
		t.Errorf("policy variant mapped to %q, want %q", other, hood)
	}
	if NeighborhoodKey(hood) != hood {
		t.Errorf("neighborhood key is not a fixed point: %q", NeighborhoodKey(hood))
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	lib, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := synthTrace(t, 10, 4)
	hood, err := lib.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if hood != NeighborhoodKey(specKey) {
		t.Errorf("Put neighborhood = %q", hood)
	}
	if lib.Len() != 1 || !lib.Has(specKey) {
		t.Errorf("library does not report the trace: len=%d has=%v", lib.Len(), lib.Has(specKey))
	}
	// Lookup by a different policy's full key hits the same entry.
	tr, err := lib.Get("mode=emulation;seed=1;policy=static;app=PR;gc=KG-N;n=1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr.Bytes(), data) {
		t.Error("library bytes differ from the ingested trace")
	}

	// A fresh Open over the same directory re-indexes it.
	lib2, err := Open(lib.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if !lib2.Has(specKey) {
		t.Error("reopened library lost the trace")
	}
	if got := lib2.Neighborhoods(); len(got) != 1 || got[0] != hood {
		t.Errorf("Neighborhoods = %v", got)
	}

	if _, err := lib.Get("mode=emulation;seed=2;app=PR;gc=KG-N;n=1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown neighborhood err = %v, want ErrNotFound", err)
	}
}

func TestPutRejectsBadTraces(t *testing.T) {
	lib, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := synthTrace(t, 6, 3)

	// No footer: cut the last line.
	cut := bytes.TrimRight(data, "\n")
	cut = cut[:bytes.LastIndexByte(cut, '\n')+1]
	if _, err := lib.Put(cut); err == nil {
		t.Error("footerless trace accepted")
	}
	// Torn tail.
	if _, err := lib.Put(data[:len(data)-20]); err == nil {
		t.Error("torn trace accepted")
	}
	// No spec key.
	anon := bytes.Replace(data, []byte(`"key":"`+specKey+`",`), nil, 1)
	if bytes.Equal(anon, data) {
		t.Fatal("key field not found")
	}
	if _, err := lib.Put(anon); err == nil {
		t.Error("keyless trace accepted")
	}
	if lib.Len() != 0 {
		t.Errorf("rejected traces left %d entries", lib.Len())
	}
}

func TestOpenRejectsUnreadableEntries(t *testing.T) {
	dir := t.TempDir()
	lib, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Put(synthTrace(t, 4, 2)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry's header on disk: the next Open must refuse.
	names := lib.Neighborhoods()
	if len(names) != 1 {
		t.Fatal("expected one entry")
	}
	tr, err := lib.Get(names[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(tr.Bytes(), []byte(`{"version":2,`), []byte(`{"version":1,`), 1)
	path := filepath.Join(dir, fileName(names[0]))
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("Open accepted a library with a version-skewed entry")
	}
}
