package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/policy"
)

// testHeader is a header for synthetic traces: write-threshold with a
// small promotion threshold, paper-default migration costs. The
// keyframe interval is 1 — every record a keyframe — so the corruption
// tests exercise plain prefix semantics; delta-chain behavior gets its
// own headers via testHeaderK.
func testHeader() Header {
	return testHeaderK(1)
}

// testHeaderK is testHeader with an explicit keyframe interval.
func testHeaderK(interval int) Header {
	h := Header{
		Key:                 "app=synth;gc=KG-N",
		App:                 "synth",
		Collector:           "KG-N",
		Instances:           1,
		Dataset:             "default",
		Mode:                "emulation",
		Seed:                7,
		MigrationPageCycles: 1200,
		TLBShootdownCycles:  4000,
		GroupBytes:          0x10000,
		KeyframeInterval:    interval,
	}
	h.SetPolicyConfig(policy.Config{Kind: policy.WriteThreshold, HotWriteLines: 100})
	return h
}

// synthView builds a view with one hot PCM group (promotion bait for
// write-threshold) and one cold DRAM group.
func synthView(q uint64, hotWrites uint64) policy.View {
	return policy.View{
		Quantum: q,
		Groups: []policy.GroupStat{
			{Addr: 0x10000, Node: policy.DRAMNode, Pages: 16, WriteLines: 1},
			{Addr: 0x20000, Node: policy.PCMNode, Pages: 16, WriteLines: hotWrites},
		},
		DRAMPages: 16,
		PCMPages:  16,
	}
}

// record builds a synthetic trace: n quanta, every view identical, the
// recorded actions being what write-threshold decides (so replaying
// write-threshold matches bit-identically). No footer — the stream is
// cut the way a tapped engine run leaves it.
func record(t *testing.T, n int) []byte {
	t.Helper()
	return recordHeader(t, n, testHeader())
}

func recordHeader(t *testing.T, n int, h Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewPolicy(policy.WriteThreshold.String())
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.PolicyConfig()
	for q := 1; q <= n; q++ {
		v := synthView(uint64(q), 500)
		actions := pol.Decide(v, cfg)
		exec := make([]policy.Exec, len(actions))
		for i := range actions {
			exec[i] = policy.Exec{Moved: 16, Stall: 16*1200 + 4000}
		}
		rec.OnQuantum("synth#0", v, actions, exec)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Quanta(); got != uint64(n) {
		t.Fatalf("recorder counted %d quanta, want %d", got, n)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := record(t, 3)
	r := NewReader(bytes.NewReader(data))
	h, err := r.Header()
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != Version || h.App != "synth" || h.Policy != "write-threshold" {
		t.Errorf("header round trip: %+v", h)
	}
	want := testHeader()
	want.Version = Version
	if h != want {
		t.Errorf("header = %+v, want %+v", h, want)
	}
	if got, want := h.PolicyConfig().HotWriteLines, uint64(100); got != want {
		t.Errorf("PolicyConfig hot = %d, want %d", got, want)
	}
	for q := 1; q <= 3; q++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Q != uint64(q) || rec.Proc != "synth#0" {
			t.Errorf("record %d: q=%d proc=%q", q, rec.Q, rec.Proc)
		}
		if !reflect.DeepEqual(rec.View, synthView(uint64(q), 500)) {
			t.Errorf("record %d: view did not round trip: %+v", q, rec.View)
		}
		if len(rec.Actions) == 0 || len(rec.Exec) != len(rec.Actions) {
			t.Errorf("record %d: %d actions, %d exec", q, len(rec.Actions), len(rec.Exec))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("clean end err = %v, want io.EOF", err)
	}
}

// TestDeltaRoundTrip drives the delta codec through churn: growing,
// mutating, and shrinking views across keyframe intervals must
// reconstruct bit-identically, with keyframes exactly where the
// interval rule puts them.
func TestDeltaRoundTrip(t *testing.T) {
	h := testHeaderK(3)
	views := []policy.View{
		// Interval 0: keyframe, then deltas with adds and changes.
		{Quantum: 1, Groups: []policy.GroupStat{
			{Addr: 0x10000, Node: 0, Pages: 16, WriteLines: 5},
			{Addr: 0x20000, Node: 1, Pages: 16, WriteLines: 7},
		}},
		{Quantum: 2, Groups: []policy.GroupStat{
			{Addr: 0x10000, Node: 0, Pages: 16, WriteLines: 5}, // unchanged
			{Addr: 0x20000, Node: 1, Pages: 16, WriteLines: 9}, // heat changed
			{Addr: 0x30000, Node: 1, Pages: 16, ReadLines: 2},  // appeared
		}},
		{Quantum: 3, Groups: []policy.GroupStat{
			{Addr: 0x10000, Node: 0, Pages: 16, WriteLines: 5},
			{Addr: 0x30000, Node: 0, Pages: 16, ReadLines: 2, MaxWear: 1}, // 0x20000 unmapped
		}},
		// Interval 1: keyframe again.
		{Quantum: 4, Groups: []policy.GroupStat{
			{Addr: 0x30000, Node: 0, Pages: 16, ReadLines: 2, MaxWear: 1},
		}},
		{Quantum: 5, Groups: nil}, // everything unmapped
	}

	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		rec.OnQuantum("p#0", v, nil, nil)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	wantKey := []bool{true, false, false, true, false}
	for i, v := range views {
		q, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if q.Keyframe != wantKey[i] {
			t.Errorf("record %d: keyframe = %v, want %v", i, q.Keyframe, wantKey[i])
		}
		if !reflect.DeepEqual(q.View.Groups, v.Groups) {
			t.Errorf("record %d groups:\n got %+v\nwant %+v", i, q.View.Groups, v.Groups)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("clean end err = %v, want io.EOF", err)
	}
}

// TestRunLengthGroups pins the RLE payoff: a long run of identical
// consecutive groups costs one run tuple, and decodes back exactly.
func TestRunLengthGroups(t *testing.T) {
	groups := make([]policy.GroupStat, 100)
	for i := range groups {
		groups[i] = policy.GroupStat{
			Addr: 0x10000000 + uint64(i)*0x10000, Node: 1, Pages: 16, WriteLines: 3,
		}
	}
	// A payload change splits the run; an address gap splits it too.
	groups[40].WriteLines = 9
	groups[99].Addr += 0x10000

	runs := encodeRuns(groups, 0x10000)
	if len(runs) != 4 {
		t.Fatalf("encoded %d runs, want 4: %v", len(runs), runs)
	}
	back, err := decodeRuns(runs, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, groups) {
		t.Errorf("RLE round trip diverged:\n got %+v\nwant %+v", back[:3], groups[:3])
	}
}

// TestFooterIndex pins Close's footer: boundary offsets must point at
// the exact byte of each interval-opening record, so a seek through
// the index can resume decoding there.
func TestFooterIndex(t *testing.T) {
	h := testHeaderK(2)
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q <= 5; q++ {
		rec.OnQuantum("p#0", synthView(uint64(q), uint64(q)), nil, nil)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Error("Close is not idempotent:", err)
	}
	data := buf.Bytes()

	r := NewReader(bytes.NewReader(data))
	if _, err := r.Header(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("footer should read as clean EOF, got %v", err)
	}
	f, ok := r.Footer()
	if !ok {
		t.Fatal("footer not surfaced")
	}
	if f.Quanta != 5 || f.Footer != Version {
		t.Errorf("footer = %+v, want 5 quanta at version %d", f, Version)
	}
	// K=2, 5 records: boundaries at record indexes 0, 2, 4.
	if len(f.Boundaries) != 3 {
		t.Fatalf("boundaries = %v, want 3 entries", f.Boundaries)
	}
	for _, b := range f.Boundaries {
		// Each boundary must point at the first byte of the keyframe
		// record at its index.
		if b[1] <= 0 || b[1] >= int64(len(data)) || data[b[1]-1] != '\n' {
			t.Fatalf("boundary %v does not start a line", b)
		}
		line, _, _ := bytes.Cut(data[b[1]:], []byte("\n"))
		var rec wireRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("boundary %v: %v", b, err)
		}
		if !rec.Key {
			t.Errorf("boundary %v does not open with a keyframe", b)
		}
		want := synthView(uint64(b[0]+1), uint64(b[0]+1))
		groups, err := decodeRuns(rec.G, h.GroupBytes)
		if err != nil {
			t.Fatalf("boundary %v: %v", b, err)
		}
		if rec.Q != want.Quantum || !reflect.DeepEqual(groups, want.Groups) {
			t.Errorf("boundary %v record = quantum %d %+v, want quantum %d %+v", b, rec.Q, groups, want.Quantum, want.Groups)
		}
	}
}

func TestReplayReproducesRecordedActions(t *testing.T) {
	data := record(t, 4)
	pol, _ := policy.NewPolicy(policy.WriteThreshold.String())
	st, err := Replay(bytes.NewReader(data), pol)
	if err != nil {
		t.Fatal(err)
	}
	if !st.MatchesRecorded {
		t.Errorf("same-policy replay diverged at quantum %d", st.FirstMismatchQuantum)
	}
	if st.Quanta != 4 {
		t.Errorf("quanta = %d, want 4", st.Quanta)
	}
	// Matching quanta charge the recorded executed costs: the first
	// quantum promotes the hot group (16 pages); later quanta see it
	// recorded on PCM again (identical synthetic views), so every
	// quantum re-promotes.
	if st.PagesMigrated != 4*16 {
		t.Errorf("migrated = %d, want %d", st.PagesMigrated, 4*16)
	}
	if st.StallCycles != 4*(16*1200+4000) {
		t.Errorf("stall = %g, want %d", st.StallCycles, 4*(16*1200+4000))
	}
	// The hot group is replayed onto DRAM at quantum 1, so its later
	// window writes land on DRAM: only quantum 1's 500 lines count.
	if st.PCMWriteLines != 500 {
		t.Errorf("replayed PCM writes = %d, want 500", st.PCMWriteLines)
	}
	if st.BaselinePCMWriteLines != 4*500 {
		t.Errorf("baseline PCM writes = %d, want %d", st.BaselinePCMWriteLines, 4*500)
	}
	if got := st.PCMWriteReduction(); got <= 0.7 {
		t.Errorf("reduction = %g, want > 0.7", got)
	}
}

// TestReplayDeltaTraceMatchesKeyframeTrace pins codec transparency:
// the same quanta recorded with K=1 (all keyframes) and K=16 (delta
// chains) must replay to identical stats.
func TestReplayDeltaTraceMatchesKeyframeTrace(t *testing.T) {
	full := record(t, 6)
	delta := recordHeader(t, 6, testHeaderK(16))
	if len(delta) >= len(full) {
		t.Errorf("delta trace (%d bytes) not smaller than keyframe trace (%d bytes)",
			len(delta), len(full))
	}
	pol, _ := policy.NewPolicy(policy.WriteThreshold.String())
	stFull, err := Replay(bytes.NewReader(full), pol)
	if err != nil {
		t.Fatal(err)
	}
	stDelta, err := Replay(bytes.NewReader(delta), pol)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stFull, stDelta) {
		t.Errorf("replay stats diverged across keyframe cadence:\n%+v\nvs\n%+v", stFull, stDelta)
	}
}

func TestReplayDivergentPolicyEstimates(t *testing.T) {
	data := record(t, 2)
	// first-touch never migrates, so it diverges from the recorded
	// write-threshold actions at the first quantum.
	pol, _ := policy.NewPolicy(policy.FirstTouch.String())
	st, err := Replay(bytes.NewReader(data), pol)
	if err != nil {
		t.Fatal(err)
	}
	if st.MatchesRecorded || st.FirstMismatchQuantum != 1 {
		t.Errorf("expected divergence at quantum 1, got %+v", st)
	}
	if st.Actions != 0 || st.PagesMigrated != 0 {
		t.Errorf("first-touch replay migrated: %+v", st)
	}
	// Without migrations the replayed placement is the baseline.
	if st.PCMWriteLines != st.BaselinePCMWriteLines {
		t.Errorf("no-migration replay PCM writes %d != baseline %d",
			st.PCMWriteLines, st.BaselinePCMWriteLines)
	}
}

func TestEmptyTraceIsCorrupt(t *testing.T) {
	for _, src := range []string{"", "\n\n"} {
		r := NewReader(strings.NewReader(src))
		if _, err := r.Header(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("empty trace %q: err = %v, want ErrCorrupt", src, err)
		}
		pol, _ := policy.NewPolicy(policy.Static.String())
		if _, err := Replay(strings.NewReader(src), pol); !errors.Is(err, ErrCorrupt) {
			t.Errorf("empty trace %q replay err = %v, want ErrCorrupt", src, err)
		}
	}
}

// TestVersionRejected is the cross-version matrix: traces from the
// past (v1), the future (v99), and nowhere (no version field) must all
// fail with ErrVersion naming both the file's version and this
// reader's.
func TestVersionRejected(t *testing.T) {
	data := record(t, 1)
	cases := []struct {
		name string
		old  string
		new  string
		want string // version the error must name besides ours
	}{
		{"v1 file", `{"version":2,`, `{"version":1,`, "version 1"},
		{"future file", `{"version":2,`, `{"version":99,`, "version 99"},
		{"versionless file", `{"version":2,`, `{`, "version 0"},
	}
	for _, tc := range cases {
		skewed := bytes.Replace(data, []byte(tc.old), []byte(tc.new), 1)
		if bytes.Equal(skewed, data) {
			t.Fatalf("%s: version field not found in header", tc.name)
		}
		r := NewReader(bytes.NewReader(skewed))
		_, err := r.Header()
		if !errors.Is(err, ErrVersion) {
			t.Errorf("%s: err = %v, want ErrVersion", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the file's %s", tc.name, err, tc.want)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d", Version)) {
			t.Errorf("%s: error %q does not name the reader's version %d", tc.name, err, Version)
		}
		// The error latches: Next keeps failing the same way.
		if _, err := r.Next(); !errors.Is(err, ErrVersion) {
			t.Errorf("%s: Next after bad header err = %v, want ErrVersion", tc.name, err)
		}
	}
}

func TestGarbageMidFileReportsLineAndPreservesPrefix(t *testing.T) {
	data := record(t, 3)
	lines := bytes.SplitAfter(data, []byte("\n"))
	// lines: header, q1, q2, q3, "" — corrupt q2 (file line 3).
	lines[2] = []byte("{\"q\": not json at all}\n")
	corrupted := bytes.Join(lines, nil)

	r := NewReader(bytes.NewReader(corrupted))
	if _, err := r.Header(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("prefix record: %v", err)
	}
	_, err := r.Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage line err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name line 3", err)
	}
	if r.Line() != 3 {
		t.Errorf("Line() = %d, want 3", r.Line())
	}
	// The latch holds.
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err after corruption = %v, want latched ErrCorrupt", err)
	}

	// Replay of the valid prefix still works: one quantum's stats
	// (every record is a keyframe at interval 1, so the whole decoded
	// prefix is committed).
	pol, _ := policy.NewPolicy(policy.WriteThreshold.String())
	st, rerr := Replay(bytes.NewReader(corrupted), pol)
	if !errors.Is(rerr, ErrCorrupt) {
		t.Fatalf("replay err = %v, want ErrCorrupt", rerr)
	}
	if st.Quanta != 1 || st.PagesMigrated != 16 || !st.MatchesRecorded {
		t.Errorf("prefix replay stats = %+v, want 1 matching quantum", st)
	}
}

// TestCorruptionRollsBackToKeyframe pins the delta-chain blast radius:
// corruption inside an interval invalidates every record back to the
// last keyframe boundary, because the stranded chain's records cannot
// be trusted in isolation.
func TestCorruptionRollsBackToKeyframe(t *testing.T) {
	data := recordHeader(t, 6, testHeaderK(2))
	lines := bytes.SplitAfter(data, []byte("\n"))
	// lines: header, q1..q6, "". Corrupt q4 (record index 3, line 5):
	// interval [2,4) loses its tail, so the committed prefix is the
	// complete interval [0,2) — 2 quanta, not the 3 that decoded.
	lines[4] = []byte("garbage\n")
	corrupted := bytes.Join(lines, nil)

	pol, _ := policy.NewPolicy(policy.WriteThreshold.String())
	st, err := Replay(bytes.NewReader(corrupted), pol)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay err = %v, want ErrCorrupt", err)
	}
	if st.Quanta != 2 {
		t.Errorf("committed prefix = %d quanta, want 2 (last complete keyframe interval)", st.Quanta)
	}
	if st.PagesMigrated != 2*16 {
		t.Errorf("migrated = %d, want %d", st.PagesMigrated, 2*16)
	}

	// DecodeAll applies the same truncation.
	_, quanta, derr := DecodeAll(bytes.NewReader(corrupted))
	if !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("DecodeAll err = %v, want ErrCorrupt", derr)
	}
	if len(quanta) != 2 {
		t.Errorf("DecodeAll prefix = %d quanta, want 2", len(quanta))
	}
}

// TestDeltaWithoutKeyframeIsCorrupt pins the chain-start rule: a delta
// record whose process has no keyframe in the current interval is
// corruption, not a silently empty view.
func TestDeltaWithoutKeyframeIsCorrupt(t *testing.T) {
	data := recordHeader(t, 4, testHeaderK(4))
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Drop the keyframe (record 0, line 2): the first surviving record
	// is a delta with no chain to apply to.
	corrupted := bytes.Join(append(lines[:1], lines[2:]...), nil)

	r := NewReader(bytes.NewReader(corrupted))
	if _, err := r.Header(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("headless delta err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "no keyframe") {
		t.Errorf("error %q does not explain the missing keyframe", err)
	}
}

func TestTruncatedTailReportsLineAndPreservesPrefix(t *testing.T) {
	data := record(t, 2)
	// Chop the final record mid-line: the crash-mid-append signature.
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1 + 10
	truncated := data[:cut]

	pol, _ := policy.NewPolicy(policy.WriteThreshold.String())
	st, err := Replay(bytes.NewReader(truncated), pol)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn tail err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name line 3", err)
	}
	if st.Quanta != 1 || st.PagesMigrated != 16 {
		t.Errorf("prefix replay stats = %+v, want the intact first quantum", st)
	}
}

// TestOversizedLineIsCorrupt is the bounded-reader regression test: a
// line past MaxLineBytes must fail as ErrCorrupt naming the line,
// without buffering the whole monster first (the reader gives up the
// moment the cap is crossed — one buffered chunk past the cap, not the
// full line).
func TestOversizedLineIsCorrupt(t *testing.T) {
	data := record(t, 1)
	// Splice an unterminated multi-hundred-MB "line" after the valid
	// records, delivered by a reader that would hand out 512 MiB if
	// asked — the bounded reader must stop at the 16 MiB cap.
	monster := &repeatReader{b: 'x', n: 512 << 20}
	src := io.MultiReader(bytes.NewReader(data), monster)

	r := NewReader(src)
	if _, err := r.Header(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("prefix record: %v", err)
	}
	_, err := r.Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized line err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("error %q does not name line 3 and the cap", err)
	}
	if monster.read > MaxLineBytes+(1<<20) {
		t.Errorf("reader consumed %d bytes of the oversized line, want <= cap + one buffer", monster.read)
	}
	// The latch holds.
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err after oversized line = %v, want latched ErrCorrupt", err)
	}
}

// repeatReader yields n copies of b with no newline, counting reads.
type repeatReader struct {
	b    byte
	n    int
	read int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	n := len(p)
	if n > r.n {
		n = r.n
	}
	for i := 0; i < n; i++ {
		p[i] = r.b
	}
	r.n -= n
	r.read += n
	return n, nil
}

// failingWriter fails every write after the first n bytes.
type failingWriter struct {
	n int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("sink full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestRecorderLatchesWriteErrors(t *testing.T) {
	if _, err := NewRecorder(&failingWriter{}, testHeader()); err == nil {
		t.Error("unwritable header must fail NewRecorder")
	}
	rec, err := NewRecorder(&failingWriter{n: 4096}, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q <= 100; q++ {
		rec.OnQuantum("p", synthView(uint64(q), 500), nil, nil)
	}
	if rec.Err() == nil {
		t.Error("write failure did not latch")
	}
	if rec.Quanta() >= 100 {
		t.Error("quanta kept counting past the failure")
	}
	if rec.Close() == nil {
		t.Error("Close after a latched write error must return it")
	}
}

func TestReplayNilPolicy(t *testing.T) {
	if _, err := Replay(bytes.NewReader(record(t, 1)), nil); err == nil {
		t.Error("nil policy must fail")
	}
}

// TestReplayWithOverridesKnobs pins the knob-injection contract at the
// trace layer: the recorded knobs promote the synthetic hot group
// (writes 500 >= hot 100), an injected hot threshold above the heat
// suppresses the promotion entirely, and injecting exactly the
// recorded knobs is indistinguishable from the header-knob replay.
func TestReplayWithOverridesKnobs(t *testing.T) {
	data := record(t, 3)
	pol, err := policy.NewPolicy(policy.WriteThreshold.String())
	if err != nil {
		t.Fatal(err)
	}

	recorded, err := Replay(bytes.NewReader(data), pol)
	if err != nil {
		t.Fatal(err)
	}
	same, err := ReplayWith(bytes.NewReader(data), pol, testHeader().PolicyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(same, recorded) {
		t.Errorf("recorded-knob injection diverged:\n%+v\nvs\n%+v", same, recorded)
	}
	if !same.MatchesRecorded || same.Actions == 0 {
		t.Errorf("recorded-knob injection lost the differential invariant: %+v", same)
	}

	cold, err := ReplayWith(bytes.NewReader(data), pol,
		policy.Config{Kind: policy.WriteThreshold, HotWriteLines: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Actions != 0 || cold.PagesMigrated != 0 {
		t.Errorf("hot=1000 should suppress every promotion, got %+v", cold)
	}
	if cold.MatchesRecorded {
		t.Error("divergent knobs still reported MatchesRecorded")
	}
	// With no promotions, the hot group's writes stay on PCM: the
	// replayed placement equals the no-migration baseline.
	if cold.PCMWriteLines != cold.BaselinePCMWriteLines {
		t.Errorf("no-promotion replay PCM writes = %d, baseline %d",
			cold.PCMWriteLines, cold.BaselinePCMWriteLines)
	}
	if recorded.PCMWriteLines >= cold.PCMWriteLines {
		t.Errorf("recorded knobs should beat the no-promotion placement: %d vs %d",
			recorded.PCMWriteLines, cold.PCMWriteLines)
	}
}

// BenchmarkDecodeAll decodes the committed golden trace from bytes:
// JSON parsing, run expansion and delta reconstruction.
func BenchmarkDecodeAll(b *testing.B) {
	data, _, _ := decodeGolden(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := DecodeAll(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayDecoded replays the decoded golden trace under its
// recorded policy and knobs, as the estimate tier answers a
// same-policy request.
func BenchmarkReplayDecoded(b *testing.B) {
	_, h, quanta := decodeGolden(b)
	pol, err := policy.NewPolicy(h.Policy)
	if err != nil {
		b.Fatal(err)
	}
	cfg := h.PolicyConfig()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReplayDecoded(h, quanta, pol, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
