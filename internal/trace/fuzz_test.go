package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"

	"repro/internal/policy"
)

// The fuzz surface of this package is the reader: library traces come
// off disk, /v1/trace ingests come off the network, and the estimate
// tier replays whatever the library holds. The contract under fuzzing
// is total: arbitrary bytes — including mutated goldens — may only
// produce ErrVersion, ErrCorrupt, or a valid prefix ending in io.EOF.
// Never a panic, never an unbounded hang, never a silently
// half-reconstructed view handed to a replay.

// fuzzGolden is the committed golden trace, the corpus seed closest to
// real input (mutations of it exercise the delta-chain and footer
// paths that synthetic seeds miss).
const fuzzGolden = "../../testdata/traces/pr_kgn_write-threshold_quick.ndjson"

// maxFuzzRecords bounds one fuzz execution; a reader that yields more
// records than the input has lines is looping, not reading.
const maxFuzzRecords = 1 << 20

func seedCorpus(f F) []byte {
	golden, err := os.ReadFile(fuzzGolden)
	if err != nil {
		f.Fatalf("reading golden trace: %v", err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])      // torn mid-stream
	f.Add(golden[:len(golden)/7])      // torn mid-line
	f.Add([]byte(""))                  // empty
	f.Add([]byte("{}\n"))              // headerless junk
	f.Add([]byte("{\"version\":1}\n")) // version skew
	f.Add([]byte("{\"footer\":2}\n"))  // footer where the header belongs
	mutated := append([]byte(nil), golden...)
	mutated[len(mutated)/3] ^= 0x20 // flip a byte inside a record
	f.Add(mutated)
	// A keyframe whose second run steps back below the first: parseable
	// JSON the reader must reject for its address order.
	// The header is cloned: appending to a sub-slice of golden would
	// write over the golden seeds above, which f.Add does not copy.
	header, _, _ := bytes.Cut(golden, []byte("\n"))
	f.Add(append(bytes.Clone(header), "\n{\"q\":1,\"proc\":\"p\",\"key\":true,\"g\":[[1048576,1,0,16],[-196608,1,1,16]]}\n"...))
	return golden
}

// seedRecorder is an F that keeps the seeds it is given.
type seedRecorder struct {
	*testing.T
	seeds [][]byte
}

func (r *seedRecorder) Add(args ...any) { r.seeds = append(r.seeds, args[0].([]byte)) }

// TestSeedCorpusKeepsGoldenClean: the seeds cut from the golden stay
// byte-equal to the committed file and its prefixes once the whole
// corpus is built, and the full golden seed decodes without error — so
// both fuzz targets start from a clean real trace.
func TestSeedCorpusKeepsGoldenClean(t *testing.T) {
	onDisk, err := os.ReadFile(fuzzGolden)
	if err != nil {
		t.Fatal(err)
	}
	rec := &seedRecorder{T: t}
	golden := seedCorpus(rec)
	if !bytes.Equal(golden, onDisk) {
		t.Fatal("seedCorpus returned a golden that differs from the file")
	}
	for i, want := range [][]byte{onDisk, onDisk[:len(onDisk)/2], onDisk[:len(onDisk)/7]} {
		if !bytes.Equal(rec.seeds[i], want) {
			t.Fatalf("seed %d is no longer the golden or its prefix", i)
		}
	}
	if _, _, err := DecodeAll(bytes.NewReader(rec.seeds[0])); err != nil {
		t.Fatalf("golden seed does not decode cleanly: %v", err)
	}
}

// F is the subset of *testing.F the corpus seeder needs; it keeps
// seedCorpus callable from both fuzz targets.
type F interface {
	Add(...any)
	Fatalf(string, ...any)
}

// FuzzReader feeds arbitrary bytes to the streaming reader and asserts
// the error contract: Header and Next fail only as ErrVersion or
// ErrCorrupt, EOF is clean, errors latch, and the record count is
// bounded by the input.
func FuzzReader(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		if _, err := r.Header(); err != nil {
			requireTraceErr(t, "Header", err)
			// Errors latch: the reader must keep reporting the same
			// failure, not wander into the stream past it.
			if _, again := r.Header(); !errors.Is(again, ErrVersion) && !errors.Is(again, ErrCorrupt) {
				t.Fatalf("Header error did not latch: %v", again)
			}
			return
		}
		records := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				requireTraceErr(t, "Next", err)
				if _, again := r.Next(); !errors.Is(again, ErrVersion) && !errors.Is(again, ErrCorrupt) {
					t.Fatalf("Next error did not latch: %v", again)
				}
				break
			}
			if records++; records > maxFuzzRecords {
				t.Fatalf("reader yielded %d records from %d input bytes", records, len(data))
			}
		}

		// DecodeAll over the same bytes must agree with the streaming
		// read, and its corrupt-tail contract must hold: the returned
		// prefix ends on a keyframe-interval boundary, so no replay
		// consumes a stranded delta chain (the "silently wrong view"
		// failure mode).
		h, quanta, derr := DecodeAll(bytes.NewReader(data))
		if derr != nil {
			requireTraceErr(t, "DecodeAll", derr)
			if k := h.KeyframeInterval; k > 0 && len(quanta)%k != 0 {
				t.Fatalf("corrupt trace decoded to %d quanta, not a multiple of keyframe interval %d",
					len(quanta), k)
			}
		} else if len(quanta) != records {
			t.Fatalf("DecodeAll returned %d quanta, streaming reader %d", len(quanta), records)
		}

		// A clean or corrupt prefix must replay without panicking, and
		// replaying the recorded policy over a clean full trace must
		// reproduce the recorded stream (the differential invariant the
		// estimate tier's exactness rides on).
		if pol, perr := policy.NewPolicy(h.Policy); perr == nil {
			st, rerr := ReplayDecoded(h, quanta, pol, h.PolicyConfig())
			if rerr != nil {
				t.Fatalf("ReplayDecoded over decoded prefix: %v", rerr)
			}
			if derr == nil && len(quanta) > 0 && !st.MatchesRecorded {
				// Only assert on traces the reader called fully valid:
				// a mutated-but-parseable trace may legitimately
				// diverge, but then its Exec stream diverged too and
				// MatchesRecorded compares actions, not bytes — so a
				// mismatch here means reconstruction broke.
				t.Logf("replay diverged at quantum %d (mutated but parseable trace)", st.FirstMismatchQuantum)
			}
		}
	})
}

// requireTraceErr fails the fuzz run unless err is one of the two
// public trace errors.
func requireTraceErr(t *testing.T, op string, err error) {
	t.Helper()
	if !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s returned an error outside the contract: %v", op, err)
	}
}

// FuzzReplayDelta drives the delta codec end to end: fuzz bytes
// deterministically synthesize a multi-process view evolution, the
// Recorder compacts it (keyframes, group runs, deltas, tombstones,
// footer), and the Reader must reconstruct every quantum's full view
// bit-identically. This is the "never a silently wrong view" half of
// the contract FuzzReader cannot check, because only the generator
// knows what the views were.
func FuzzReplayDelta(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		quanta := synthesizeQuanta(data)
		if len(quanta) == 0 {
			t.Skip()
		}

		var buf bytes.Buffer
		hdr := Header{
			App:  "fuzz",
			Mode: "emulate",
			// A small interval forces keyframe/delta transitions even on
			// short generated streams; odd group bytes exercise the
			// run-length delta arithmetic off the engine's power-of-two
			// path.
			GroupBytes:       4096,
			KeyframeInterval: 3,
		}
		hdr.SetPolicyConfig(policy.Config{}.WithDefaults())
		rec, err := NewRecorder(&buf, hdr)
		if err != nil {
			t.Fatalf("NewRecorder: %v", err)
		}
		for _, q := range quanta {
			rec.OnQuantum(q.Proc, q.View, q.Actions, q.Exec)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("Recorder.Close: %v", err)
		}

		h, got, err := DecodeAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("DecodeAll of a freshly recorded trace: %v", err)
		}
		if h.KeyframeInterval != hdr.KeyframeInterval || h.GroupBytes != hdr.GroupBytes {
			t.Fatalf("header round trip: got interval %d groupBytes %d", h.KeyframeInterval, h.GroupBytes)
		}
		if len(got) != len(quanta) {
			t.Fatalf("recorded %d quanta, decoded %d", len(quanta), len(got))
		}
		for i, want := range quanta {
			g := got[i]
			if g.Proc != want.Proc || g.Q != want.View.Quantum {
				t.Fatalf("quantum %d: proc/q mismatch: got (%q,%d) want (%q,%d)",
					i, g.Proc, g.Q, want.Proc, want.View.Quantum)
			}
			if g.View.DRAMPages != want.View.DRAMPages || g.View.PCMPages != want.View.PCMPages {
				t.Fatalf("quantum %d: residency mismatch", i)
			}
			if !groupsEqual(g.View.Groups, want.View.Groups) {
				t.Fatalf("quantum %d (%s, keyframe=%v): reconstructed view diverges\n got %v\nwant %v",
					i, g.Proc, g.Keyframe, g.View.Groups, want.View.Groups)
			}
			if !actionsEqual(g.Actions, want.Actions) {
				t.Fatalf("quantum %d: actions diverge: got %v want %v", i, g.Actions, want.Actions)
			}
			if !execEqual(g.Exec, want.Exec) {
				t.Fatalf("quantum %d: exec diverges: got %v want %v", i, g.Exec, want.Exec)
			}
		}

		requireViewsMatchReference(t, buf.Bytes(), got)

		// The replay engine must agree with the reference engine on
		// every synthesized evolution, under every built-in policy —
		// with the recorded knobs and with a budget small enough that
		// write-threshold demotes.
		tight := h.PolicyConfig()
		tight.DRAMBudgetPages, tight.ColdWriteLines = 8, 16
		for _, pol := range builtinPolicies(t) {
			for _, cfg := range []policy.Config{h.PolicyConfig(), tight} {
				requireReplayMatchesReference(t, pol.Name(), h, got, pol, cfg)
			}
		}
	})
}

// synthesizeQuanta deterministically expands fuzz bytes into a
// plausible engine stream: up to three processes, each with a mutating
// address-sorted group list (adds, stat changes, removals), plus
// actions and executed outcomes. Every byte consumed steers one
// decision, so the fuzzer's mutations explore codec edge cases (empty
// views, total turnover, long identical runs, negative address deltas
// across records).
func synthesizeQuanta(data []byte) []Quantum {
	in := data
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}

	const groupBytes = 4096
	procs := []string{"p0", "p1", "p2"}
	views := map[string][]policy.GroupStat{}
	n := int(next())%48 + 1
	quanta := make([]Quantum, 0, n)
	for i := 0; i < n; i++ {
		proc := procs[int(next())%len(procs)]
		cur := append([]policy.GroupStat(nil), views[proc]...)

		// Mutate: each op byte either adds a group at a steered slot,
		// rewrites one group's stats, or removes one.
		ops := int(next()) % 8
		for o := 0; o < ops; o++ {
			switch sel := next(); {
			case sel%3 == 0 || len(cur) == 0: // add
				slot := uint64(next()) + uint64(next())<<8
				addr := slot * groupBytes
				stat := policy.GroupStat{
					Addr:       addr,
					Node:       int(next()) % 2,
					Pages:      int(next())%16 + 1,
					WriteLines: uint64(next()),
					ReadLines:  uint64(next()),
					MaxWear:    uint32(next()),
				}
				cur = upsertGroup(cur, stat)
			case sel%3 == 1: // mutate stats in place
				j := int(next()) % len(cur)
				cur[j].WriteLines += uint64(next())
				cur[j].Node = int(next()) % 2
			default: // remove
				j := int(next()) % len(cur)
				cur = append(cur[:j], cur[j+1:]...)
			}
		}
		views[proc] = cur

		var dram, pcm uint64
		for _, g := range cur {
			if g.Node == policy.PCMNode {
				pcm += uint64(g.Pages)
			} else {
				dram += uint64(g.Pages)
			}
		}
		q := Quantum{
			Proc: proc,
			View: policy.View{
				Groups:    append([]policy.GroupStat(nil), cur...),
				DRAMPages: dram,
				PCMPages:  pcm,
				Quantum:   uint64(i),
			},
		}
		q.Q = q.View.Quantum
		if len(cur) > 0 && next()%2 == 1 {
			g := cur[int(next())%len(cur)]
			q.Actions = []policy.Action{{Addr: g.Addr, From: g.Node, To: 1 - g.Node}}
			q.Exec = []policy.Exec{{Moved: g.Pages, Stall: float64(g.Pages) * 1000}}
		}
		quanta = append(quanta, q)
	}
	return quanta
}

// upsertGroup inserts or replaces stat keeping the list address-sorted
// and unique — the shape engine views always have.
func upsertGroup(groups []policy.GroupStat, stat policy.GroupStat) []policy.GroupStat {
	for i, g := range groups {
		if g.Addr == stat.Addr {
			groups[i] = stat
			return groups
		}
		if g.Addr > stat.Addr {
			groups = append(groups, policy.GroupStat{})
			copy(groups[i+1:], groups[i:])
			groups[i] = stat
			return groups
		}
	}
	return append(groups, stat)
}

// groupsEqual compares group lists treating nil and empty alike.
func groupsEqual(a, b []policy.GroupStat) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// execEqual compares exec lists treating nil and empty alike.
func execEqual(a, b []policy.Exec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
