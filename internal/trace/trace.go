// Package trace records and replays the placement-policy engine's
// per-quantum decision stream.
//
// The PR-3 engine computes a View per GC-safepoint quantum — page
// groups with heat, wear, and residency — lets its policy decide
// migration Actions, executes them, and throws the whole exchange
// away. This package captures it as a versioned ndjson trace: one
// header line carrying the run's identity (spec key, seed, policy and
// its knobs, migration cost constants), then one line per quantum.
// A recorded trace turns the emulator's most expensive asset — its
// per-quantum placement signal — into a file, so new policies are
// prototyped offline against recorded views (the cost-avoidance move
// METICULOUS-style emulators exist for) and the live engine is
// validated differentially: replaying a trace with the policy that
// recorded it must reproduce the recorded Action stream bit-identically.
// Replay uses the header's recorded knobs; ReplayWith injects a
// policy.Config per call, which is the primitive internal/autotune
// builds its knob-grid search on — one recorded trace prices every
// point of a grid.
//
// # Schema v2: delta-encoded quanta
//
// Version 1 re-serialized every resident page group in every quantum,
// so views dominated trace size (~60 KB/quantum at quick scale). v2
// compacts the stream three ways, all lossless:
//
//   - Group runs: consecutive groups with identical stats collapse to
//     one run tuple, and addresses are delta-encoded, so the hundreds
//     of equally-hot neighboring groups a real heap produces cost a
//     handful of bytes each.
//   - Delta records: a quantum's view is encoded against the same
//     process's previous view — only groups whose stats changed (or
//     that appeared) are carried, and groups that vanished become
//     tombstones.
//   - Keyframes: every KeyframeInterval records the stream restarts
//     with full views, so corruption costs at most one keyframe
//     interval.
//
// A finished trace may end with a footer line counting its quanta and
// indexing the keyframe boundaries by byte offset (Recorder.Close
// writes it). Readers use the footer only to tell a finished trace
// from a cut one: internal/trace/library accepts only footer-terminated
// traces and checks the count. No reader seeks through the boundaries;
// they stay in the format so existing traces keep their bytes.
// Streamed or torn traces without a footer stay fully readable — the
// footer is an index, not part of the data.
//
// The format remains append-crash-tolerant in the same way
// internal/store's segments are: every record is one Write of one
// line, so a torn tail shows up as an unparseable final line. The
// Reader surfaces ErrCorrupt with the offending line number; because
// a corrupt line may strand the tail of a delta chain, the replay
// contract conservatively ends the valid prefix at the last complete
// keyframe interval (see Replay and DecodeAll).
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/heap"
	"repro/internal/policy"
)

// Version is the trace schema version this package writes and reads.
// Bump it when the wire format changes incompatibly; readers reject
// other versions with ErrVersion naming both sides.
const Version = 2

// DefaultKeyframeInterval is the keyframe cadence stamped into headers
// that do not choose their own: one full-view record every 16 quanta,
// deltas in between. Smaller intervals shrink the corruption blast
// radius; larger ones compress better.
const DefaultKeyframeInterval = 16

// MaxLineBytes bounds one record line. A corrupt or adversarial input
// whose "line" never ends would otherwise be buffered in full before
// any error surfaced; the reader fails the line as ErrCorrupt once it
// passes this cap. 16 MiB is two orders of magnitude above any record
// the recorder writes.
const MaxLineBytes = 16 << 20

// Typed trace errors. The hybridmem facade re-exports them as
// ErrTraceVersion and ErrTraceCorrupt.
var (
	// ErrVersion reports a trace written by an incompatible schema
	// version.
	ErrVersion = errors.New("trace: unsupported trace version")
	// ErrCorrupt reports an unreadable trace: a missing or mangled
	// header, a garbage line, an oversized line, a delta record whose
	// chain has no keyframe, or a torn tail. The error message names
	// the offending line.
	ErrCorrupt = errors.New("trace: corrupt trace")
)

// Header is the trace's first line: the recorded run's identity plus
// everything a replayer needs to re-drive a policy against the views —
// the policy knobs (Decide takes them), the kernel's migration cost
// constants (stall estimation uses them), and the v2 codec parameters
// (group granularity and keyframe cadence). Changing it is a schema
// change: bump Version and regenerate the golden trace.
type Header struct {
	Version int `json:"version"`
	// Key is the platform's canonical spec key for the recorded run
	// (empty when the trace was recorded below the facade).
	Key string `json:"key,omitempty"`
	// The spec, spelled with the public names.
	App       string `json:"app"`
	Collector string `json:"collector,omitempty"`
	Instances int    `json:"instances"`
	Dataset   string `json:"dataset"`
	Native    bool   `json:"native,omitempty"`
	Mode      string `json:"mode"`
	Seed      uint64 `json:"seed"`
	// Policy is the recorded policy's name; the knobs below are its
	// resolved configuration.
	Policy              string  `json:"policy"`
	HotWriteLines       uint64  `json:"hotWriteLines"`
	ColdWriteLines      uint64  `json:"coldWriteLines"`
	DRAMBudgetPages     uint64  `json:"dramBudgetPages"`
	WearFactor          float64 `json:"wearFactor"`
	MaxGroupsPerQuantum int     `json:"maxGroupsPerQuantum"`
	// The recorded kernel's migration cost constants, so offline stall
	// estimates price actions the way the live run would have.
	MigrationPageCycles float64 `json:"migrationPageCycles"`
	TLBShootdownCycles  float64 `json:"tlbShootdownCycles"`
	// GroupBytes is the page-group granularity run-length encoding
	// assumes between consecutive groups (the recorder stamps
	// heap.PageGroupBytes when left zero).
	GroupBytes uint64 `json:"groupBytes"`
	// KeyframeInterval is the keyframe cadence: records at indexes
	// 0, K, 2K, ... start a fresh interval in which every process's
	// first record is a full view. Zero resolves to
	// DefaultKeyframeInterval at NewRecorder.
	KeyframeInterval int `json:"keyframeInterval"`
}

// SetPolicyConfig fills the header's policy fields from a resolved
// configuration.
func (h *Header) SetPolicyConfig(cfg policy.Config) {
	cfg = cfg.WithDefaults()
	h.Policy = cfg.Kind.String()
	h.HotWriteLines = cfg.HotWriteLines
	h.ColdWriteLines = cfg.ColdWriteLines
	h.DRAMBudgetPages = cfg.DRAMBudgetPages
	h.WearFactor = cfg.WearFactor
	h.MaxGroupsPerQuantum = cfg.MaxGroupsPerQuantum
}

// PolicyConfig reconstructs the recorded policy configuration; Replay
// hands it to the replayed policy's Decide, so a replay prices and
// truncates decisions with the recorded knobs.
func (h Header) PolicyConfig() policy.Config {
	cfg := policy.Config{
		HotWriteLines:       h.HotWriteLines,
		ColdWriteLines:      h.ColdWriteLines,
		DRAMBudgetPages:     h.DRAMBudgetPages,
		WearFactor:          h.WearFactor,
		MaxGroupsPerQuantum: h.MaxGroupsPerQuantum,
	}
	for k := policy.Static; k < policy.NumKinds; k++ {
		if k.String() == h.Policy {
			cfg.Kind = k
			break
		}
	}
	return cfg.WithDefaults()
}

// Quantum is one decoded engine quantum: the view one process's
// safepoint presented, the actions the policy emitted (post-truncation,
// exactly the list the engine executed), and the per-action executed
// outcomes. Exec aligns with Actions index-by-index and may be shorter
// when the engine stopped the quantum early on frame exhaustion.
//
// This is the in-memory form; on the wire each quantum is a compact
// delta or keyframe record (see the package comment), and the Reader
// reconstructs the full View transparently.
type Quantum struct {
	Q       uint64
	Proc    string
	View    policy.View
	Actions []policy.Action
	Exec    []policy.Exec
	// Keyframe reports that this record carried its full view on the
	// wire rather than a delta against the previous quantum.
	Keyframe bool
}

// wireRecord is the v2 on-disk form of one quantum.
type wireRecord struct {
	Q    uint64 `json:"q"`
	Proc string `json:"proc,omitempty"`
	// Key marks a keyframe: G holds the complete view. Without it the
	// record is a delta: G holds changed/new groups, RM tombstones.
	Key  bool   `json:"key,omitempty"`
	DRAM uint64 `json:"dram,omitempty"`
	PCM  uint64 `json:"pcm,omitempty"`
	// G is the run-length-encoded group list (see encodeRuns).
	G [][]int64 `json:"g,omitempty"`
	// RM lists tombstoned group addresses, delta-encoded: the first
	// entry is absolute, later entries are deltas from the previous.
	RM []int64 `json:"rm,omitempty"`
	// A holds actions as [addr, from, to] triples; X the executed
	// outcomes as [moved, stall] pairs.
	A [][]int64   `json:"a,omitempty"`
	X [][]float64 `json:"x,omitempty"`
}

// Footer is the optional last line of a finished trace: its quantum
// count and an index of the keyframe boundaries. It is written by
// Recorder.Close; traces cut short (streams, crashes) simply lack it
// and remain fully readable front to back.
type Footer struct {
	// Footer carries the schema version and marks the line as the
	// footer (no quantum record has this field).
	Footer int `json:"footer"`
	// Quanta is the number of quantum records in the trace.
	Quanta int `json:"quanta"`
	// Boundaries holds one [recordIndex, byteOffset] pair per keyframe
	// boundary: record indexes 0, K, 2K, ... and the file offset of
	// that record's line.
	Boundaries [][2]int64 `json:"boundaries"`
}

// footerPrefix distinguishes the footer line; the marshaller emits the
// Footer field first because it is first in the struct.
var footerPrefix = []byte(`{"footer":`)

// Parse decodes one line as a footer. It fails on anything that is not
// a footer line of this schema version.
func (f *Footer) Parse(line []byte) error {
	if !bytes.HasPrefix(bytes.TrimSpace(line), footerPrefix) {
		return fmt.Errorf("%w: not a footer line", ErrCorrupt)
	}
	if err := json.Unmarshal(line, f); err != nil {
		return fmt.Errorf("%w: bad footer: %v", ErrCorrupt, err)
	}
	if f.Footer != Version {
		return fmt.Errorf("%w: footer is version %d, this reader reads only version %d",
			ErrVersion, f.Footer, Version)
	}
	return nil
}

// ExpandedSize estimates what the decoded quanta would cost serialized
// without the v2 codec — full views, no runs, no deltas (the v1
// density). It is the denominatorless half of the compression ratio
// the replay CLIs report: compressedBytes / ExpandedSize.
func ExpandedSize(h Header, quanta []Quantum) int {
	type fullRecord struct {
		Q       uint64          `json:"q"`
		Proc    string          `json:"proc,omitempty"`
		View    policy.View     `json:"view"`
		Actions []policy.Action `json:"actions,omitempty"`
		Exec    []policy.Exec   `json:"exec,omitempty"`
	}
	hline, _ := json.Marshal(h)
	total := len(hline) + 1
	for _, q := range quanta {
		line, err := json.Marshal(fullRecord{Q: q.Q, Proc: q.Proc, View: q.View,
			Actions: q.Actions, Exec: q.Exec})
		if err != nil {
			continue
		}
		total += len(line) + 1
	}
	return total
}

// payloadEqual reports equal group stats ignoring the address.
func payloadEqual(a, b policy.GroupStat) bool {
	return a.Node == b.Node && a.Pages == b.Pages &&
		a.WriteLines == b.WriteLines && a.ReadLines == b.ReadLines &&
		a.MaxWear == b.MaxWear
}

// encodeRuns run-length-encodes a group list. Each run is
//
//	[addrDelta, count, node, pages, writeLines, readLines, maxWear]
//
// with trailing zero fields trimmed (never below the first four).
// addrDelta is relative to the end of the previous run (previous run's
// last address + groupBytes; zero for adjacent runs) — the first run's
// delta is the absolute address. A run covers count groups at
// consecutive groupBytes-spaced addresses sharing one payload.
func encodeRuns(groups []policy.GroupStat, groupBytes uint64) [][]int64 {
	if len(groups) == 0 {
		return nil
	}
	gb := int64(groupBytes)
	runs := make([][]int64, 0, 8)
	prevEnd := int64(0)
	for i := 0; i < len(groups); {
		g := groups[i]
		j := i + 1
		for j < len(groups) && payloadEqual(groups[j], g) &&
			groups[j].Addr == groups[j-1].Addr+groupBytes {
			j++
		}
		run := []int64{int64(g.Addr) - prevEnd, int64(j - i), int64(g.Node),
			int64(g.Pages), int64(g.WriteLines), int64(g.ReadLines), int64(g.MaxWear)}
		for len(run) > 4 && run[len(run)-1] == 0 {
			run = run[:len(run)-1]
		}
		runs = append(runs, run)
		prevEnd = int64(groups[j-1].Addr) + gb
		i = j
	}
	return runs
}

// decodeRuns expands run-length-encoded groups. It inverts encodeRuns
// for the strictly address-ascending group lists the Recorder writes —
// views, and the changed groups of a delta — and rejects a list in any
// other order.
func decodeRuns(runs [][]int64, groupBytes uint64) ([]policy.GroupStat, error) {
	if len(runs) == 0 {
		return nil, nil
	}
	gb := int64(groupBytes)
	var groups []policy.GroupStat
	prevEnd := int64(0)
	for _, run := range runs {
		if len(run) < 4 || len(run) > 7 {
			return nil, fmt.Errorf("group run has %d fields, want 4..7", len(run))
		}
		count := run[1]
		if count <= 0 {
			return nil, fmt.Errorf("group run count %d", count)
		}
		at := func(i int) int64 {
			if i < len(run) {
				return run[i]
			}
			return 0
		}
		addr := prevEnd + run[0]
		for k := int64(0); k < count; k++ {
			a := uint64(addr + k*gb)
			if n := len(groups); n > 0 && a <= groups[n-1].Addr {
				return nil, fmt.Errorf("group address %#x does not ascend past %#x", a, groups[n-1].Addr)
			}
			groups = append(groups, policy.GroupStat{
				Addr:       a,
				Node:       int(run[2]),
				Pages:      int(run[3]),
				WriteLines: uint64(at(4)),
				ReadLines:  uint64(at(5)),
				MaxWear:    uint32(at(6)),
			})
		}
		prevEnd = addr + count*gb
	}
	return groups, nil
}

// encodeAddrs delta-encodes an ascending address list (first absolute,
// then deltas).
func encodeAddrs(addrs []uint64) []int64 {
	if len(addrs) == 0 {
		return nil
	}
	out := make([]int64, len(addrs))
	prev := int64(0)
	for i, a := range addrs {
		out[i] = int64(a) - prev
		prev = int64(a)
	}
	return out
}

// decodeAddrs inverts encodeAddrs, rejecting a list that is not
// strictly ascending.
func decodeAddrs(deltas []int64) ([]uint64, error) {
	if len(deltas) == 0 {
		return nil, nil
	}
	out := make([]uint64, len(deltas))
	prev := int64(0)
	for i, d := range deltas {
		prev += d
		out[i] = uint64(prev)
		if i > 0 && out[i] <= out[i-1] {
			return nil, fmt.Errorf("tombstone address %#x does not ascend past %#x", out[i], out[i-1])
		}
	}
	return out, nil
}

// encodeActions packs actions as [addr, from, to] triples.
func encodeActions(actions []policy.Action) [][]int64 {
	if len(actions) == 0 {
		return nil
	}
	out := make([][]int64, len(actions))
	for i, a := range actions {
		out[i] = []int64{int64(a.Addr), int64(a.From), int64(a.To)}
	}
	return out
}

// decodeActions inverts encodeActions.
func decodeActions(in [][]int64) ([]policy.Action, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]policy.Action, len(in))
	for i, t := range in {
		if len(t) != 3 {
			return nil, fmt.Errorf("action %d has %d fields, want 3", i, len(t))
		}
		out[i] = policy.Action{Addr: uint64(t[0]), From: int(t[1]), To: int(t[2])}
	}
	return out, nil
}

// encodeExec packs executed outcomes as [moved, stall] pairs.
func encodeExec(exec []policy.Exec) [][]float64 {
	if len(exec) == 0 {
		return nil
	}
	out := make([][]float64, len(exec))
	for i, e := range exec {
		out[i] = []float64{float64(e.Moved), e.Stall}
	}
	return out
}

// decodeExec inverts encodeExec.
func decodeExec(in [][]float64) ([]policy.Exec, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]policy.Exec, len(in))
	for i, p := range in {
		if len(p) != 2 {
			return nil, fmt.Errorf("exec %d has %d fields, want 2", i, len(p))
		}
		out[i] = policy.Exec{Moved: int(p[0]), Stall: p[1]}
	}
	return out, nil
}

// Recorder streams a compacted trace: the header at construction, one
// line per observed quantum (keyframe or delta against the same
// process's previous view), and — if Close is called — a footer line
// indexing the keyframe boundaries. It implements policy.Tap, so
// attaching it to an engine via SetTap records the run. Each record is
// written with a single Write call — a crash mid-append leaves a torn
// tail the Reader reports, never a silently mixed line.
//
// Write failures latch: the first error sticks, later quanta are
// dropped, and Err returns it so the run can surface a broken sink
// once instead of once per quantum. A view whose groups are not in
// strictly ascending address order (policy.View's contract, and the
// order the Reader enforces) latches an error the same way.
type Recorder struct {
	mu         sync.Mutex
	w          io.Writer
	interval   int
	groupBytes uint64
	quanta     uint64
	off        int64 // bytes written so far
	boundaries [][2]int64
	prev       map[string][]policy.GroupStat // last view per process
	lastIvl    map[string]int                // interval of each process's last record
	closed     bool
	err        error
}

// NewRecorder writes the header line and returns the recorder. The
// header's Version is stamped by the recorder, as are GroupBytes
// (heap.PageGroupBytes) and KeyframeInterval (DefaultKeyframeInterval)
// when the caller leaves them zero; callers fill the rest.
func NewRecorder(w io.Writer, h Header) (*Recorder, error) {
	h.Version = Version
	if h.GroupBytes == 0 {
		h.GroupBytes = heap.PageGroupBytes
	}
	if h.KeyframeInterval <= 0 {
		h.KeyframeInterval = DefaultKeyframeInterval
	}
	line, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding header: %w", err)
	}
	n, err := w.Write(append(line, '\n'))
	if err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Recorder{
		w:          w,
		interval:   h.KeyframeInterval,
		groupBytes: h.GroupBytes,
		off:        int64(n),
		prev:       map[string][]policy.GroupStat{},
		lastIvl:    map[string]int{},
	}, nil
}

// OnQuantum records one engine quantum; it implements policy.Tap.
func (r *Recorder) OnQuantum(proc string, v policy.View, actions []policy.Action, exec []policy.Exec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil || r.closed {
		return
	}
	for i := 1; i < len(v.Groups); i++ {
		if v.Groups[i].Addr <= v.Groups[i-1].Addr {
			r.err = fmt.Errorf("trace: quantum %d: view groups not in address order", v.Quantum)
			return
		}
	}

	idx := int(r.quanta)
	ivl := idx / r.interval
	last, seen := r.lastIvl[proc]
	keyframe := !seen || last != ivl

	rec := wireRecord{
		Q:    v.Quantum,
		Proc: proc,
		DRAM: v.DRAMPages,
		PCM:  v.PCMPages,
		A:    encodeActions(actions),
		X:    encodeExec(exec),
	}
	if keyframe {
		rec.Key = true
		rec.G = encodeRuns(v.Groups, r.groupBytes)
	} else {
		rec.G, rec.RM = diffViews(r.prev[proc], v.Groups, r.groupBytes)
	}

	line, err := json.Marshal(rec)
	if err != nil {
		r.err = fmt.Errorf("trace: encoding quantum %d: %w", v.Quantum, err)
		return
	}
	if idx%r.interval == 0 {
		r.boundaries = append(r.boundaries, [2]int64{int64(idx), r.off})
	}
	n, err := r.w.Write(append(line, '\n'))
	r.off += int64(n)
	if err != nil {
		r.err = fmt.Errorf("trace: writing quantum %d: %w", v.Quantum, err)
		return
	}
	r.lastIvl[proc] = ivl
	// Keep a private copy: the engine may reuse its view buffers.
	r.prev[proc] = append([]policy.GroupStat(nil), v.Groups...)
	r.quanta++
}

// diffViews computes the delta from prev to cur: run-encoded changed
// or new groups, and tombstones for groups no longer present. Both
// views are strictly address-ascending (OnQuantum rejects any other),
// so one merge pass finds both lists, each already in address order.
func diffViews(prev, cur []policy.GroupStat, groupBytes uint64) (g [][]int64, rm []int64) {
	var changed []policy.GroupStat
	var removed []uint64
	i := 0
	for _, c := range cur {
		for i < len(prev) && prev[i].Addr < c.Addr {
			removed = append(removed, prev[i].Addr)
			i++
		}
		if i < len(prev) && prev[i].Addr == c.Addr {
			if !payloadEqual(prev[i], c) {
				changed = append(changed, c)
			}
			i++
			continue
		}
		changed = append(changed, c)
	}
	for ; i < len(prev); i++ {
		removed = append(removed, prev[i].Addr)
	}
	return encodeRuns(changed, groupBytes), encodeAddrs(removed)
}

// Quanta returns the number of quantum records written so far.
func (r *Recorder) Quanta() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quanta
}

// Err returns the latched write error, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close finishes the trace by appending the footer index line. It does
// not close the underlying writer. Close is idempotent; a recorder
// with a latched write error skips the footer and returns that error
// (the trace is already torn — a footer would not mend it).
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.err
	}
	r.closed = true
	if r.err != nil {
		return r.err
	}
	f := Footer{Footer: Version, Quanta: int(r.quanta), Boundaries: r.boundaries}
	line, err := json.Marshal(f)
	if err != nil {
		r.err = fmt.Errorf("trace: encoding footer: %w", err)
		return r.err
	}
	n, werr := r.w.Write(append(line, '\n'))
	r.off += int64(n)
	if werr != nil {
		r.err = fmt.Errorf("trace: writing footer: %w", werr)
	}
	return r.err
}

// Reader decodes a trace stream: Header first, then Next per quantum
// record until io.EOF (a footer line, when present, also ends the
// stream cleanly and becomes available via Footer). Delta records are
// reconstructed into full views transparently. Corruption — a garbage
// line, an oversized line, a torn tail, a delta with no keyframe to
// chain from — surfaces as ErrCorrupt naming the 1-based line number.
// Because corruption may strand the tail of a delta chain, consumers
// that replay the prefix must stop at the last complete keyframe
// interval; Replay and DecodeAll do so automatically.
type Reader struct {
	br      *bufio.Reader
	line    int
	hdr     Header
	hdrDone bool
	records int
	prev    map[string][]policy.GroupStat
	lastIvl map[string]int
	footer  *Footer
	err     error
	sawEOF  bool
	maxLine int
}

// NewReader wraps an ndjson trace stream.
func NewReader(r io.Reader) *Reader {
	return &Reader{
		br:      bufio.NewReader(r),
		prev:    map[string][]policy.GroupStat{},
		lastIvl: map[string]int{},
		maxLine: MaxLineBytes,
	}
}

// readLine returns the next raw line including its trailing newline
// (or the unterminated tail of the stream), io.EOF at end of input.
// Lines longer than maxLine fail as ErrCorrupt without buffering the
// remainder.
func (r *Reader) readLine() ([]byte, error) {
	var buf []byte
	for {
		frag, err := r.br.ReadSlice('\n')
		buf = append(buf, frag...)
		if len(buf) > r.maxLine {
			return nil, fmt.Errorf("%w: line %d exceeds %d bytes", ErrCorrupt, r.line+1, r.maxLine)
		}
		switch err {
		case nil:
			return buf, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(buf) == 0 {
				return nil, io.EOF
			}
			return buf, nil
		default:
			return nil, fmt.Errorf("%w: reading line %d: %v", ErrCorrupt, r.line+1, err)
		}
	}
}

// next returns the next non-blank line (1-based numbering), io.EOF at
// a clean end. A final line without a trailing newline is returned
// as-is: if it parses it was a complete record, and if not the parse
// failure reports it as the torn tail it is.
func (r *Reader) next() ([]byte, error) {
	for {
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		r.line++
		if len(bytes.TrimSpace(line)) == 0 {
			continue // blank separator lines are tolerated, but numbered
		}
		return line, nil
	}
}

// Header reads and validates the trace header (idempotently).
func (r *Reader) Header() (Header, error) {
	if r.hdrDone {
		return r.hdr, r.err
	}
	r.hdrDone = true
	line, err := r.next()
	if err == io.EOF {
		r.err = fmt.Errorf("%w: empty trace (missing header)", ErrCorrupt)
		return Header{}, r.err
	}
	if err != nil {
		r.err = err
		return Header{}, r.err
	}
	if bytes.HasPrefix(line, footerPrefix) {
		r.err = fmt.Errorf("%w: line %d: footer where the header belongs", ErrCorrupt, r.line)
		return Header{}, r.err
	}
	var h Header
	if jerr := json.Unmarshal(line, &h); jerr != nil {
		r.err = fmt.Errorf("%w: line %d: bad header: %v", ErrCorrupt, r.line, jerr)
		return Header{}, r.err
	}
	if h.Version != Version {
		r.err = fmt.Errorf("%w: trace is version %d, this reader reads only version %d",
			ErrVersion, h.Version, Version)
		return Header{}, r.err
	}
	if h.GroupBytes == 0 || h.KeyframeInterval <= 0 {
		r.err = fmt.Errorf("%w: line %d: v2 header missing groupBytes/keyframeInterval", ErrCorrupt, r.line)
		return Header{}, r.err
	}
	r.hdr = h
	return h, nil
}

// Next returns the next quantum record with its view fully
// reconstructed, io.EOF at a clean end of trace (including at the
// footer), or ErrCorrupt (with the line number) at a mangled line. The
// first error latches: further calls keep returning it.
func (r *Reader) Next() (Quantum, error) {
	if !r.hdrDone {
		if _, err := r.Header(); err != nil {
			return Quantum{}, err
		}
	}
	if r.err != nil {
		return Quantum{}, r.err
	}
	if r.sawEOF {
		return Quantum{}, io.EOF
	}
	line, err := r.next()
	if err == io.EOF {
		r.sawEOF = true
		return Quantum{}, io.EOF
	}
	if err != nil {
		r.err = err
		return Quantum{}, r.err
	}
	if bytes.HasPrefix(line, footerPrefix) {
		var f Footer
		if jerr := json.Unmarshal(line, &f); jerr != nil {
			r.err = fmt.Errorf("%w: line %d: bad footer: %v", ErrCorrupt, r.line, jerr)
			return Quantum{}, r.err
		}
		r.footer = &f
		r.sawEOF = true
		return Quantum{}, io.EOF
	}
	var rec wireRecord
	if jerr := json.Unmarshal(line, &rec); jerr != nil {
		r.err = fmt.Errorf("%w: line %d: bad quantum record: %v", ErrCorrupt, r.line, jerr)
		return Quantum{}, r.err
	}
	q, derr := r.reconstruct(rec)
	if derr != nil {
		r.err = fmt.Errorf("%w: line %d: %v", ErrCorrupt, r.line, derr)
		return Quantum{}, r.err
	}
	r.records++
	return q, nil
}

// reconstruct turns a wire record into a full Quantum, maintaining the
// per-process delta chains and enforcing the keyframe cadence: every
// process's first record in a keyframe interval must be a keyframe. A
// delta chain therefore never crosses an interval boundary, which
// rejects hostile input that chains deltas indefinitely and confines
// a corruption to the interval it lands in.
func (r *Reader) reconstruct(rec wireRecord) (Quantum, error) {
	ivl := r.records / r.hdr.KeyframeInterval
	last, seen := r.lastIvl[rec.Proc]
	if !rec.Key && (!seen || last != ivl) {
		return Quantum{}, fmt.Errorf("delta record for %q with no keyframe in its interval", rec.Proc)
	}

	var groups []policy.GroupStat
	if rec.Key {
		g, err := decodeRuns(rec.G, r.hdr.GroupBytes)
		if err != nil {
			return Quantum{}, err
		}
		groups = g
	} else {
		changed, err := decodeRuns(rec.G, r.hdr.GroupBytes)
		if err != nil {
			return Quantum{}, err
		}
		removed, err := decodeAddrs(rec.RM)
		if err != nil {
			return Quantum{}, err
		}
		groups = applyDelta(r.prev[rec.Proc], changed, removed)
	}
	r.prev[rec.Proc] = groups
	r.lastIvl[rec.Proc] = ivl

	actions, err := decodeActions(rec.A)
	if err != nil {
		return Quantum{}, err
	}
	exec, err := decodeExec(rec.X)
	if err != nil {
		return Quantum{}, err
	}
	return Quantum{
		Q:    rec.Q,
		Proc: rec.Proc,
		View: policy.View{
			Groups:    groups,
			DRAMPages: rec.DRAM,
			PCMPages:  rec.PCM,
			Quantum:   rec.Q,
		},
		Actions:  actions,
		Exec:     exec,
		Keyframe: rec.Key,
	}, nil
}

// applyDelta merges changed groups and tombstones into the previous
// view, returning a fresh address-sorted group list. All three inputs
// are strictly address-ascending (the decoders enforce it), so one
// linear pass merges them: a changed group replaces or joins the
// previous one at its address, and a tombstone drops whatever the
// merge holds there — tombstones naming no group are ignored.
func applyDelta(prev, changed []policy.GroupStat, removed []uint64) []policy.GroupStat {
	if len(changed) == 0 && len(removed) == 0 {
		return prev
	}
	out := make([]policy.GroupStat, 0, len(prev)+len(changed))
	i, j, k := 0, 0, 0
	for i < len(prev) || j < len(changed) {
		var g policy.GroupStat
		switch {
		case j == len(changed) || i < len(prev) && prev[i].Addr < changed[j].Addr:
			g = prev[i]
			i++
		default:
			if i < len(prev) && prev[i].Addr == changed[j].Addr {
				i++
			}
			g = changed[j]
			j++
		}
		for k < len(removed) && removed[k] < g.Addr {
			k++
		}
		if k < len(removed) && removed[k] == g.Addr {
			continue
		}
		out = append(out, g)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Line returns the number of the last line read (1-based; 0 before any
// read), which for a just-returned error is the offending line.
func (r *Reader) Line() int { return r.line }

// Footer returns the trace's footer index if the stream ended with
// one. Only meaningful after Next has returned io.EOF.
func (r *Reader) Footer() (Footer, bool) {
	if r.footer == nil {
		return Footer{}, false
	}
	return *r.footer, true
}
