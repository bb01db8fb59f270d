// Package library is the server-side home for compacted traces: a
// directory of finished v2 traces keyed by spec neighborhood.
//
// The ROADMAP's estimate-first serving tier wants one recorded trace
// per spec *neighborhood* — the canonical spec key with the policy
// segment stripped — because a trace records complete views (window
// writes, reads, wear: whatever any policy might consume), so one
// recording prices every policy and knob configuration over the same
// run through replay. A server holding a library answers `GET
// /v1/trace` from disk instead of re-emulating, and prices autotune
// grids against library traces in milliseconds. Readers take a trace
// whole (Trace.Bytes); the footer a resident trace must end with only
// proves the recording finished.
package library

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// ErrNotFound reports that no library trace covers the requested spec
// neighborhood.
var ErrNotFound = errors.New("trace library: no trace for spec neighborhood")

// traceSuffix names library files. The payload is an ordinary v2
// trace; the library adds nothing to the format.
const traceSuffix = ".trace.ndjson"

// baseSuffix names the optional sidecar next to a trace: an opaque
// JSON blob the ingester chose to file with it (the estimate tier
// stores the recorded run's exact Result there, so a resident trace
// can price policy variants as deltas against a measured baseline).
const baseSuffix = ".base.json"

// NeighborhoodKey maps a canonical spec key to its library
// neighborhood by dropping the policy segment. Policy is the one
// dimension replay already covers — a trace records complete views, so
// any policy/knob combination replays against it — which makes
// "same spec, different policy" one library entry, not many.
func NeighborhoodKey(specKey string) string {
	parts := strings.Split(specKey, ";")
	kept := parts[:0]
	for _, p := range parts {
		if strings.HasPrefix(p, "policy=") {
			continue
		}
		kept = append(kept, p)
	}
	return strings.Join(kept, ";")
}

// Library is a directory of compacted traces, one per spec
// neighborhood. All methods are safe for concurrent use.
type Library struct {
	mu  sync.Mutex
	dir string
	// byHood maps neighborhood key -> filename (within dir).
	byHood map[string]string
	// gen counts mutations (Put, Evict). Readers holding decoded
	// copies of library traces — the estimate tier's replay cache —
	// compare generations instead of re-reading files to notice that a
	// resident trace changed under them.
	gen atomic.Uint64
}

// Open opens (creating if needed) a library directory and indexes the
// traces already in it by reading each file's header line. A file that
// does not parse as a v2 trace header fails Open — a library with
// unreadable entries is a deployment error worth surfacing, not
// skipping.
func Open(dir string) (*Library, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace library: %w", err)
	}
	l := &Library{dir: dir, byHood: map[string]string{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("trace library: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), traceSuffix) {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("trace library: %w", err)
		}
		hdr, herr := trace.NewReader(f).Header()
		f.Close()
		if herr != nil {
			return nil, fmt.Errorf("trace library: %s: %w", e.Name(), herr)
		}
		if hdr.Key == "" {
			return nil, fmt.Errorf("trace library: %s: trace has no spec key", e.Name())
		}
		l.byHood[NeighborhoodKey(hdr.Key)] = e.Name()
	}
	return l, nil
}

// Dir returns the library's directory.
func (l *Library) Dir() string { return l.dir }

// Len returns the number of resident traces.
func (l *Library) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byHood)
}

// Neighborhoods returns the resident neighborhood keys, sorted.
func (l *Library) Neighborhoods() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.byHood))
	for k := range l.byHood {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Put ingests one complete v2 trace, replacing any previous trace for
// its neighborhood, and returns the neighborhood key. The trace is
// fully validated first — header with a spec key, every record
// decodable, a footer whose quantum count matches — because the
// library's contract is that resident traces serve reads without
// surprises; a torn or footerless stream belongs in a file, not here.
// The write is atomic (temp file + rename), so a crash mid-Put never
// leaves a half-written library entry.
func (l *Library) Put(data []byte) (string, error) { return l.put(data, nil) }

// PutWithBase is Put with a sidecar: base is an opaque JSON blob filed
// next to the trace and returned by Trace.Base on later Gets. The
// estimate tier stores the recorded run's exact Result here — the
// measured baseline its replay deltas price policy variants against. A
// plain Put (or a nil base) removes any previous sidecar, so a trace
// and its baseline can never drift apart silently.
func (l *Library) PutWithBase(data, base []byte) (string, error) { return l.put(data, base) }

func (l *Library) put(data, base []byte) (string, error) {
	hdr, quanta, err := trace.DecodeAll(bytes.NewReader(data))
	if err != nil {
		return "", fmt.Errorf("trace library: rejecting trace: %w", err)
	}
	if hdr.Key == "" {
		return "", errors.New("trace library: rejecting trace with no spec key (record through the platform, not below it)")
	}
	foot, ok := footerOf(data)
	if !ok {
		return "", errors.New("trace library: rejecting trace without a footer index (finish it with Recorder.Close)")
	}
	if foot.Quanta != len(quanta) {
		return "", fmt.Errorf("trace library: footer says %d quanta, trace holds %d", foot.Quanta, len(quanta))
	}
	hood := NeighborhoodKey(hdr.Key)
	name := fileName(hood)

	l.mu.Lock()
	defer l.mu.Unlock()
	if err := writeAtomic(l.dir, filepath.Join(l.dir, name), data); err != nil {
		return "", err
	}
	basePath := filepath.Join(l.dir, baseName(hood))
	if base != nil {
		if err := writeAtomic(l.dir, basePath, base); err != nil {
			return "", err
		}
	} else if err := os.Remove(basePath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "", fmt.Errorf("trace library: removing stale base: %w", err)
	}
	l.byHood[hood] = name
	l.gen.Add(1)
	return hood, nil
}

// writeAtomic lands data at path via temp file + rename, so a crash
// mid-write never leaves a half-written library entry.
func writeAtomic(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "put-*")
	if err != nil {
		return fmt.Errorf("trace library: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("trace library: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("trace library: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("trace library: %w", err)
	}
	return nil
}

// Evict removes the trace (and any base sidecar) covering the spec
// key's neighborhood — the drift validator's lever when a resident
// trace's estimates no longer match live runs. ErrNotFound when the
// library has no trace for it. Concurrent Gets that already loaded the
// bytes keep serving their in-memory copy; Gets that lose the race to
// the file removal report ErrNotFound, never a torn read.
func (l *Library) Evict(specKey string) error {
	hood := NeighborhoodKey(specKey)
	l.mu.Lock()
	defer l.mu.Unlock()
	name, ok := l.byHood[hood]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, hood)
	}
	delete(l.byHood, hood)
	l.gen.Add(1)
	if err := os.Remove(filepath.Join(l.dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("trace library: evicting %s: %w", hood, err)
	}
	if err := os.Remove(filepath.Join(l.dir, baseName(hood))); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("trace library: evicting %s base: %w", hood, err)
	}
	return nil
}

// Gen returns the library's mutation generation: it changes whenever a
// Put or Evict lands. Callers caching decoded traces revalidate
// against it instead of re-reading files.
func (l *Library) Gen() uint64 { return l.gen.Load() }

// Get loads the trace covering a spec key's neighborhood (a full
// canonical key and a bare neighborhood key both work — the policy
// segment, if present, is ignored). ErrNotFound when the library has
// no trace for it.
func (l *Library) Get(specKey string) (*Trace, error) {
	hood := NeighborhoodKey(specKey)
	l.mu.Lock()
	name, ok := l.byHood[hood]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, hood)
	}
	data, err := os.ReadFile(filepath.Join(l.dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		// Lost the race to a concurrent Evict between the index lookup
		// and the read: to the caller that is a miss, not an I/O error.
		return nil, fmt.Errorf("%w: %s (evicted)", ErrNotFound, hood)
	}
	if err != nil {
		return nil, fmt.Errorf("trace library: %w", err)
	}
	tr, err := Load(data)
	if err != nil {
		return nil, err
	}
	if base, berr := os.ReadFile(filepath.Join(l.dir, baseName(hood))); berr == nil {
		tr.base = base
	} else if !errors.Is(berr, fs.ErrNotExist) {
		return nil, fmt.Errorf("trace library: reading base: %w", berr)
	}
	return tr, nil
}

// Has reports whether a trace covers the spec key's neighborhood.
func (l *Library) Has(specKey string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.byHood[NeighborhoodKey(specKey)]
	return ok
}

// fileName derives the on-disk name for a neighborhood: a digest,
// because canonical keys hold characters filesystems argue about.
func fileName(hood string) string {
	sum := sha256.Sum256([]byte(hood))
	return hex.EncodeToString(sum[:12]) + traceSuffix
}

// baseName derives the sidecar name paired with fileName(hood).
func baseName(hood string) string {
	sum := sha256.Sum256([]byte(hood))
	return hex.EncodeToString(sum[:12]) + baseSuffix
}

// footerOf parses the footer from a complete in-memory trace: the last
// non-empty line, if it is a footer line.
func footerOf(data []byte) (trace.Footer, bool) {
	trimmed := bytes.TrimRight(data, "\n")
	i := bytes.LastIndexByte(trimmed, '\n')
	last := trimmed[i+1:]
	var f trace.Footer
	if err := f.Parse(last); err != nil {
		return trace.Footer{}, false
	}
	return f, true
}

// Trace is one resident library trace, held in memory (the point of
// the v2 codec is that this is cheap).
type Trace struct {
	data []byte
	base []byte // optional sidecar blob (nil when none was filed)
}

// Load wraps a complete, footer-terminated v2 trace held in memory. It
// validates only the header and footer — use Library.Put for full
// validation at ingest time.
func Load(data []byte) (*Trace, error) {
	if _, err := trace.NewReader(bytes.NewReader(data)).Header(); err != nil {
		return nil, err
	}
	if _, ok := footerOf(data); !ok {
		return nil, errors.New("trace library: trace has no footer index")
	}
	return &Trace{data: data}, nil
}

// Bytes returns the raw trace, suitable for streaming to a client or
// feeding to any trace reader.
func (t *Trace) Bytes() []byte { return t.data }

// Base returns the sidecar blob filed by PutWithBase, nil when the
// trace was ingested without one.
func (t *Trace) Base() []byte { return t.base }
