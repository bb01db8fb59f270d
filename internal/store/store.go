// Package store is the platform's durable result tier: an
// append-only, content-addressed store of experiment Results keyed by
// the Platform's canonical spec keys.
//
// On disk a store is a directory of JSONL segment files
// (seg-000001.jsonl, seg-000002.jsonl, ...). Each line is one Record:
// the canonical key, a SHA-256 content address over the (key, spec,
// result) payload, the RunSpec that produced it, and the Result
// itself. Records are immutable; a re-Put of an existing key with
// identical content is a no-op, and the last record wins when segments
// disagree (which only happens across Compact generations).
//
// Open replays every segment into an in-memory index. Recovery is
// tolerant: a torn or truncated tail line (the signature of a crash
// mid-append) is dropped, as is any record whose content address does
// not match its payload, and appends continue in a fresh segment so
// corrupt bytes are never extended. Compact rewrites the live index
// into a single new segment and removes the old generation.
//
// All methods are safe for concurrent use.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// RecordVersion is the version stamped into every record this build
// writes. History:
//
//	0 (implicit)  no version field. Pre-placement-engine records also
//	              lack the ";policy=" key segment; replay migrates them
//	              (see replay) when their content address still
//	              verifies, and drops them otherwise.
//	2             the current schema: versioned envelope around the
//	              policy-aware canonical key.
//
// Records from a *newer* version than the running build are skipped on
// load (counted in Stats.SkippedVersion, warned once per Open) rather
// than guessed at: a rolling downgrade must not misread — or worse,
// rewrite — records it does not understand.
const RecordVersion = 2

// Record is one stored experiment: the JSON schema persisted in the
// segment files and served by the hybridserved HTTP API. Changing it
// changes the on-disk and wire format — the golden-file tests freeze
// it.
type Record struct {
	// V is the record-format version (RecordVersion at write time). It
	// is an envelope field: Sum does not cover it, so stamping a
	// migrated record does not change its content address.
	V int `json:"v"`
	// Key is the Platform's canonical spec key: the full effective
	// configuration plus the spec, so equal keys mean bit-identical
	// Results.
	Key string `json:"key"`
	// Sum is the hex SHA-256 over the canonical (key, spec, result)
	// payload — the record's content address, verified on load.
	Sum string `json:"sum"`
	// Spec is the experiment that produced the result.
	Spec core.RunSpec `json:"spec"`
	// Result is the measured iteration's outcome.
	Result core.Result `json:"result"`
}

// payload is the content that Sum addresses.
type payload struct {
	Key    string       `json:"key"`
	Spec   core.RunSpec `json:"spec"`
	Result core.Result  `json:"result"`
}

// Sum computes the content address of a (key, spec, result) payload.
func Sum(key string, spec core.RunSpec, res core.Result) (string, error) {
	b, err := json.Marshal(payload{Key: key, Spec: spec, Result: res})
	if err != nil {
		return "", fmt.Errorf("store: hashing record: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// Stats is a snapshot of the store's state and activity.
type Stats struct {
	// Records is the number of live keys in the index.
	Records int
	// Segments is the number of segment files on disk.
	Segments int
	// Appends counts records written since Open.
	Appends uint64
	// Dropped counts records discarded during recovery: torn tail
	// lines plus content-address mismatches.
	Dropped int
	// Migrated counts legacy (pre-versioning) records rewritten to the
	// current schema during recovery.
	Migrated int
	// SkippedVersion counts records from a newer RecordVersion than
	// this build understands, left on disk but not loaded.
	SkippedVersion int
	// Bytes is the total size of all segment files.
	Bytes int64
	// LoadSeconds is how long Open spent replaying segments into the
	// index (0 until the first non-shared Open completes).
	LoadSeconds float64
}

// Store is an open result store. Create one with Open.
type Store struct {
	dir string // absolute

	mu       sync.RWMutex
	refs     int // Opens minus Closes; the file closes at zero
	index    map[string]Record
	seg      *os.File // active segment, opened for append
	segPath  string
	segments []string // all segment paths, oldest first
	nextID   int
	appends  uint64
	dropped  int
	migrated int
	skippedV int
	// skippedLines holds newer-version records verbatim so Compact can
	// carry them into the next generation untouched: a downgrade must
	// not destroy data it cannot read.
	skippedLines [][]byte
	closed       bool
	loadSeconds  float64
	appendObs    func(seconds float64)
}

// SetAppendObserver installs a callback receiving the elapsed seconds
// of every successful segment append. Stores are deduplicated per
// directory within the process, so the observer is per-instance state
// shared by everything holding this directory open; the last setter
// wins.
func (s *Store) SetAppendObserver(fn func(seconds float64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendObs = fn
}

const segPrefix = "seg-"

// segName formats the segment file name for an id.
func segName(id int) string { return fmt.Sprintf("%s%06d.jsonl", segPrefix, id) }

// registry deduplicates Stores per directory within the process:
// concurrent writers (two platforms on one -store dir) share one
// index and one active segment, so one instance's Compact cannot
// delete a segment another instance is still appending to.
// Concurrent *writing* from separate processes is unsupported.
var (
	registryMu sync.Mutex
	registry   = map[string]*Store{}
)

// Open opens (creating if necessary) the store rooted at dir and
// replays its segments into memory. Opening a directory this process
// already has open returns the same shared Store; each Open is
// balanced by Close, and the last Close releases the files.
func Open(dir string) (*Store, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if s, ok := registry[abs]; ok {
		s.mu.Lock()
		s.refs++
		s.mu.Unlock()
		return s, nil
	}
	s, err := openDir(abs)
	if err != nil {
		return nil, err
	}
	registry[abs] = s
	return s, nil
}

// openDir builds a fresh Store for an absolute directory.
func openDir(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), segPrefix) && strings.HasSuffix(e.Name(), ".jsonl") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)

	s := &Store{dir: dir, refs: 1, index: map[string]Record{}, segments: names, nextID: 1}
	loadStart := time.Now()
	cleanTail := true
	for i, name := range names {
		if id, ok := segID(name); ok && id >= s.nextID {
			s.nextID = id + 1
		}
		clean, err := s.replay(name)
		if err != nil {
			return nil, err
		}
		if i == len(names)-1 {
			cleanTail = clean
		}
	}
	s.loadSeconds = time.Since(loadStart).Seconds()

	if s.migrated > 0 || s.skippedV > 0 {
		// One counted line per Open, not per record: a large legacy
		// store migrating on first boot should not scroll the log.
		fmt.Fprintf(os.Stderr, "store: %s: migrated %d legacy record(s), skipped %d newer-version record(s)\n",
			dir, s.migrated, s.skippedV)
	}

	// Reuse the last segment only when it ended cleanly; after a torn
	// tail, appends go to a fresh segment so the corrupt bytes are
	// never extended (the store is append-only — old segments are not
	// rewritten outside Compact).
	if n := len(names); n > 0 && cleanTail {
		s.segPath = names[n-1]
	} else {
		s.segPath = filepath.Join(dir, segName(s.nextID))
		s.nextID++
	}
	if err := s.openSegment(); err != nil {
		return nil, err
	}
	return s, nil
}

// segID parses the numeric id out of a segment path.
func segID(path string) (int, bool) {
	base := strings.TrimSuffix(filepath.Base(path), ".jsonl")
	var id int
	if _, err := fmt.Sscanf(base, segPrefix+"%d", &id); err != nil {
		return 0, false
	}
	return id, true
}

// openSegment opens the active segment for appending, registering it
// in the segment list if new. On failure s.seg is nil; Put retries the
// open, so a transient failure (ENOSPC, EMFILE) does not wedge the
// store for the rest of the process.
func (s *Store) openSegment() error {
	s.seg = nil
	f, err := os.OpenFile(s.segPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.seg = f
	found := false
	for _, p := range s.segments {
		if p == s.segPath {
			found = true
			break
		}
	}
	if !found {
		s.segments = append(s.segments, s.segPath)
	}
	return nil
}

// replay loads one segment into the index. It returns whether the
// segment ended cleanly (every line parsed and the file ends in a
// newline); undecodable or mis-addressed lines are dropped and
// counted.
func (s *Store) replay(path string) (clean bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	clean = true
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			// No trailing newline: a torn final append.
			data = nil
			clean = false
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil {
			s.dropped++
			clean = false
			continue
		}
		if rec.V > RecordVersion {
			// A newer build wrote this; keep it byte-for-byte (so
			// Compact preserves it) but never serve it — its schema is
			// not ours to interpret.
			s.skippedV++
			s.skippedLines = append(s.skippedLines, append([]byte(nil), line...))
			continue
		}
		if rec.V == 0 && legacyKey(rec.Key) {
			// A pre-versioning, pre-placement-engine record: its key
			// predates the ";policy=" segment. Verify its content
			// address as written, then rewrite the key to the modern
			// form (those runs executed under the static policy, the
			// only one that existed) and re-address it. Unverifiable
			// legacy lines are corruption, same as any other segment.
			sum, err := Sum(rec.Key, rec.Spec, rec.Result)
			if err != nil || sum != rec.Sum {
				s.dropped++
				clean = false
				continue
			}
			rec.Key = strings.Replace(rec.Key, ";app=", ";policy=static;app=", 1)
			if rec.Sum, err = Sum(rec.Key, rec.Spec, rec.Result); err != nil {
				s.dropped++
				clean = false
				continue
			}
			rec.V = RecordVersion
			s.migrated++
			s.index[rec.Key] = rec
			continue
		}
		sum, err := Sum(rec.Key, rec.Spec, rec.Result)
		if err != nil || sum != rec.Sum || rec.Key == "" {
			s.dropped++
			clean = false
			continue
		}
		// Records that verify are current content under any version up
		// to ours; stamp so Compact rewrites them at RecordVersion.
		rec.V = RecordVersion
		s.index[rec.Key] = rec
	}
	return clean, nil
}

// legacyKey recognizes a pre-placement-engine canonical key: the
// platform key format, but without the ";policy=" segment the engine
// added.
func legacyKey(key string) bool {
	return strings.HasPrefix(key, "mode=") &&
		strings.Contains(key, ";app=") &&
		!strings.Contains(key, ";policy=")
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Get returns the record for a canonical key.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.index[key]
	return rec, ok
}

// Put appends a record for key. Re-putting an identical record is a
// no-op; re-putting a key with different content overwrites it in the
// index (the segment keeps both, Compact drops the shadowed one).
func (s *Store) Put(key string, spec core.RunSpec, res core.Result) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	sum, err := Sum(key, spec, res)
	if err != nil {
		return err
	}
	rec := Record{V: RecordVersion, Key: key, Sum: sum, Spec: spec, Result: res}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if old, ok := s.index[key]; ok && old.Sum == sum {
		return nil
	}
	if s.seg == nil {
		// A previous Compact or Open failed to open the active
		// segment; retry rather than staying wedged.
		if err := s.openSegment(); err != nil {
			return err
		}
	}
	// One Write call per record: the line either lands whole or shows
	// up as a torn tail that recovery drops.
	var t0 time.Time
	if s.appendObs != nil {
		t0 = time.Now()
	}
	if _, err := s.seg.Write(line); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	if s.appendObs != nil {
		s.appendObs(time.Since(t0).Seconds())
	}
	s.index[key] = rec
	s.appends++
	return nil
}

// List returns the live records whose key passes the filter (nil
// matches all), sorted by key for deterministic output.
func (s *Store) List(match func(Record) bool) []Record {
	s.mu.RLock()
	recs := make([]Record, 0, len(s.index))
	for _, rec := range s.index {
		if match == nil || match(rec) {
			recs = append(recs, rec)
		}
	}
	s.mu.RUnlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	return recs
}

// Stats returns a snapshot of the store.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Records:        len(s.index),
		Segments:       len(s.segments),
		Appends:        s.appends,
		Dropped:        s.dropped,
		Migrated:       s.migrated,
		SkippedVersion: s.skippedV,
		LoadSeconds:    s.loadSeconds,
	}
	for _, p := range s.segments {
		if fi, err := os.Stat(p); err == nil {
			st.Bytes += fi.Size()
		}
	}
	return st
}

// Compact rewrites the live index into a single fresh segment and
// removes the previous generation. The new segment is written to a
// temporary file, synced, and renamed before any old segment is
// deleted, so a crash at any point leaves a recoverable store.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}

	newPath := filepath.Join(s.dir, segName(s.nextID))
	tmp, err := os.CreateTemp(s.dir, "compact-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())

	w := bufio.NewWriter(tmp)
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line, err := json.Marshal(s.index[k])
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: encoding record: %w", err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			tmp.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	// Newer-version records ride along verbatim: this build cannot read
	// them, so it must not lose them either.
	for _, line := range s.skippedLines {
		if _, err := w.Write(append(line, '\n')); err != nil {
			tmp.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), newPath); err != nil {
		return fmt.Errorf("store: %w", err)
	}

	// The compacted generation is durable; retire the old one.
	old := s.segments
	if s.seg != nil {
		s.seg.Close()
	}
	for _, p := range old {
		if p != newPath {
			os.Remove(p)
		}
	}
	s.segments = []string{newPath}
	s.nextID++
	// Appends resume in a segment after the compacted one, keeping
	// compacted segments immutable.
	s.segPath = filepath.Join(s.dir, segName(s.nextID))
	s.nextID++
	return s.openSegment()
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.seg == nil {
		return nil
	}
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close balances one Open. The last Close syncs and closes the files;
// after it, further Puts fail and Gets keep serving the in-memory
// index.
func (s *Store) Close() error {
	registryMu.Lock()
	defer registryMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.refs--; s.refs > 0 {
		return nil
	}
	delete(registry, s.dir)
	s.closed = true
	if s.seg == nil {
		return nil
	}
	if err := s.seg.Sync(); err != nil {
		s.seg.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := s.seg.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
