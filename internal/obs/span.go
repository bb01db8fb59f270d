package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SpanContext identifies a span within a trace, in W3C trace-context
// terms: a 32-hex-digit trace id and a 16-hex-digit span id.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether both ids have the right shape.
func (sc SpanContext) Valid() bool {
	return isHex(sc.TraceID, 32) && isHex(sc.SpanID, 16) &&
		sc.TraceID != zeroTrace && sc.SpanID != zeroSpan
}

const (
	zeroTrace = "00000000000000000000000000000000"
	zeroSpan  = "0000000000000000"
)

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set). Empty string if invalid.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a traceparent header value. It accepts any
// version except ff and ignores trailing fields, per the spec's
// forward-compatibility rules.
func ParseTraceparent(s string) (SpanContext, bool) {
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	ver, trace, span := s[0:2], s[3:35], s[36:52]
	if !isHex(ver, 2) || ver == "ff" {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: trace, SpanID: span}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SpanRecord is the ndjson wire form of a finished span, as written to
// the sink and streamed from GET /v1/spans.
type SpanRecord struct {
	Trace  string            `json:"trace"`
	Span   string            `json:"span"`
	Parent string            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Node   string            `json:"node,omitempty"`
	Start  int64             `json:"startUnixNano"`
	DurNs  int64             `json:"durNs"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Tracer records spans into a bounded in-memory ring (backing the
// /v1/spans endpoint) and, optionally, an ndjson sink. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Tracer struct {
	node string

	mu      sync.Mutex
	sink    io.Writer
	sinkErr error // first sink write error; latched, stops the sink
	ring    []SpanRecord
	head    int // next write position
	n       int // live records in ring
}

// TracerOption configures a Tracer.
type TracerOption func(*Tracer)

// WithSpanSink streams every finished span to w as one JSON object per
// line. A nil w is ignored. The first write error disables the sink.
func WithSpanSink(w io.Writer) TracerOption {
	return func(t *Tracer) { t.sink = w }
}

// WithRingSize bounds the in-memory span buffer (default 1024).
func WithRingSize(n int) TracerOption {
	return func(t *Tracer) {
		if n > 0 {
			t.ring = make([]SpanRecord, n)
		}
	}
}

// NewTracer returns a tracer stamping node onto every span.
func NewTracer(node string, opts ...TracerOption) *Tracer {
	t := &Tracer{node: node, ring: make([]SpanRecord, 1024)}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Span is an in-progress operation. Created by Tracer.Start/StartSpan,
// finished by End. Methods are no-ops on a nil receiver.
type Span struct {
	t     *Tracer
	rec   SpanRecord
	start time.Time
	mu    sync.Mutex
	done  bool
}

// Start begins a span named name, parented to the span or remote
// context carried by ctx (a fresh trace if there is neither), and
// returns a derived context carrying the new span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := t.StartSpan(SpanContextFrom(ctx), name)
	return ContextWithSpan(ctx, sp), sp
}

// StartSpan begins a span under parent (a fresh trace if parent is
// invalid). It is the context-free entry point for layers, like the
// emulator core, that thread SpanContext explicitly.
func (t *Tracer) StartSpan(parent SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{
		t:     t,
		start: time.Now(),
		rec: SpanRecord{
			Span: newID(8),
			Name: name,
			Node: t.node,
		},
	}
	if parent.Valid() {
		sp.rec.Trace = parent.TraceID
		sp.rec.Parent = parent.SpanID
	} else {
		sp.rec.Trace = newID(16)
	}
	sp.rec.Start = sp.start.UnixNano()
	return sp
}

// Emit records an already-finished span in one call — used for
// high-rate events like policy quanta where allocating a live Span per
// event is wasteful. Returns the emitted span's context.
func (t *Tracer) Emit(parent SpanContext, name string, start time.Time, d time.Duration, attrs map[string]string) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	rec := SpanRecord{
		Span:  newID(8),
		Name:  name,
		Node:  t.node,
		Start: start.UnixNano(),
		DurNs: d.Nanoseconds(),
		Attrs: attrs,
	}
	if parent.Valid() {
		rec.Trace = parent.TraceID
		rec.Parent = parent.SpanID
	} else {
		rec.Trace = newID(16)
	}
	t.record(rec)
	return SpanContext{TraceID: rec.Trace, SpanID: rec.Span}
}

// Recent returns up to limit most-recent finished spans, oldest first.
// limit <= 0 returns everything in the ring.
func (t *Tracer) Recent(limit int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]SpanRecord, 0, n)
	for i := n; i > 0; i-- {
		out = append(out, t.ring[(t.head-i+len(t.ring))%len(t.ring)])
	}
	return out
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring[t.head] = rec
	t.head = (t.head + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	if t.sink != nil && t.sinkErr == nil {
		line, err := json.Marshal(rec)
		if err == nil {
			line = append(line, '\n')
			_, err = t.sink.Write(line)
		}
		if err != nil {
			t.sinkErr = err
		}
	}
}

// Context returns the span's identity (zero on a nil receiver).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.rec.Trace, SpanID: s.rec.Span}
}

// SetAttr attaches a string attribute. No-op after End.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]string)
	}
	s.rec.Attrs[k] = v
}

// End finishes the span and records it. Subsequent calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.rec.DurNs = time.Since(s.start).Nanoseconds()
	rec := s.rec
	s.mu.Unlock()
	s.t.record(rec)
}

type ctxKey int

const (
	spanKey ctxKey = iota
	remoteKey
)

// ContextWithSpan returns ctx carrying sp (ctx unchanged if sp is nil).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, sp)
}

// ContextWithRemote returns ctx carrying a remote parent context, as
// extracted from an incoming traceparent header. A locally started
// span takes precedence over the remote seed.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, sc)
}

// SpanContextFrom returns the identity of the innermost span carried
// by ctx — a live local span first, else a remote seed, else zero.
func SpanContextFrom(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	if sp, ok := ctx.Value(spanKey).(*Span); ok {
		return sp.Context()
	}
	if sc, ok := ctx.Value(remoteKey).(SpanContext); ok {
		return sc
	}
	return SpanContext{}
}

// newID returns 2n lowercase hex digits of cryptographic randomness.
func newID(n int) string {
	b := make([]byte, n)
	rand.Read(b) // never fails: it crashes the program instead
	return hex.EncodeToString(b)
}
