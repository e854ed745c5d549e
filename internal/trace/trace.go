// Package trace is a stdlib-only, allocation-conscious span recorder for
// following one ingest batch through the full write path: HTTP handler →
// engine advance (its phases rendered from the stride record) → view
// publish → checkpoint write. It is deliberately not OpenTelemetry: there is no exporter, no
// sampler tree, no context.Context plumbing through the hot loop. A Trace
// is a mutex-guarded span list owned by one request; completed traces land
// in fixed-size ring buffers (a "recent" ring plus a "slow" ring that
// retains strides exceeding a latency threshold) and are served as JSON
// from GET /debug/traces.
//
// The concurrency contract mirrors the engine's observer seam from the
// telemetry layer: every hook in the hot path is guarded by a single
// nil-check, so an unattached recorder costs one predictable branch and
// zero allocations. Span and Trace objects are pooled like the MS-BFS
// scratch buffers — rings recycle evicted traces, and a recycled trace
// keeps its span capacity, so steady-state tracing settles into a fixed
// working set.
//
// W3C trace context: ParseTraceparent accepts the `traceparent` request
// header (version 00), so client batches propagate their trace id into the
// recorded spans and can look their slow strides up by id afterwards.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 16-byte W3C trace id. The zero value is invalid (per spec,
// all-zero trace ids must be rejected), which lets SpanContext use it as
// the "no inherited context" sentinel.
type TraceID [16]byte

// String renders the id as 32 lowercase hex characters.
func (id TraceID) String() string {
	return hex.EncodeToString(id[:])
}

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool {
	return id == TraceID{}
}

// randSeq perturbs generated trace ids so that a (vanishingly unlikely)
// crypto/rand failure still yields distinct ids within a process.
var randSeq atomic.Uint64

// NewTraceID returns a random trace id. crypto/rand failures degrade to a
// process-local counter rather than panicking: trace ids guard debugging
// visibility, not security.
func NewTraceID() TraceID {
	var id TraceID
	if _, err := rand.Read(id[:]); err != nil || id.IsZero() {
		binary.BigEndian.PutUint64(id[8:], randSeq.Add(1))
		id[0] = 0xd1 // non-zero marker: degraded id
	}
	return id
}

// SpanContext identifies a parent for a new trace fragment: the trace to
// join and the span to hang the fragment's root under. The zero value
// means "no inherited context"; StartTrace then mints a fresh trace id.
type SpanContext struct {
	TraceID TraceID
	SpanID  uint64
}

// Valid reports whether the context carries a usable trace id.
func (c SpanContext) Valid() bool { return !c.TraceID.IsZero() }

// Attr is one key/value span attribute. Values are either int64 or string
// — the two shapes the write path actually produces (counts and names) —
// held inline so attaching an attribute never allocates an interface box.
type Attr struct {
	Key string
	Str string
	Int int64
	// IsStr selects which value field is live.
	IsStr bool
}

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Int: int64(v)} }

// Int64 builds an integer attribute from an int64.
func Int64(key string, v int64) Attr { return Attr{Key: key, Int: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v, IsStr: true} }

// Span is one timed segment of a trace. Spans are created via
// Trace.StartSpan and closed with End/EndAt; between those two calls the
// span is owned by the goroutine that started it, so attribute appends
// need no locking. After Tracer.Finish the span is read-only until its
// trace is evicted from the rings and recycled.
type Span struct {
	Name     string
	SpanID   uint64
	ParentID uint64
	Start    time.Time
	End      time.Time
	Attrs    []Attr
}

// EndAt closes the span at the given instant. Using a caller-supplied
// timestamp lets the engine reuse the phase boundary clock reads it
// already takes for the observer, so tracing adds no time.Now calls to
// the stride path. Nil-safe: a no-op on a nil span.
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	s.End = t
}

// EndNow closes the span at time.Now(). Nil-safe.
func (s *Span) EndNow() {
	if s == nil {
		return
	}
	s.End = time.Now()
}

// SetInt appends an integer attribute. Nil-safe. Only the goroutine that
// started the span may call this, and only before End.
func (s *Span) SetInt(key string, v int) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Int(key, v))
}

// SetStr appends a string attribute under the same rules as SetInt.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Str(key, v))
}

// ID returns the span's id, 0 for nil. The id is unique within its trace
// fragment, not globally.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.SpanID
}

// Duration returns End−Start, or 0 when the span is still open.
func (s *Span) Duration() time.Duration {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Trace is one in-flight trace fragment: a span list plus the id counter
// that names new spans. StartSpan is mutex-guarded so concurrent
// goroutines may open spans in one trace; everything else (Finish, JSON
// rendering) happens after they are done.
//
// A fragment either starts a new trace (zero SpanContext) or joins an
// existing one (same TraceID, roots parented under SpanContext.SpanID).
// The checkpoint runner uses the latter: its asynchronous write becomes a
// late fragment of the stride's ingest trace, merged by id when it
// finishes.
type Trace struct {
	id TraceID
	// parentID is the inherited parent span id (from a traceparent header
	// or a stride SpanContext); roots started with a nil parent hang under
	// it. remote records that the parent span lives outside this process's
	// rings (W3C header), purely for JSON annotation.
	parentID uint64
	remote   bool

	mu    sync.Mutex
	spans []*Span
	// nextSpan seeds span ids for this fragment. Fragments of the same
	// trace must not collide, so ids are drawn from a 16-bit-shifted
	// fragment counter (see Tracer.StartTrace) rather than starting at 1.
	nextSpan uint64

	// ring bookkeeping, owned by the Tracer while the trace is resident.
	start time.Time
	dur   time.Duration
	slow  bool
	seq   uint64
}

// ID returns the trace id (zero for nil).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// StartSpan opens a span at time.Now(). A nil parent parents the span
// under the trace's inherited context (the W3C remote parent, or the
// stride span for checkpoint fragments), making it a root of this
// fragment. Nil-safe: returns nil on a nil trace, and the returned nil
// span absorbs End/attr calls, so call sites need only one guard.
func (t *Trace) StartSpan(name string, parent *Span, attrs ...Attr) *Span {
	return t.StartSpanAt(name, parent, time.Now(), attrs...)
}

// StartSpanAt opens a span at a caller-supplied instant (see Span.EndAt).
func (t *Trace) StartSpanAt(name string, parent *Span, at time.Time, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	pid := t.parentID
	if parent != nil {
		pid = parent.SpanID
	}
	t.mu.Lock()
	t.nextSpan++
	id := t.nextSpan
	// Reuse the pooled Span slots below cap before growing, mirroring the
	// engine's resetDeltas idiom: a recycled trace re-fills the same Span
	// objects instead of allocating.
	n := len(t.spans)
	var s *Span
	if n < cap(t.spans) {
		t.spans = t.spans[:n+1]
		if t.spans[n] == nil {
			t.spans[n] = new(Span)
		}
		s = t.spans[n]
	} else {
		s = new(Span)
		t.spans = append(t.spans, s)
	}
	s.Name = name
	s.SpanID = id
	s.ParentID = pid
	s.Start = at
	s.End = time.Time{}
	s.Attrs = append(s.Attrs[:0], attrs...)
	t.mu.Unlock()
	return s
}

// Context returns a SpanContext that continues this trace under the given
// span (or under the fragment's inherited parent when sp is nil). Safe on
// a nil trace, returning the zero context.
func (t *Trace) Context(sp *Span) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	id := t.parentID
	if sp != nil {
		id = sp.SpanID
	}
	return SpanContext{TraceID: t.id, SpanID: id}
}

// reset prepares a recycled trace for reuse, keeping span capacity but
// dropping span pointers is NOT done here: the spans still belong to this
// trace object, so they stay in the slice beyond len and are re-filled by
// StartSpanAt.
func (t *Trace) reset() {
	t.id = TraceID{}
	t.parentID = 0
	t.remote = false
	t.spans = t.spans[:0]
	t.nextSpan = 0
	t.start = time.Time{}
	t.dur = 0
	t.slow = false
	t.seq = 0
}

// disown clears the span pointers out of a fragment whose spans were
// transferred to another resident trace during a ring merge, so recycling
// the fragment cannot alias spans the ring still serves.
func (t *Trace) disown() {
	for i := range t.spans {
		t.spans[i] = nil
	}
	t.spans = t.spans[:0]
}
