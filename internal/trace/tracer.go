package trace

import (
	"sync"
	"time"
)

// Defaults for NewTracer sizing; chosen so a tracer's steady-state
// footprint stays a few hundred KB.
const (
	// DefRecent is the default capacity of the recent-trace ring.
	DefRecent = 64
	// DefSlow is the default capacity of the slow-trace ring.
	DefSlow = 32
	// maxFree caps the recycled-trace free list.
	maxFree = 32
	// fragShift spaces span-id ranges between fragments of one trace, so
	// a checkpoint fragment joining a stride trace cannot collide with the
	// ids already issued by the ingest fragment.
	fragShift = 20
)

// Tracer owns the completed-trace rings and the trace/span pools. All
// methods are safe for concurrent use; a nil *Tracer is a valid
// "recording disabled" tracer whose StartTrace returns nil, which the
// nil-safe Trace/Span methods then absorb.
type Tracer struct {
	slowThresh time.Duration

	mu     sync.Mutex
	recent ring
	slow   ring
	seq    uint64 // insertion order, for newest-first serving
	frag   uint64 // fragment counter, spaces span-id ranges
	free   []*Trace
}

// ring is a fixed-capacity circular buffer of resident traces.
type ring struct {
	buf  []*Trace
	next int // index of the slot the next insert overwrites
	n    int // live count
}

func (r *ring) init(capacity int) { r.buf = make([]*Trace, capacity) }

// push inserts tr, returning the evicted trace (nil when the ring still
// had room).
func (r *ring) push(tr *Trace) *Trace {
	old := r.buf[r.next]
	r.buf[r.next] = tr
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
		return nil
	}
	return old
}

// find returns the resident trace with the given id, or nil.
func (r *ring) find(id TraceID) *Trace {
	for _, tr := range r.buf {
		if tr != nil && tr.id == id {
			return tr
		}
	}
	return nil
}

// Config sizes a Tracer.
type Config struct {
	// Recent is the recent-ring capacity; <=0 means DefRecent.
	Recent int
	// Slow is the slow-ring capacity; <=0 means DefSlow.
	Slow int
	// SlowThreshold marks a finished trace as slow (retained in the slow
	// ring and surfaced to the stride log) when its root duration meets
	// it. <=0 disables slow capture.
	SlowThreshold time.Duration
}

// NewTracer builds a tracer with the given ring sizes and slow threshold.
func NewTracer(cfg Config) *Tracer {
	if cfg.Recent <= 0 {
		cfg.Recent = DefRecent
	}
	if cfg.Slow <= 0 {
		cfg.Slow = DefSlow
	}
	t := &Tracer{slowThresh: cfg.SlowThreshold}
	t.recent.init(cfg.Recent)
	t.slow.init(cfg.Slow)
	return t
}

// SlowThreshold returns the configured slow-capture threshold.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.slowThresh
}

// StartTrace begins a trace fragment. A zero ctx mints a fresh trace id;
// a valid ctx joins the identified trace (the fragment's root spans hang
// under ctx.SpanID, and Finish merges the fragment into the resident
// trace with the same id, if any). Nil-safe: returns nil on a nil tracer.
func (t *Tracer) StartTrace(ctx SpanContext) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.frag++
	frag := t.frag
	var tr *Trace
	if n := len(t.free); n > 0 {
		tr = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	}
	t.mu.Unlock()
	if tr == nil {
		tr = new(Trace)
	}
	if ctx.Valid() {
		tr.id = ctx.TraceID
		tr.parentID = ctx.SpanID
		tr.remote = true
	} else {
		tr.id = NewTraceID()
	}
	tr.nextSpan = frag << fragShift
	tr.start = time.Now()
	return tr
}

// Finish completes a fragment: computes its duration from its spans,
// decides slowness, and installs it in the rings — merging into an
// already-resident trace with the same id when one exists (the checkpoint
// fragment path). It returns the trace id and whether the trace is now
// considered slow, so callers can stamp slow-stride exemplars. The
// fragment must not be used after Finish. Nil-safe on both receiver and
// argument.
//
// Callers must end all spans (and join any worker goroutines that opened
// spans) before calling Finish; the tracer's mutex then publishes the
// span data to /debug/traces readers.
func (t *Tracer) Finish(tr *Trace) (id TraceID, slow bool) {
	if t == nil || tr == nil {
		return TraceID{}, false
	}
	// Duration: prefer the fragment's first root span (start→end covers
	// the whole request); fall back to wall time since StartTrace.
	dur := time.Since(tr.start)
	if len(tr.spans) > 0 && !tr.spans[0].End.IsZero() {
		dur = tr.spans[0].End.Sub(tr.spans[0].Start)
	}
	id = tr.id
	tr.dur = dur
	tr.slow = t.slowThresh > 0 && dur >= t.slowThresh

	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	tr.seq = t.seq

	// Merge path: a resident trace with the same id adopts this
	// fragment's spans. The fragment then recycles WITHOUT its spans
	// (disown) so the ring never serves aliased, reused span objects.
	if host := t.findLocked(id); host != nil {
		host.spans = append(host.spans, tr.spans...)
		host.seq = t.seq // refreshed: merged traces are news again
		if end := tr.start.Add(dur); end.After(host.start) {
			host.dur = end.Sub(host.start)
		}
		tr.disown()
		t.recycleLocked(tr)
		return id, host.slow
	}

	slow = tr.slow
	var evicted *Trace
	if slow {
		evicted = t.slow.push(tr)
	} else {
		evicted = t.recent.push(tr)
	}
	if evicted != nil {
		t.recycleLocked(evicted)
	}
	return id, slow
}

func (t *Tracer) findLocked(id TraceID) *Trace {
	if tr := t.recent.find(id); tr != nil {
		return tr
	}
	return t.slow.find(id)
}

func (t *Tracer) recycleLocked(tr *Trace) {
	tr.reset()
	if len(t.free) < maxFree {
		t.free = append(t.free, tr)
	}
}

// Snapshot copies out the resident traces, newest first, for rendering.
// Each entry is deep-copied under the tracer mutex so callers can encode
// without racing ring eviction.
func (t *Tracer) Snapshot() []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceData, 0, t.recent.n+t.slow.n)
	for _, r := range []*ring{&t.recent, &t.slow} {
		for _, tr := range r.buf {
			if tr != nil {
				out = append(out, snapshotTrace(tr))
			}
		}
	}
	// Newest first by insertion sequence.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].seq > out[j-1].seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TraceData is an immutable copy of one resident trace.
type TraceData struct {
	TraceID  TraceID
	Start    time.Time
	Duration time.Duration
	Slow     bool
	Remote   bool
	Spans    []Span
	seq      uint64
}

// Root returns the first root span's name, or "".
func (d *TraceData) Root() string {
	for i := range d.Spans {
		if d.Spans[i].ParentID == 0 || !d.hasSpan(d.Spans[i].ParentID) {
			return d.Spans[i].Name
		}
	}
	return ""
}

func (d *TraceData) hasSpan(id uint64) bool {
	for i := range d.Spans {
		if d.Spans[i].SpanID == id {
			return true
		}
	}
	return false
}

func snapshotTrace(tr *Trace) TraceData {
	d := TraceData{
		TraceID:  tr.id,
		Start:    tr.start,
		Duration: tr.dur,
		Slow:     tr.slow,
		Remote:   tr.remote,
		Spans:    make([]Span, len(tr.spans)),
		seq:      tr.seq,
	}
	for i, s := range tr.spans {
		d.Spans[i] = *s
		if len(s.Attrs) > 0 {
			d.Spans[i].Attrs = append([]Attr(nil), s.Attrs...)
		}
	}
	return d
}
