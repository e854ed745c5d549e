package ckpt

import (
	"bytes"
	"io"
	"log/slog"
	"time"

	"disc/internal/trace"
)

// Source is what the Runner checkpoints: the running service. Both methods
// must be safe for concurrent use (the server guards them with its mutex).
type Source interface {
	// Strides returns the number of window advances processed so far; the
	// Runner checkpoints every N of them.
	Strides() uint64
	// WriteCheckpoint writes a restorable snapshot of the service to w.
	WriteCheckpoint(w io.Writer) error
}

// TraceSource is optionally implemented by a Source that can name the
// trace of the most recent stride. A Runner with a tracer attached joins
// its checkpoint spans to that trace, so a slow stride's recorded trace
// also shows the checkpoint write it triggered.
type TraceSource interface {
	TraceContext() trace.SpanContext
}

// Record describes one checkpoint attempt, delivered to the Observer.
type Record struct {
	Gen      uint64 // generation written; 0 on failure
	Strides  uint64 // source stride count captured for this attempt
	Bytes    int    // payload size; 0 on failure
	Duration time.Duration
	Err      error // nil on success
}

// Observer receives one Record per checkpoint attempt. The obs package's
// CheckpointMetrics implements it to feed the disc_checkpoint_* family.
type Observer interface {
	ObserveCheckpoint(Record)
}

// Scheduler and Runner defaults.
const (
	DefaultPoll       = time.Second
	DefaultBackoff    = time.Second
	DefaultMaxBackoff = time.Minute
)

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithBackoff sets the initial and maximum retry delay after a failed
// checkpoint; the delay doubles per consecutive failure up to max.
func WithBackoff(initial, max time.Duration) RunnerOption {
	return func(r *Runner) {
		if initial > 0 {
			r.backoff = initial
		}
		if max >= initial {
			r.maxBackoff = max
		}
	}
}

// WithObserver attaches a per-attempt metrics hook.
func WithObserver(o Observer) RunnerOption {
	return func(r *Runner) { r.obs = o }
}

// WithRunnerLogger attaches a structured logger. Every runner log line is
// emitted through it with stride / generation / trace_id attributes.
func WithRunnerLogger(l *slog.Logger) RunnerOption {
	return func(r *Runner) { r.slogger = l }
}

// WithRunnerTracer makes each checkpoint attempt record a span tree —
// "checkpoint" with "checkpoint.snapshot" and "checkpoint.save" children.
// When the Source also implements TraceSource, the fragment joins the
// covered stride's trace by id; otherwise it is recorded standalone.
func WithRunnerTracer(t *trace.Tracer) RunnerOption {
	return func(r *Runner) { r.tracer = t }
}

// Runner periodically persists a Source through a Store: every `every`
// strides it writes a new generation; a failed write is retried with
// exponential backoff without blocking the service (the snapshot is taken
// under the server's lock, the disk I/O outside any lock). A Scheduler
// drives it.
type Runner struct {
	store *Store
	src   Source
	every uint64

	backoff    time.Duration
	maxBackoff time.Duration
	obs        Observer
	slogger    *slog.Logger
	tracer     *trace.Tracer

	lastSaved uint64 // stride count at the last successful checkpoint
	// lastTraceID names the trace the most recent checkpoint attempt joined
	// (empty when untraced); log lines carry it so a slow checkpoint can be
	// looked up at /debug/traces. The runner is driven by exactly one
	// goroutine at a time (its Scheduler's), so plain fields suffice.
	lastTraceID string
	// Retry state across ticks: curBackoff is the active retry delay (0 =
	// healthy) and notBefore the earliest next attempt while backing off.
	curBackoff time.Duration
	notBefore  time.Time
}

// NewRunner returns a runner checkpointing src into store every `every`
// strides (minimum 1).
func NewRunner(store *Store, src Source, every uint64, opts ...RunnerOption) *Runner {
	if every == 0 {
		every = 1
	}
	r := &Runner{
		store: store, src: src, every: every,
		backoff:    DefaultBackoff,
		maxBackoff: DefaultMaxBackoff,
	}
	for _, o := range opts {
		o(r)
	}
	// Strides already processed when the runner is created (e.g. restored
	// from a checkpoint at startup) are durable or intentionally fresh;
	// the first automatic checkpoint comes after `every` further strides.
	r.lastSaved = src.Strides()
	return r
}

// CheckpointNow takes one snapshot and persists it, regardless of stride
// progress, reporting the attempt to the observer. It returns the
// generation written.
func (r *Runner) CheckpointNow() (uint64, error) {
	var tr *trace.Trace
	if r.tracer != nil {
		var parent trace.SpanContext
		if ts, ok := r.src.(TraceSource); ok {
			parent = ts.TraceContext()
		}
		tr = r.tracer.StartTrace(parent)
		r.lastTraceID = tr.ID().String()
	}
	start := time.Now()
	root := tr.StartSpanAt("checkpoint", nil, start)
	strides := r.src.Strides()
	spSnap := tr.StartSpanAt("checkpoint.snapshot", root, start)
	var buf bytes.Buffer
	gen, err := uint64(0), r.src.WriteCheckpoint(&buf)
	spSnap.SetInt("bytes", buf.Len())
	spSnap.EndNow()
	if err == nil {
		spSave := tr.StartSpan("checkpoint.save", root)
		gen, err = r.store.Save(buf.Bytes())
		spSave.SetInt("generation", int(gen))
		spSave.EndNow()
	}
	rec := Record{Gen: gen, Strides: strides, Duration: time.Since(start), Err: err}
	if err == nil {
		rec.Bytes = buf.Len()
		r.lastSaved = strides
	}
	root.SetInt("generation", int(gen))
	root.EndNow()
	if tr != nil {
		r.tracer.Finish(tr)
	}
	if r.obs != nil {
		r.obs.ObserveCheckpoint(rec)
	}
	return gen, err
}

// tick runs one scheduling step at the given instant: if the source has
// advanced `every` strides since the last save and any retry backoff has
// elapsed, one checkpoint is taken and persisted. It never blocks beyond
// that single attempt. Exactly one goroutine may drive a runner's ticks.
func (r *Runner) tick(now time.Time) {
	if r.curBackoff > 0 && now.Before(r.notBefore) {
		return
	}
	strides := r.src.Strides()
	if strides < r.lastSaved+r.every {
		return
	}
	gen, err := r.CheckpointNow()
	if err != nil {
		if r.curBackoff == 0 {
			r.curBackoff = r.backoff
		} else if r.curBackoff < r.maxBackoff {
			r.curBackoff = min(2*r.curBackoff, r.maxBackoff)
		}
		r.notBefore = now.Add(r.curBackoff)
		if r.slogger != nil {
			r.slogger.Error("checkpoint failed",
				"stride", strides, "retry_in", r.curBackoff, "trace_id", r.lastTraceID, "err", err)
		}
		return
	}
	r.curBackoff = 0
	if r.slogger != nil {
		r.slogger.Info("checkpoint written",
			"generation", gen, "stride", strides, "trace_id", r.lastTraceID)
	}
}

// final writes a last checkpoint on shutdown when there is unsaved stride
// progress; failures only log — shutdown must not hang on a broken disk.
func (r *Runner) final() {
	if r.src.Strides() == r.lastSaved {
		return
	}
	gen, err := r.CheckpointNow()
	if err != nil {
		if r.slogger != nil {
			r.slogger.Error("final checkpoint on shutdown failed",
				"stride", r.src.Strides(), "trace_id", r.lastTraceID, "err", err)
		}
		return
	}
	if r.slogger != nil {
		r.slogger.Info("final checkpoint written on shutdown",
			"generation", gen, "stride", r.lastSaved, "trace_id", r.lastTraceID)
	}
}
