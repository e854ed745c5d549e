package ckpt

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"disc/internal/trace"
)

// Source is the running service a Runner checkpoints on demand
// (CheckpointNow, and the shutdown final): its window advances so far, and a
// restorable snapshot. Both must be safe for concurrent use.
type Source interface {
	Strides() uint64
	WriteCheckpoint(w io.Writer) error
}

// Capture is a stream's state as the batch that crossed a checkpoint
// boundary left it, taken under the stream's lock and not yet encoded.
type Capture struct {
	Strides uint64            // the stream's stride count at the capture
	Trace   trace.SpanContext // the capturing batch's trace; zero when untraced
	// Encode renders the payload on the writer's goroutine, outside the
	// stream's lock; an error fails the attempt.
	Encode func() ([]byte, error)
}

// Record describes one checkpoint attempt, delivered to the Observer.
type Record struct {
	Gen      uint64 // generation written; 0 on failure
	Strides  uint64 // source stride count captured for this attempt
	Bytes    int    // payload size; 0 on failure
	Duration time.Duration
	Err      error // nil on success
}

// Observer receives one Record per checkpoint attempt, on the writer's
// goroutine, and one ObserveSkipped per crossing not captured because the
// stream's previous capture was in flight, on the crossing batch's. The obs
// package's CheckpointMetrics feeds the disc_checkpoint_* family with it.
type Observer interface {
	ObserveCheckpoint(Record)
	ObserveSkipped()
}

// The retry delay after a failed checkpoint doubles per consecutive failure
// from minBackoff up to maxBackoff.
const (
	minBackoff = time.Second
	maxBackoff = time.Minute
)

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithObserver attaches a per-attempt metrics hook.
func WithObserver(o Observer) RunnerOption {
	return func(r *Runner) { r.obs = o }
}

// WithRunnerLogger attaches a structured logger for the runner's log lines.
func WithRunnerLogger(l *slog.Logger) RunnerOption {
	return func(r *Runner) { r.slogger = l }
}

// WithRunnerTracer makes each checkpoint attempt record a span tree —
// "checkpoint" with "checkpoint.snapshot" and "checkpoint.save" children —
// joined to the trace of the batch whose capture it writes.
func WithRunnerTracer(t *trace.Tracer) RunnerOption {
	return func(r *Runner) { r.tracer = t }
}

// Runner decides when one stream's next generation is due and writes it
// through the stream's Store: the batch that moves the stride count across a
// multiple of `every` hands it a capture (Offer), and the goroutine of the
// Writer it belongs to encodes and saves it.
type Runner struct {
	store   *Store
	src     Source
	every   uint64
	obs     Observer
	slogger *slog.Logger
	tracer  *trace.Tracer

	w         atomic.Pointer[Writer] // set by Writer.Add, cleared by Remove
	inflight  atomic.Bool            // a capture is queued or being written
	notBefore atomic.Int64           // no capture before (Unix ns), after a failure

	// Owned by the goroutine that writes: the stride count of the last
	// generation and the active retry delay (0 = healthy).
	lastSaved uint64
	backoff   time.Duration
}

// NewRunner returns a runner checkpointing src into store every `every`
// strides (minimum 1). It writes nothing until a Writer drives it.
func NewRunner(store *Store, src Source, every uint64, opts ...RunnerOption) *Runner {
	r := &Runner{store: store, src: src, every: max(every, 1)}
	for _, o := range opts {
		o(r)
	}
	r.lastSaved = src.Strides() // restored at startup, or intentionally fresh
	return r
}

// Offer is called by the stream after every durable batch, under the
// stream's lock, with its stride count before and after the batch. When the
// batch crossed a multiple of the interval, the runner's Writer is running,
// no capture of this stream is in flight and no backoff is pending, capture
// runs — still under the lock — and its result is queued for the Writer.
func (r *Runner) Offer(before, after uint64, capture func() Capture) {
	if after/r.every == before/r.every {
		return
	}
	w := r.w.Load()
	if w == nil || !w.running.Load() || time.Now().UnixNano() < r.notBefore.Load() {
		return
	}
	if r.inflight.CompareAndSwap(false, true) {
		select {
		case w.jobs <- job{r, capture()}:
			return
		default: // every slot holds another stream's capture
			r.inflight.Store(false)
		}
	}
	if r.obs != nil {
		r.obs.ObserveSkipped()
	}
}

// CheckpointNow takes one snapshot from the source and persists it,
// regardless of stride progress, reporting the attempt to the observer. It
// returns the generation written. It must not run concurrently with the
// runner's Writer.
func (r *Runner) CheckpointNow() (uint64, error) {
	rec, _ := r.save(r.capture())
	if r.obs != nil {
		r.obs.ObserveCheckpoint(rec)
	}
	return rec.Gen, rec.Err
}

// capture reads the source as it is now, for CheckpointNow and the final.
func (r *Runner) capture() Capture {
	return Capture{Strides: r.src.Strides(), Encode: func() ([]byte, error) {
		var buf bytes.Buffer
		err := r.src.WriteCheckpoint(&buf)
		return buf.Bytes(), err
	}}
}

// save encodes c and persists it as the next generation, recording the
// attempt as a trace fragment joined to c.Trace, whose id it returns for
// the log line.
func (r *Runner) save(c Capture) (Record, string) {
	var tr *trace.Trace
	traceID := ""
	if r.tracer != nil {
		tr = r.tracer.StartTrace(c.Trace)
		traceID = tr.ID().String()
	}
	start := time.Now()
	root := tr.StartSpanAt("checkpoint", nil, start)
	spSnap := tr.StartSpanAt("checkpoint.snapshot", root, start)
	payload, err := c.Encode()
	spSnap.SetInt("bytes", len(payload))
	spSnap.EndNow()
	rec := Record{Strides: c.Strides, Err: err}
	if err == nil {
		spSave := tr.StartSpan("checkpoint.save", root)
		rec.Gen, rec.Err = r.store.Save(payload)
		spSave.SetInt("generation", int(rec.Gen))
		spSave.EndNow()
	}
	rec.Duration = time.Since(start)
	if rec.Err == nil {
		rec.Bytes = len(payload)
		r.lastSaved = c.Strides
	}
	root.SetInt("generation", int(rec.Gen))
	root.EndNow()
	r.tracer.Finish(tr)
	return rec, traceID
}

// write persists c on the Writer's goroutine: a crossing's capture, or the
// shutdown final. One at or behind the last generation is dropped — a final
// without progress, or a capture a shutdown race left queued behind the
// final. A failure starts or doubles the backoff during which Offer skips
// crossings.
func (r *Runner) write(c Capture) {
	if c.Strides <= r.lastSaved {
		return
	}
	rec, traceID := r.save(c)
	msg, level := "checkpoint written", slog.LevelInfo
	if rec.Err != nil {
		msg, level = "checkpoint failed", slog.LevelError
		r.backoff = min(max(2*r.backoff, minBackoff), maxBackoff)
		r.notBefore.Store(time.Now().Add(r.backoff).UnixNano())
	} else {
		r.backoff = 0
		r.notBefore.Store(0)
	}
	if r.slogger != nil {
		r.slogger.Log(context.Background(), level, msg, "generation", rec.Gen, "stride", c.Strides,
			"trace_id", traceID, "retry_after", r.backoff, "err", rec.Err)
	}
	r.inflight.Store(false) // the next crossing may be captured
	if r.obs != nil {
		r.obs.ObserveCheckpoint(rec)
	}
}

// writerQueue bounds the captures waiting for a Writer, and so the memory
// they hold. A stream has at most one in flight, so the queue fills only
// when this many streams cross a boundary during one write; a crossing that
// finds it full is skipped.
const writerQueue = 64

type job struct {
	r *Runner
	c Capture
}

// Writer is the one goroutine that persists the captures of many streams'
// Runners, so N streams cost one writer, not N.
type Writer struct {
	jobs    chan job
	running atomic.Bool
	writing sync.Mutex // held across each write, so Remove can wait it out
	mu      sync.Mutex // guards runners
	runners map[*Runner]bool
}

// NewWriter returns a writer with no runners, not yet running.
func NewWriter() *Writer {
	return &Writer{jobs: make(chan job, writerQueue), runners: make(map[*Runner]bool)}
}

// Add registers r: from now on its crossings are captured while Run runs,
// and it gets a shutdown final.
func (w *Writer) Add(r *Runner) {
	w.mu.Lock()
	w.runners[r] = true
	w.mu.Unlock()
	r.w.Store(w)
}

// Remove unregisters r and returns once no write of it is in progress: its
// queued capture is dropped, none is taken again, and it gets no shutdown
// final, so the caller may delete r's directory as soon as Remove returns.
func (w *Writer) Remove(r *Runner) {
	r.w.Store(nil)
	w.writing.Lock()
	defer w.writing.Unlock()
	w.mu.Lock()
	delete(w.runners, r)
	w.mu.Unlock()
}

// Running reports whether a Run is accepting captures.
func (w *Writer) Running() bool { return w.running.Load() }

// Run accepts captures from the moment it is called and writes each as it
// arrives, until ctx is canceled. Then it drops the captures still queued
// and writes a final generation for every runner with stride progress.
func (w *Writer) Run(ctx context.Context) {
	w.running.Store(true)
	for {
		select {
		case j := <-w.jobs:
			w.write(j.r, j.c)
		case <-ctx.Done():
			w.running.Store(false)
			for len(w.jobs) > 0 {
				(<-w.jobs).r.inflight.Store(false)
			}
			w.mu.Lock()
			runners := make([]*Runner, 0, len(w.runners))
			for r := range w.runners {
				runners = append(runners, r)
			}
			w.mu.Unlock()
			for _, r := range runners {
				w.write(r, r.capture())
			}
			return
		}
	}
}

// write writes c for r unless r has been removed.
func (w *Writer) write(r *Runner, c Capture) {
	w.writing.Lock()
	defer w.writing.Unlock()
	defer r.inflight.Store(false)
	w.mu.Lock()
	registered := w.runners[r]
	w.mu.Unlock()
	if registered {
		r.write(c)
	}
}
