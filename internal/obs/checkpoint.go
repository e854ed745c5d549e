package obs

import (
	"disc/internal/ckpt"
)

// CheckpointMetrics is a ckpt.Observer feeding a Registry: one instance
// registers the disc_checkpoint_* family and translates each checkpoint
// attempt into instrument updates. Attach it with
// ckpt.WithObserver(m) on the auto-checkpoint runner.
//
// Metric inventory (all prefixed disc_checkpoint_):
//
//	attempts_total    counter    checkpoint attempts (success + failure)
//	failures_total    counter    attempts that failed (snapshot or I/O)
//	bytes_total       counter    payload bytes durably written
//	duration_seconds  histogram  wall-clock time per attempt
//	generation        gauge      newest generation number written
//	last_strides      gauge      stride count the newest checkpoint captured
//	skipped_total     counter    crossings not captured: the previous one was in flight
type CheckpointMetrics struct {
	attempts *Counter
	failures *Counter
	bytes    *Counter
	dur      *Histogram
	gen      *Gauge
	strides  *Gauge
	skipped  *Counter
}

// NewCheckpointMetrics registers the disc_checkpoint_* instruments on r with
// the given constant base labels (the multi-tenant server passes
// {stream="<name>"}; nil for none) and returns the observer. Register at most
// once per registry and base (duplicate series panic).
func NewCheckpointMetrics(r *Registry, base Labels) *CheckpointMetrics {
	return &CheckpointMetrics{
		attempts: r.Counter("disc_checkpoint_attempts_total",
			"Durable checkpoint attempts, successful or not.", base),
		failures: r.Counter("disc_checkpoint_failures_total",
			"Durable checkpoint attempts that failed (snapshot encoding or disk I/O).", base),
		bytes: r.Counter("disc_checkpoint_bytes_total",
			"Checkpoint payload bytes durably written (framing overhead excluded).", base),
		dur: r.Histogram("disc_checkpoint_duration_seconds",
			"Wall-clock duration of one checkpoint attempt (snapshot + frame + fsync + rename).", nil, base),
		gen: r.Gauge("disc_checkpoint_generation",
			"Newest checkpoint generation number written by this process.", base),
		strides: r.Gauge("disc_checkpoint_last_strides",
			"Stride count captured by the newest successful checkpoint.", base),
		skipped: r.Counter("disc_checkpoint_skipped_total",
			"Checkpoint boundaries crossed while the stream's previous checkpoint was still queued or being written, so not captured.", base),
	}
}

// ObserveCheckpoint implements ckpt.Observer.
func (m *CheckpointMetrics) ObserveCheckpoint(rec ckpt.Record) {
	m.attempts.Inc()
	m.dur.Observe(rec.Duration.Seconds())
	if rec.Err != nil {
		m.failures.Inc()
		return
	}
	m.bytes.Add(int64(rec.Bytes))
	m.gen.Set(float64(rec.Gen))
	m.strides.Set(float64(rec.Strides))
}

// ObserveSkipped implements ckpt.Observer.
func (m *CheckpointMetrics) ObserveSkipped() { m.skipped.Inc() }
