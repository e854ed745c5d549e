package obs

import (
	"strings"
	"testing"
	"time"

	"disc/internal/ckpt"
)

func TestCheckpointMetrics(t *testing.T) {
	r := NewRegistry()
	m := NewCheckpointMetrics(r, nil)
	var _ ckpt.Observer = m

	m.ObserveCheckpoint(ckpt.Record{Gen: 1, Strides: 10, Bytes: 500, Duration: 2 * time.Millisecond})
	m.ObserveCheckpoint(ckpt.Record{Duration: time.Millisecond, Err: errFake{}})
	m.ObserveCheckpoint(ckpt.Record{Gen: 2, Strides: 20, Bytes: 700, Duration: 3 * time.Millisecond})
	m.ObserveSkipped()

	if got := m.attempts.Value(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if got := m.failures.Value(); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
	if got := m.bytes.Value(); got != 1200 {
		t.Errorf("bytes = %d, want 1200", got)
	}
	if got := m.dur.Count(); got != 3 {
		t.Errorf("duration observations = %d, want 3 (failures must be timed too)", got)
	}
	if got := m.gen.Value(); got != 2 {
		t.Errorf("generation = %g, want 2", got)
	}
	if got := m.strides.Value(); got != 20 {
		t.Errorf("last_strides = %g, want 20", got)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"disc_checkpoint_attempts_total 3",
		"disc_checkpoint_failures_total 1",
		"disc_checkpoint_bytes_total 1200",
		"disc_checkpoint_duration_seconds_count 3",
		"disc_checkpoint_generation 2",
		"disc_checkpoint_last_strides 20",
		"disc_checkpoint_skipped_total 1",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake" }
