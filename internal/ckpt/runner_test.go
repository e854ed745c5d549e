package ckpt

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource is a Source whose checkpoint payload encodes its current
// stride count, so tests can tell which stride a generation captured.
type fakeSource struct {
	strides atomic.Uint64
	fail    atomic.Int64 // number of WriteCheckpoint calls left to fail
}

func (f *fakeSource) Strides() uint64 { return f.strides.Load() }

func (f *fakeSource) WriteCheckpoint(w io.Writer) error {
	if f.fail.Load() > 0 {
		f.fail.Add(-1)
		return errors.New("injected checkpoint failure")
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], f.strides.Load())
	_, err := w.Write(b[:])
	return err
}

// recorder collects every Record the runner reports.
type recorder struct {
	mu   sync.Mutex
	recs []Record
}

func (r *recorder) ObserveCheckpoint(rec Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, rec)
}

func (r *recorder) snapshot() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.recs...)
}

// schedule drives r the way a process drives every runner — from a
// Scheduler, here polling every millisecond — and returns a stop func that
// cancels the scheduler and waits for its shutdown final.
func schedule(r *Runner) (stop func()) {
	sched := NewScheduler(WithSchedulerPoll(time.Millisecond))
	sched.Add("r", r)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { sched.Run(ctx); close(done) }()
	return func() { cancel(); <-done }
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRunnerCheckpointsEveryNStrides: generations appear only once the
// stride counter advances past the threshold, and capture it.
func TestRunnerCheckpointsEveryNStrides(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	src := &fakeSource{}
	rec := &recorder{}
	stop := schedule(NewRunner(s, src, 5, WithObserver(rec)))

	// Below the threshold nothing may be written.
	src.strides.Store(4)
	time.Sleep(20 * time.Millisecond)
	if gens, _ := s.Generations(); len(gens) != 0 {
		t.Fatalf("checkpoint written below stride threshold: %v", gens)
	}

	src.strides.Store(5)
	waitFor(t, "first generation", func() bool { gens, _ := s.Generations(); return len(gens) >= 1 })
	payload, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(payload); got != 5 {
		t.Fatalf("checkpoint captured stride %d, want 5", got)
	}

	// Shutdown with unsaved progress writes one final generation.
	src.strides.Store(7)
	stop()
	payload, _, err = s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(payload); got != 7 {
		t.Fatalf("final checkpoint captured stride %d, want 7", got)
	}
}

// TestRunnerRetriesWithBackoff: failed attempts are reported, retried, and
// eventually succeed without losing the stride trigger.
func TestRunnerRetriesWithBackoff(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	src := &fakeSource{}
	src.fail.Store(2)
	rec := &recorder{}
	stop := schedule(NewRunner(s, src, 1,
		WithBackoff(time.Millisecond, 4*time.Millisecond),
		WithObserver(rec)))

	src.strides.Store(1)
	waitFor(t, "successful checkpoint after retries", func() bool {
		gens, _ := s.Generations()
		return len(gens) >= 1
	})
	stop()

	var failures, successes int
	for _, rc := range rec.snapshot() {
		if rc.Err != nil {
			failures++
		} else {
			successes++
			if rc.Bytes == 0 || rc.Gen == 0 {
				t.Fatalf("success record without bytes/gen: %+v", rc)
			}
		}
	}
	if failures != 2 {
		t.Fatalf("observed %d failures, want 2", failures)
	}
	if successes == 0 {
		t.Fatal("no successful attempt observed")
	}
}

// TestRunnerCheckpointNow writes immediately regardless of stride count.
func TestRunnerCheckpointNow(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	src := &fakeSource{}
	src.strides.Store(42)
	r := NewRunner(s, src, 1000)
	gen, err := r.CheckpointNow()
	if err != nil || gen != 1 {
		t.Fatalf("CheckpointNow = gen %d err %v", gen, err)
	}
	payload, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(payload); got != 42 {
		t.Fatalf("captured stride %d, want 42", got)
	}
}

// TestRunnerStoreFaultThenRecovery: the store's disk failing (not the
// source) also counts as a failed attempt and is retried.
func TestRunnerStoreFaultThenRecovery(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	var broken atomic.Bool
	broken.Store(true)
	s.wrapWriter = func(w io.Writer) io.Writer {
		if broken.Load() {
			return &teeLimit{w: w, limit: 3}
		}
		return w
	}
	src := &fakeSource{}
	rec := &recorder{}
	stop := schedule(NewRunner(s, src, 1,
		WithBackoff(time.Millisecond, 2*time.Millisecond), WithObserver(rec)))

	src.strides.Store(3)
	waitFor(t, "failed attempts while disk broken", func() bool {
		for _, rc := range rec.snapshot() {
			if rc.Err != nil {
				return true
			}
		}
		return false
	})
	if gens, _ := s.Generations(); len(gens) != 0 {
		t.Fatalf("broken disk produced generations: %v", gens)
	}
	broken.Store(false)
	waitFor(t, "checkpoint after disk recovers", func() bool {
		gens, _ := s.Generations()
		return len(gens) >= 1
	})
	stop()
	if _, _, err := s.Recover(); err != nil {
		t.Fatalf("recover after disk healed: %v", err)
	}
}
