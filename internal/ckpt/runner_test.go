package ckpt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
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
	payload, err := f.payload(f.strides.Load())
	if err == nil {
		_, err = w.Write(payload)
	}
	return err
}

// payload encodes a stride count, failing while injected failures remain.
func (f *fakeSource) payload(strides uint64) ([]byte, error) {
	if f.fail.Load() > 0 {
		f.fail.Add(-1)
		return nil, errors.New("injected checkpoint failure")
	}
	return binary.BigEndian.AppendUint64(nil, strides), nil
}

// batch moves src's stride count to `to` the way a stream's durable batch
// does: under no lock here, then offering r the crossing. The capture encodes
// the count, and captured reports whether the offer took one.
func batch(r *Runner, src *fakeSource, to uint64) (captured bool) {
	before := src.strides.Swap(to)
	r.Offer(before, to, func() Capture {
		captured = true
		return Capture{Strides: to, Encode: func() ([]byte, error) { return src.payload(to) }}
	})
	return captured
}

// recorder collects every Record the runner reports, and its skips.
type recorder struct {
	mu      sync.Mutex
	recs    []Record
	skipped int
}

func (r *recorder) ObserveCheckpoint(rec Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, rec)
}

func (r *recorder) ObserveSkipped() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.skipped++
}

// await waits until n attempts have been reported, so the runner's next
// crossing can be captured.
func (r *recorder) await(t *testing.T, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d checkpoint attempts", n), func() bool { return len(r.snapshot()) >= n })
}

func (r *recorder) snapshot() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.recs...)
}

// drive registers runners on a new Writer and runs it until the returned
// stop cancels it and waits for its shutdown finals. It returns once the
// writer accepts captures.
func drive(t *testing.T, runners ...*Runner) (w *Writer, stop func()) {
	t.Helper()
	w = NewWriter()
	for _, r := range runners {
		w.Add(r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	waitFor(t, "the writer to run", w.Running)
	return w, func() { cancel(); <-done }
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newestPayload waits until s holds generation gen and returns the stride
// count the newest generation captured.
func newestPayload(t *testing.T, s *Store, gen uint64) uint64 {
	t.Helper()
	waitFor(t, fmt.Sprintf("generation %d", gen), func() bool {
		gens, _ := s.Generations()
		return len(gens) > 0 && gens[len(gens)-1] >= gen
	})
	payload, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint64(payload)
}

// TestRunnerCheckpointsEveryNStrides: the crossing rule. Only a batch that
// moves the stride count across a multiple of N is captured, whatever the
// count was when the runner was built, and its capture is the count at the
// end of that batch; one batch crossing two multiples is one capture.
func TestRunnerCheckpointsEveryNStrides(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	src := &fakeSource{}
	src.strides.Store(3)
	rec := &recorder{}
	r := NewRunner(s, src, 5, WithObserver(rec))
	_, stop := drive(t, r)

	if batch(r, src, 4) {
		t.Fatal("a batch below the first multiple was captured")
	}
	if !batch(r, src, 6) {
		t.Fatal("the batch crossing stride 5 was not captured")
	}
	if got := newestPayload(t, s, 1); got != 6 {
		t.Fatalf("generation 1 captured stride %d, want 6 (the end of the crossing batch)", got)
	}
	rec.await(t, 1)
	for _, to := range []uint64{7, 9, 10} {
		if got := batch(r, src, to); got != (to == 10) {
			t.Fatalf("batch to stride %d captured: %v", to, got)
		}
	}
	if got := newestPayload(t, s, 2); got != 10 {
		t.Fatalf("generation 2 captured stride %d, want 10", got)
	}
	rec.await(t, 2)
	if !batch(r, src, 21) || newestPayload(t, s, 3) != 21 {
		t.Fatal("a batch crossing 15 and 20 did not write one generation at 21")
	}
	if gens, _ := s.Generations(); gens[len(gens)-1] != 3 {
		t.Fatalf("generations %v, want the newest to be 3", gens)
	}

	// Shutdown with unsaved progress writes one final generation.
	src.strides.Store(23)
	stop()
	if got := newestPayload(t, s, 4); got != 23 {
		t.Fatalf("final checkpoint captured stride %d, want 23", got)
	}
}

// TestRunnerRetriesWithBackoff: a failed save is reported, crossings are
// skipped until the backoff has passed — its delay doubling per failure — and
// the first crossing after it is captured again and succeeds.
func TestRunnerRetriesWithBackoff(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	src := &fakeSource{}
	src.fail.Store(2)
	rec := &recorder{}
	r := NewRunner(s, src, 1, WithObserver(rec))
	_, stop := drive(t, r)
	defer stop()

	stride := uint64(0)
	for failure, backoff := range []time.Duration{minBackoff, 2 * minBackoff} {
		stride++
		if !batch(r, src, stride) {
			t.Fatalf("crossing %d was not captured", stride)
		}
		rec.await(t, failure+1)
		if got := rec.snapshot()[failure]; got.Err == nil {
			t.Fatalf("attempt %d succeeded, want the injected failure", failure+1)
		}
		if r.backoff != backoff {
			t.Fatalf("backoff after failure %d is %v, want %v", failure+1, r.backoff, backoff)
		}
		stride++
		if batch(r, src, stride) {
			t.Fatalf("crossing %d was captured during the backoff", stride)
		}
		r.notBefore.Store(time.Now().Add(-time.Second).UnixNano()) // the backoff passes
	}
	stride++
	if !batch(r, src, stride) {
		t.Fatal("the crossing after the backoff was not captured")
	}
	rec.await(t, 3)
	if got := newestPayload(t, s, 1); got != stride {
		t.Fatalf("generation captured stride %d, want %d", got, stride)
	}
	recs := rec.snapshot()
	if len(recs) != 3 || recs[2].Err != nil || recs[2].Bytes == 0 || recs[2].Gen != 1 {
		t.Fatalf("records %+v, want two failures and then generation 1", recs)
	}
	if r.backoff != 0 || r.notBefore.Load() != 0 {
		t.Fatalf("backoff %v (until %d) after a success, want none", r.backoff, r.notBefore.Load())
	}
	if rec.skipped != 0 {
		t.Fatalf("%d crossings counted skipped; a backoff is not a skip", rec.skipped)
	}
}

// TestRunnerSkipsCrossingWhileInFlight: a crossing that finds the stream's
// previous capture still being written takes none and is counted skipped.
func TestRunnerSkipsCrossingWhileInFlight(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	src := &fakeSource{}
	rec := &recorder{}
	r := NewRunner(s, src, 1, WithObserver(rec))
	_, stop := drive(t, r)
	defer stop()

	release := make(chan struct{})
	r.Offer(0, 1, func() Capture {
		return Capture{Strides: 1, Encode: func() ([]byte, error) { <-release; return []byte("one"), nil }}
	})
	if batch(r, src, 2) {
		t.Fatal("a crossing was captured while the previous capture was in flight")
	}
	close(release)
	rec.await(t, 1)
	if rec.skipped != 1 {
		t.Fatalf("%d crossings counted skipped, want 1", rec.skipped)
	}
	if !batch(r, src, 3) || newestPayload(t, s, 2) != 3 {
		t.Fatal("the next crossing after the write was not captured")
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
// source) also counts as a failed attempt, and the first crossing after the
// backoff, once the disk has healed, writes a generation.
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
	r := NewRunner(s, src, 1, WithObserver(rec))
	_, stop := drive(t, r)

	batch(r, src, 1)
	rec.await(t, 1)
	if got := rec.snapshot()[0]; got.Err == nil {
		t.Fatal("a broken disk produced a generation")
	}
	if batch(r, src, 2) {
		t.Fatal("a crossing during the backoff was captured")
	}
	broken.Store(false)
	r.notBefore.Store(time.Now().Add(-time.Second).UnixNano()) // the backoff passes
	if !batch(r, src, 3) || newestPayload(t, s, 1) != 3 {
		t.Fatal("the crossing after the backoff did not write a generation")
	}
	stop()
	if _, _, err := s.Recover(); err != nil {
		t.Fatalf("recover after disk healed: %v", err)
	}
}
