package ckpt

import (
	"sync"
	"testing"
	"time"
)

// TestSchedulerDrivesManyRunners: one Writer goroutine persists the captures
// of many streams, each into its own store on its own interval, while their
// batches arrive concurrently.
func TestSchedulerDrivesManyRunners(t *testing.T) {
	const streams, crossings = 8, 5
	stores := make([]*Store, streams)
	srcs := make([]*fakeSource, streams)
	recs := make([]*recorder, streams)
	runners := make([]*Runner, streams)
	for i := range runners {
		stores[i] = mustOpen(t, t.TempDir())
		srcs[i], recs[i] = &fakeSource{}, &recorder{}
		runners[i] = NewRunner(stores[i], srcs[i], uint64(i+1), WithObserver(recs[i]))
	}
	_, stop := drive(t, runners...)
	defer stop()

	// Stream i crosses a multiple of i+1 on every batch, and waits for each
	// attempt before its next batch, so none is skipped.
	var wg sync.WaitGroup
	for i := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			every := uint64(i + 1)
			for gen := 1; gen <= crossings; gen++ {
				if !batch(runners[i], srcs[i], uint64(gen)*every) {
					t.Errorf("stream %d: crossing %d not captured", i, gen)
					return
				}
				for deadline := time.Now().Add(10 * time.Second); len(recs[i].snapshot()) < gen; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Errorf("stream %d: attempt %d never reported", i, gen)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Each store holds its own stream's payload, not another's.
	for i, s := range stores {
		if got, want := newestPayload(t, s, crossings), uint64(crossings*(i+1)); got != want {
			t.Errorf("store %d captured stride %d, want %d", i, got, want)
		}
	}
}

// TestSchedulerShutdownFinals: cancellation writes a final generation for
// every registered runner with progress since its last one, and none for a
// runner without.
func TestSchedulerShutdownFinals(t *testing.T) {
	stores := map[string]*Store{}
	var runners []*Runner
	for _, c := range []struct {
		name    string
		strides uint64
	}{{"a", 7}, {"b", 9}, {"idle", 0}} {
		stores[c.name] = mustOpen(t, t.TempDir())
		src := &fakeSource{}
		runners = append(runners, NewRunner(stores[c.name], src, 100))
		src.strides.Store(c.strides)
	}
	_, stop := drive(t, runners...)
	stop()

	for name, want := range map[string]uint64{"a": 7, "b": 9} {
		if got := newestPayload(t, stores[name], 1); got != want {
			t.Errorf("stream %s: final captured stride %d, want %d", name, got, want)
		}
	}
	if gens, _ := stores["idle"].Generations(); len(gens) != 0 {
		t.Errorf("a runner without progress got a final: %v", gens)
	}
}

// TestSchedulerRemove: Remove waits out the removed runner's write in
// progress; after it returns, the runner's crossings take no capture and it
// gets no shutdown final, while the writer keeps serving the others.
// Removing it again is a no-op.
func TestSchedulerRemove(t *testing.T) {
	store, other := mustOpen(t, t.TempDir()), mustOpen(t, t.TempDir())
	src, otherSrc := &fakeSource{}, &fakeSource{}
	r, kept := NewRunner(store, src, 1), NewRunner(other, otherSrc, 1)
	w, stop := drive(t, r, kept)

	encoding, release := make(chan struct{}), make(chan struct{})
	r.Offer(0, 1, func() Capture {
		return Capture{Strides: 1, Encode: func() ([]byte, error) {
			close(encoding)
			<-release
			return []byte("in flight"), nil
		}}
	})
	<-encoding
	removed := make(chan struct{})
	go func() { w.Remove(r); close(removed) }()
	select {
	case <-removed:
		t.Fatal("Remove returned while the runner's write was in progress")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-removed
	if gens, _ := store.Generations(); len(gens) != 1 {
		t.Fatalf("generations %v, want the one in progress at Remove", gens)
	}
	w.Remove(r)

	if batch(r, src, 5) {
		t.Fatal("a removed runner's crossing took a capture")
	}
	if !batch(kept, otherSrc, 1) || newestPayload(t, other, 1) != 1 {
		t.Fatal("the remaining runner stopped being written")
	}
	stop()
	if gens, _ := store.Generations(); len(gens) != 1 {
		t.Fatalf("a removed runner got a shutdown final: generations %v", gens)
	}
}
