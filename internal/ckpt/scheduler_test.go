package ckpt

import (
	"context"
	"encoding/binary"
	"testing"
	"time"
)

// TestSchedulerDrivesManyRunners: one scheduler goroutine checkpoints two
// independent sources into two independent stores, each on its own stride
// cadence.
func TestSchedulerDrivesManyRunners(t *testing.T) {
	storeA := mustOpen(t, t.TempDir())
	storeB := mustOpen(t, t.TempDir())
	srcA, srcB := &fakeSource{}, &fakeSource{}
	recA, recB := &recorder{}, &recorder{}

	sched := NewScheduler(WithSchedulerPoll(time.Millisecond))
	sched.Add("a", NewRunner(storeA, srcA, 5, WithObserver(recA)))
	sched.Add("b", NewRunner(storeB, srcB, 2, WithObserver(recB)))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { sched.Run(ctx); close(done) }()

	srcA.strides.Store(5)
	srcB.strides.Store(2)
	waitFor(t, "both streams checkpointed", func() bool {
		return len(recA.snapshot()) >= 1 && len(recB.snapshot()) >= 1
	})
	// B's tighter cadence keeps producing without A advancing.
	srcB.strides.Store(4)
	waitFor(t, "second checkpoint of b", func() bool { return len(recB.snapshot()) >= 2 })
	if got := len(recA.snapshot()); got != 1 {
		t.Fatalf("stream a checkpointed %d times without stride progress, want 1", got)
	}

	// Each store holds its own source's payload, not the other's.
	payloadA, _, err := storeA.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(payloadA); got != 5 {
		t.Fatalf("store a captured stride %d, want 5", got)
	}
	payloadB, _, err := storeB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(payloadB); got != 4 {
		t.Fatalf("store b captured stride %d, want 4", got)
	}

	cancel()
	<-done
}

// TestSchedulerShutdownFinals: cancellation writes a final generation for
// every registered runner with unsaved progress — the multi-stream
// equivalent of the single Runner's shutdown final.
func TestSchedulerShutdownFinals(t *testing.T) {
	storeA := mustOpen(t, t.TempDir())
	storeB := mustOpen(t, t.TempDir())
	srcA, srcB := &fakeSource{}, &fakeSource{}

	sched := NewScheduler(WithSchedulerPoll(time.Hour)) // never ticks organically
	sched.Add("a", NewRunner(storeA, srcA, 100))
	sched.Add("b", NewRunner(storeB, srcB, 100))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { sched.Run(ctx); close(done) }()

	srcA.strides.Store(7)
	srcB.strides.Store(9)
	cancel()
	<-done

	for name, st := range map[string]*Store{"a": storeA, "b": storeB} {
		if _, _, err := st.Recover(); err != nil {
			t.Fatalf("stream %s: no final checkpoint on shutdown: %v", name, err)
		}
	}
}

// TestSchedulerRemove: a removed runner is never ticked again and gets no
// shutdown final.
func TestSchedulerRemove(t *testing.T) {
	store := mustOpen(t, t.TempDir())
	src := &fakeSource{}
	sched := NewScheduler(WithSchedulerPoll(time.Millisecond))
	r := NewRunner(store, src, 1)
	sched.Add("x", r)
	sched.Add("y", NewRunner(mustOpen(t, t.TempDir()), &fakeSource{}, 1))
	if removed := sched.Remove("x"); removed != r {
		t.Fatal("Remove did not return the registered runner")
	}
	if removed := sched.Remove("x"); removed != nil {
		t.Fatal("second Remove must be a nil no-op")
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { sched.Run(ctx); close(done) }()
	src.strides.Store(50)
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-done
	if _, _, err := store.Recover(); err == nil {
		t.Fatal("removed runner still produced checkpoints")
	}
}
