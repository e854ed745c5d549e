package ckpt

import (
	"context"
	"sync"
	"time"
)

// Scheduler drives many per-stream Runners from one goroutine: a single
// poll ticker walks every registered runner and gives it one tick. This is
// the multi-tenant shape — N streams cost one checkpointing goroutine, not
// N — while each runner keeps its own stride cadence, retry backoff, and
// store, so one stream's broken disk never delays another stream's retry
// accounting (it can delay its wall-clock slot within a tick: ticks are
// sequential; the snapshot itself is cheap, the disk I/O dominates and is
// per-store).
//
// Runners may be added and removed while Run is active; a removed runner
// simply stops being ticked. Run's shutdown writes a final generation for
// every still-registered runner with unsaved stride progress.
type Scheduler struct {
	poll time.Duration

	mu      sync.Mutex
	entries map[string]*Runner
}

// SchedulerOption configures a Scheduler.
type SchedulerOption func(*Scheduler)

// WithSchedulerPoll sets how often the scheduler sweeps its runners
// (default DefaultPoll).
func WithSchedulerPoll(d time.Duration) SchedulerOption {
	return func(s *Scheduler) {
		if d > 0 {
			s.poll = d
		}
	}
}

// NewScheduler returns an empty scheduler.
func NewScheduler(opts ...SchedulerOption) *Scheduler {
	s := &Scheduler{poll: DefaultPoll, entries: make(map[string]*Runner)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Add registers a runner under the given name, replacing any runner
// previously registered under it. A runner belongs to one scheduler: its
// Run goroutine is the runner's single driver.
func (s *Scheduler) Add(name string, r *Runner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[name] = r
}

// Remove unregisters the named runner; it is not ticked again and gets no
// shutdown final. Removing an unknown name is a no-op. It returns the
// removed runner (nil when unknown) so a caller that wants a last
// generation can invoke CheckpointNow itself.
func (s *Scheduler) Remove(name string) *Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.entries[name]
	delete(s.entries, name)
	return r
}

// snapshot copies the current runner set so ticking proceeds without
// holding the lock — Add/Remove from request handlers never wait on a
// checkpoint write.
func (s *Scheduler) snapshot() []*Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Runner, 0, len(s.entries))
	for _, r := range s.entries {
		out = append(out, r)
	}
	return out
}

// Run sweeps every registered runner on the poll interval until ctx is
// canceled, then writes a final generation for each runner with unsaved
// stride progress. It is meant to be run in its own goroutine.
func (s *Scheduler) Run(ctx context.Context) {
	ticker := time.NewTicker(s.poll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			for _, r := range s.snapshot() {
				r.final()
			}
			return
		case <-ticker.C:
		}
		now := time.Now()
		for _, r := range s.snapshot() {
			r.tick(now)
		}
	}
}
