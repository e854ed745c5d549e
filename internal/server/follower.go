// Follower replay: a read-only replica that restores the newest checkpoint
// generation in a leader's directory, tails the write-ahead log beside it
// and replays every acknowledged batch through its own slider and engine.
// Because DISC is deterministic — same points in, same strides
// out — the follower's published views (assignments, census, stats,
// events) are bit-identical to the leader's at every stride boundary it
// has replayed; the full GET surface serves from those views exactly as
// on the leader. Promote turns the follower into a leader: it drains the
// remaining log, then runs the attach step every leader runs.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"disc/internal/ckpt"
	"disc/internal/obs"
)

// FollowerConfig configures a read-only replica.
type FollowerConfig struct {
	// Server is the stream configuration, which must match the leader's
	// (a mismatched window or stride would replay the same points into
	// different strides).
	Server Config
	// WALDir is the leader's durable directory (shared filesystem or a
	// synchronized copy). The follower restores its newest checkpoint
	// generation and tails the log from there, so it replays the log's tail
	// rather than the stream's whole history, which a pruning leader no
	// longer keeps.
	WALDir string
	// Poll is how often the tailer re-checks the log when it is caught
	// up; 0 selects 25ms.
	Poll time.Duration
	// Logger receives replay and promotion events; nil discards them.
	Logger *slog.Logger
}

// Follower wraps a Server whose state is driven by WAL replay instead of
// HTTP ingest. Create with NewFollower, drive with Run, expose with
// Handler, and call Promote (or POST /promote) to take over as leader.
type Follower struct {
	srv    *Server
	cfg    FollowerConfig
	rep    *obs.ReplicationMetrics
	logger *slog.Logger

	promoted atomic.Bool
	writer   *ckpt.Writer // writes the promoted leader's checkpoints

	mu      sync.Mutex // guards reader/cancel/done across Run and Promote
	reader  *ckpt.WALReader
	cancel  context.CancelFunc
	done    chan struct{}
	running bool
}

// NewFollower builds the replica and restores it from the newest valid
// checkpoint generation in WALDir, if there is one.
func NewFollower(fc FollowerConfig) (*Follower, error) {
	if fc.WALDir == "" {
		return nil, errors.New("follower: WALDir is required")
	}
	if fc.Poll <= 0 {
		fc.Poll = 25 * time.Millisecond
	}
	// The replica's series are its leader's: the default stream's
	// {stream="default"} bundle and the stream counts, so dashboards keep
	// working across a failover.
	reg := obs.NewRegistry()
	srv, err := newServer(fc.Server, reg, obs.NewStreamMetricsPool(reg, 1).Acquire(DefaultStream), fc.WALDir, fc.Logger)
	if err != nil {
		return nil, fmt.Errorf("follower: %w", err)
	}
	streams, created := newRegistryMetrics(reg)
	streams.Set(1)
	created.Inc()
	return &Follower{srv: srv, cfg: fc, logger: fc.Logger, rep: obs.NewReplicationMetrics(reg), writer: ckpt.NewWriter()}, nil
}

// Run tails the log until ctx is canceled, Promote stops it, or the log
// turns definitively corrupt, applying each record as it becomes durable.
// After promotion it runs the new leader's checkpoint writer until ctx is
// canceled, final generation included. It is meant to be run in its own
// goroutine; GET handlers serve concurrently from the published views
// throughout.
func (f *Follower) Run(ctx context.Context) error {
	if err := f.tail(ctx); err != nil {
		return err
	}
	if f.promoted.Load() {
		f.writer.Run(ctx)
	}
	return nil
}

// tail replays the log until ctx is canceled or Promote cancels it, and
// then returns only once Promote has finished: its last step waits for
// f.mu. On a promoted follower it returns at once.
func (f *Follower) tail(ctx context.Context) error {
	f.mu.Lock()
	if f.promoted.Load() {
		f.mu.Unlock()
		return nil
	}
	if f.running {
		f.mu.Unlock()
		return errors.New("follower: already running")
	}
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	r := f.srv.openReplay(f.cfg.WALDir)
	f.reader, f.cancel, f.done, f.running = r, cancel, done, true
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.running = false
		f.mu.Unlock()
	}()
	// Registered after the f.mu-taking defer so it runs first: Promote
	// holds f.mu while waiting on done, so closing done must never itself
	// wait on f.mu.
	defer close(done)
	for {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		// Corruption while the leader is alive is fatal for the replica — it
		// must not guess past damage the leader may still be extending the
		// log beyond.
		applied, err := f.srv.replay(r, f.applyRecord)
		if applied > 0 {
			continue // keep draining while records flow
		}
		if err != nil {
			if f.logger != nil {
				f.logger.Error("follower: wal tail failed", "err", err)
			}
			return err
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(f.cfg.Poll):
		}
	}
}

// applyRecord is the stream's applyRecord with the disc_replica_* instruments
// around it: while a record is being applied the lag gauge shows how far it
// reaches past the replica. Caller holds the server's mutex.
func (f *Follower) applyRecord(rec *walRecord) error {
	st := f.srv.st
	if end := rec.end(); end > st.ingested {
		f.rep.Lag.Set(float64(end-st.ingested) / float64(st.cfg.Stride))
	}
	if err := st.applyRecord(rec); err != nil {
		return err
	}
	f.rep.Lag.Set(0)
	f.rep.Records.Inc()
	f.rep.Points.Add(int64(len(rec.Points)))
	return nil
}

// Promote turns the follower into a leader: stop tailing, drain whatever
// complete records remain, and run attachLeader — the log's torn tail
// repaired and the log reopened for appending, and the checkpoint runner
// added to the writer Run runs from then on. The store is opened only now,
// so its generations are numbered past the dead leader's. Only call it once the old leader is
// known dead — two appenders on one log would interleave corruptly.
func (f *Follower) Promote() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted.Load() {
		return nil
	}
	if f.cancel != nil {
		f.cancel()
		<-f.done
	}
	s := f.srv
	if f.reader == nil {
		// Run never started; position the replay cursor now.
		f.reader = s.openReplay(f.cfg.WALDir)
	}
	// Final drain: everything completely framed gets applied; a torn or
	// corrupt tail stops the drain at exactly the boundary the attach step
	// repairs the log to.
	if _, err := s.replayToDamage(f.reader, f.applyRecord, f.logger); err != nil {
		return fmt.Errorf("follower: draining log for promotion: %w", err)
	}
	f.reader.Close()
	if err := s.attachLeader(f.cfg.WALDir, f.logger, f.writer); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	f.promoted.Store(true)
	if f.logger != nil {
		f.logger.Info("follower promoted to leader", "stride", s.Strides())
	}
	return nil
}

// Handler exposes the replica: the full GET surface of the underlying
// server, POST /promote, and — until promotion — 403 on every other
// write. After promotion the handler is the full leader surface.
func (f *Follower) Handler() http.Handler {
	inner := f.srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/promote" {
			if err := f.Promote(); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			writeJSON(w, map[string]any{"promoted": true, "strides": f.srv.Strides()})
			return
		}
		if !f.promoted.Load() && r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "read-only follower: POST /promote to take over as leader", http.StatusForbidden)
			return
		}
		inner.ServeHTTP(w, r)
	})
}
