// Follower replay: a read-only replica that tails a leader's write-ahead
// log and replays every acknowledged batch through its own slider and
// engine. Because DISC is deterministic — same points in, same strides
// out — the follower's published views (assignments, census, stats,
// events) are bit-identical to the leader's at every stride boundary it
// has replayed; the full GET surface serves from those views exactly as
// on the leader. Promote turns the follower into a leader: it drains the
// remaining log, repairs any torn tail, reopens the log for appending,
// and enables the write path.
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
	// WALDir is the leader's write-ahead log directory (shared
	// filesystem or a synchronized copy).
	WALDir string
	// CheckpointDir, when set, restores the newest valid checkpoint
	// generation before tailing, so the follower only replays the log's
	// tail instead of the stream's whole history.
	CheckpointDir string
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

	mu      sync.Mutex // guards reader/cancel/done across Run and Promote
	reader  *ckpt.WALReader
	cancel  context.CancelFunc
	done    chan struct{}
	running bool
}

// NewFollower builds the replica and, when CheckpointDir is set,
// restores it from the newest valid checkpoint generation.
func NewFollower(fc FollowerConfig) (*Follower, error) {
	if fc.WALDir == "" {
		return nil, errors.New("follower: WALDir is required")
	}
	if fc.Poll <= 0 {
		fc.Poll = 25 * time.Millisecond
	}
	srv, err := New(fc.Server)
	if err != nil {
		return nil, err
	}
	f := &Follower{srv: srv, cfg: fc, logger: fc.Logger,
		rep: obs.NewReplicationMetrics(srv.Registry())}
	if fc.CheckpointDir != "" {
		store, err := ckpt.Open(fc.CheckpointDir,
			ckpt.WithMaxPayload(srv.cfg.MaxCheckpointBytes), ckpt.WithStoreLogger(fc.Logger))
		if err != nil {
			return nil, fmt.Errorf("follower: opening checkpoint store: %w", err)
		}
		if err := srv.recoverFromStore(store, fc.Logger); err != nil {
			return nil, fmt.Errorf("follower: %w", err)
		}
	}
	srv.SetReady(true)
	return f, nil
}

// Server exposes the underlying replica server (tests and the serving
// binary read its views and registry through it).
func (f *Follower) Server() *Server { return f.srv }

// Promoted reports whether the follower has taken over as leader.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Run tails the log until ctx is canceled or the log turns definitively
// corrupt, applying each record as it becomes durable. It is meant to be
// run in its own goroutine; GET handlers serve concurrently from the
// published views throughout.
func (f *Follower) Run(ctx context.Context) error {
	f.mu.Lock()
	if f.running || f.promoted.Load() {
		f.mu.Unlock()
		return errors.New("follower: already running or promoted")
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

// applyRecord is the server's applyRecord with the disc_replica_* instruments
// around it: while a record is being applied the lag gauge shows how far it
// reaches past the replica. Caller holds the server's mutex.
func (f *Follower) applyRecord(rec *walRecord) error {
	s := f.srv
	if end := rec.end(); end > s.ingested {
		f.rep.Lag.Set(float64(end-s.ingested) / float64(s.cfg.Stride))
	}
	if err := s.applyRecord(rec); err != nil {
		return err
	}
	f.rep.Lag.Set(0)
	f.rep.Records.Inc()
	f.rep.Points.Add(int64(len(rec.Points)))
	return nil
}

// Promote turns the follower into a leader: stop tailing, drain whatever
// complete records remain, repair the log's torn tail (if the dead
// leader was mid-append), reopen it for appending, and enable the write
// path. Only call it once the old leader is known dead — two appenders
// on one log would interleave corruptly.
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
	// corrupt tail stops the drain at exactly the boundary OpenWAL will
	// repair the log to.
	if _, err := s.replayToDamage(f.reader, f.applyRecord, f.logger); err != nil {
		return fmt.Errorf("follower: draining log for promotion: %w", err)
	}
	f.reader.Close()
	w, err := ckpt.OpenWAL(f.cfg.WALDir,
		ckpt.WithWALObserver(s.sm.WAL), ckpt.WithWALLogger(f.logger),
		ckpt.WithWALMaxPayload(s.walRecordMaxPayload()))
	if err != nil {
		return fmt.Errorf("follower: reopening log for append: %w", err)
	}
	s.AttachWAL(w)
	f.promoted.Store(true)
	if f.logger != nil {
		f.logger.Info("follower promoted to leader", "stride", s.Strides())
		if f.cfg.CheckpointDir != "" {
			f.logger.Warn("promoted leader writes no checkpoints and never prunes its log; restart it as a leader to resume both",
				"checkpoint_dir", f.cfg.CheckpointDir)
		}
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
