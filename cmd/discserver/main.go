// Command discserver runs the DISC stream-clustering HTTP service: ingest
// points, query clusters and their evolution over a sliding window, and
// scrape live telemetry. The process is multi-tenant — it hosts many
// independent streams, each with its own engine, window, clustering
// parameters, and durable directory; the flags configure the always-on
// "default" stream, which also serves as the template for streams created
// at runtime. With -wal-dir every stream logs each acknowledged batch,
// checkpoints itself into the same directory once per window turnover (the
// batch that completes every ceil(window/stride)th stride captures it, one
// shared writer goroutine persists it), prunes the log behind its
// checkpoints, and recovers from its newest valid checkpoint and the log
// past it when registered. The registry hosts at most 1024
// streams, the first 32 with a metric label of their own.
//
// Usage:
//
//	discserver -addr :8080 -dims 2 -eps 0.5 -minpts 5 -window 10000 -stride 500 \
//	    -wal-dir /var/lib/discserver
//
// Stream registry:
//
//	POST   /streams          create a stream: {"name","dims","eps","minPts",
//	                         "window","stride"} — omitted fields inherit
//	                         the default stream's template
//	GET    /streams          list streams with config and live counters
//	DELETE /streams/{name}   unregister a stream ("default" is undeletable)
//
// Per-stream endpoints (the historical unprefixed routes remain as aliases
// for the default stream):
//
//	POST /streams/{name}/ingest        JSON array of {"id":1,"time":2,"coords":[x,y]}
//	GET  /streams/{name}/clusters      cluster census of the current window
//	GET  /streams/{name}/points/{id}   assignment of one point
//	GET  /streams/{name}/events        cluster-evolution log (?since=<seq>)
//	GET  /streams/{name}/stats         engine work counters and configuration
//	GET  /streams/{name}/checkpoint    binary stream checkpoint
//	POST /streams/{name}/checkpoint    restore the stream and resume
//	GET  /streams/{name}/readyz        per-stream readiness
//	GET  /streams/{name}/debug/traces  recorded ingest span trees (with -trace)
//
// The query endpoints are lock-free: they serve an immutable per-stride
// view (reads never block ingestion, and streams never block each other)
// and stamp each response with the stride it reflects via X-Disc-Stride
// and a strong ETag (If-None-Match returns 304 until the next stride).
//
//	GET  /metrics       Prometheus text exposition, stream-labeled series
//	GET  /debug/vars    expvar JSON (registry published as "disc")
//	GET  /debug/pprof/  runtime profiles (only with -pprof)
//	GET  /healthz       process liveness
//
// Durability and replication: with -wal-dir every acknowledged ingest
// batch is framed and fsynced to a per-stream write-ahead log before its
// 200, so a crash between checkpoints loses nothing a client was told was
// applied, and the checkpoints beside it keep the log bounded. Batches may
// carry an X-Disc-Seq (plus X-Disc-Client) header; re-delivering an
// acknowledged (client, seq) answers 200 with the original body and
// X-Disc-Deduped: 1 instead of re-applying, making at-least-once delivery
// exactly-once. With -follow <dir> the process runs as a read-only replica:
// it restores the newest checkpoint in the leader's directory, tails the log
// from there, replays every batch through its own engine (bit-identical
// state), serves the full GET surface, and becomes the leader on POST
// /promote — a leader like any other: it checkpoints into that directory
// once per window turnover and prunes the log. Every process
// recovers before it listens, and a stride is applied inside the ingest that
// completes it, so /readyz has neither a recovery gate nor a backlog gate.
//
// On SIGINT/SIGTERM the server shuts down gracefully: in-flight requests
// (including a final checkpoint download or metrics scrape) get up to
// -drain to complete before the listener closes, and — with -wal-dir — a
// final checkpoint generation is written for every stream so a restart
// replays as little of the log as possible.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"disc/internal/geom"
	"disc/internal/model"
	"disc/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dims := flag.Int("dims", 2, "coordinates per point (1-4)")
	eps := flag.Float64("eps", 1.0, "distance threshold ε")
	minPts := flag.Int("minpts", 5, "density threshold τ")
	win := flag.Int("window", 10000, "sliding window size in points")
	stride := flag.Int("stride", 500, "stride size in points")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	walDir := flag.String("wal-dir", "",
		"durable directory: per-stream write-ahead logs (every acknowledged ingest batch is fsynced before its 200) and their checkpoints (empty = in memory)")
	follow := flag.String("follow", "",
		"run as a read-only follower of this leader directory: restore its newest checkpoint, tail its log (serves the GET surface and POST /promote; single stream)")
	traceOn := flag.Bool("trace", true, "record ingest span trees and serve GET /debug/traces")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// Validate the clustering flags up front with flag-level messages: a
	// typo'd -dims or a negative -eps must die here with the offending flag
	// named, not as a downstream construction error (or, worse, a NaN that
	// slips past a bare positivity check into distance comparisons).
	if err := validateFlags(*dims, *eps, *minPts, *win, *stride, *follow, *walDir); err != nil {
		fatal("discserver: invalid flags", "err", err)
	}

	cfg := server.Config{
		Cluster:     model.Config{Dims: *dims, Eps: *eps, MinPts: *minPts},
		Window:      *win,
		Stride:      *stride,
		EnablePprof: *pprofOn,
		Tracing:     *traceOn,
	}
	if *follow != "" {
		// Read-only replica mode: tail the leader's write-ahead log, serve
		// the GET surface from replayed state, and turn into a leader on POST
		// /promote. A definitively corrupt log is fatal (the replica must not
		// silently serve a prefix of the stream forever). Once promoted, Run
		// drives the checkpoints, final generation included.
		f, err := server.NewFollower(server.FollowerConfig{
			Server: cfg, WALDir: *follow, Logger: logger,
		})
		if err != nil {
			fatal("discserver: starting follower", "err", err)
		}
		logger.Info("discserver following", "addr", *addr, "dir", *follow)
		if err := serve(logger, *addr, f.Handler(), *drain, f.Run); err != nil {
			fatal("discserver: follower", "err", err)
		}
		return
	}
	// NewMulti recovers the default stream from its newest valid checkpoint
	// and its log before returning (hard error if a checkpoint exists but
	// does not restore — starting fresh would silently discard the window
	// the operator meant to keep), before the listener opens.
	m, err := server.NewMulti(server.MultiConfig{Default: cfg, WALDir: *walDir, Logger: logger})
	if err != nil {
		fatal("discserver: starting service", "err", err)
	}
	logger.Info("discserver listening",
		"addr", *addr, "eps", *eps, "minpts", *minPts, "window", *win, "stride", *stride,
		"pprof", *pprofOn, "trace", *traceOn, "wal_dir", *walDir)
	// The background task is the checkpoint writer (a no-op without
	// -wal-dir): waiting for it after the drain lets it write its
	// final shutdown checkpoints — the listener is closed by then, so no new
	// strides can arrive while they are written.
	err = serve(logger, *addr, m.Handler(), *drain, func(ctx context.Context) error {
		m.RunCheckpoints(ctx)
		return nil
	})
	if err != nil {
		fatal("discserver", "err", err)
	}
}

// serve listens on addr with background running beside it, both until
// SIGINT/SIGTERM; then it drains — Shutdown stops the listener and waits for
// in-flight handlers (a checkpoint save mid-write, a scrape) up to the
// deadline instead of cutting them off — and waits for background to return.
// background may return nil early and the listener keeps serving; an error
// from it, or from the listener, ends serve at once.
func serve(logger *slog.Logger, addr string, h http.Handler, drain time.Duration, background func(context.Context) error) error {
	httpServer := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 5 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	bg := make(chan error, 1)
	go func() { bg <- background(ctx) }()
	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	for running := true; running; {
		select {
		case err := <-errc:
			return fmt.Errorf("serve failed: %w", err)
		case err := <-bg:
			if err != nil {
				return fmt.Errorf("background task failed: %w", err)
			}
			bg = nil
		case <-ctx.Done():
			running = false
		}
	}
	stop()
	logger.Info("signal received, draining", "deadline", drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpServer.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve failed: %w", err)
	}
	if bg != nil {
		if err := <-bg; err != nil {
			return fmt.Errorf("background task failed: %w", err)
		}
	}
	logger.Info("shut down cleanly")
	return nil
}

// validateFlags rejects unusable clustering parameters and flag combinations
// with messages that name the offending flag.
func validateFlags(dims int, eps float64, minPts, win, stride int, follow, walDir string) error {
	if dims < 1 || dims > geom.MaxDims {
		return fmt.Errorf("-dims must be 1-%d, got %d", geom.MaxDims, dims)
	}
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps <= 0 {
		return fmt.Errorf("-eps must be positive and finite, got %g", eps)
	}
	if minPts < 1 {
		return fmt.Errorf("-minpts must be at least 1, got %d", minPts)
	}
	if win <= 0 {
		return fmt.Errorf("-window must be positive, got %d", win)
	}
	if stride <= 0 {
		return fmt.Errorf("-stride must be positive, got %d", stride)
	}
	if stride > win {
		return fmt.Errorf("-stride (%d) must not exceed -window (%d)", stride, win)
	}
	if follow != "" && walDir != "" {
		return fmt.Errorf("-follow and -wal-dir are mutually exclusive: a follower reads the leader's log (-follow %s) and appends to that same log once promoted", follow)
	}
	return nil
}
