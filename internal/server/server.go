// Package server provides an HTTP facade over a DISC engine: a minimal
// stream-clustering service that ingests points, advances a count-based
// sliding window, and answers cluster queries — the shape in which a
// monitoring deployment (the paper's traffic scenario) would consume the
// library. Everything is stdlib net/http.
//
// Concurrency model: the write path (ingest, checkpoint restore) is
// guarded by one mutex, matching the single-writer nature of the engine.
// The read path never takes that mutex — after every successful stride the
// ingest path publishes an immutable view behind an atomic pointer and the
// GET handlers serve from it (see view.go), so any number of queries
// proceed concurrently with each other and with ingestion.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disc/internal/ckpt"
	"disc/internal/core"
	"disc/internal/geom"
	"disc/internal/model"
	"disc/internal/obs"
	"disc/internal/trace"
	"disc/internal/window"
	"disc/internal/wire"
)

// Settings with one value in every deployment. They are package variables
// only so tests can lower them, like walSegmentBytes.
var (
	// eventLogCap bounds the in-memory cluster-evolution event ring.
	eventLogCap = 1024
	// maxIngestBytes bounds the request body of POST /ingest: 8 MiB of JSON
	// points; larger requests get 413. POST /checkpoint is bounded by what
	// the stream can write (checkpointMaxBytes).
	maxIngestBytes int64 = 8 << 20
)

// traceSlowThreshold retains any ingest trace at least this slow in the
// tracer's slow ring (trace.DefSlow traces; the recent ring keeps
// trace.DefRecent).
const traceSlowThreshold = 250 * time.Millisecond

// Config configures the service.
type Config struct {
	Cluster model.Config
	Window  int // sliding-window extent in points
	Stride  int // points per window advance
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose heap contents and should only be
	// reachable on trusted networks.
	EnablePprof bool
	// Tracing enables the span recorder and GET /debug/traces; off, the
	// write path pays one nil check per hook.
	Tracing bool
}

// Server is the HTTP handler set. Create with New, mount via Handler.
type Server struct {
	cfg Config

	// Telemetry. The registry's instruments are atomics, so /metrics and
	// /debug/vars scrape them without taking mu — scrapes never stall
	// ingestion and ingestion never stalls scrapes. The registry may be
	// shared with other streams (multi-tenant mode), in which case sm is a
	// {stream="<name>"}-labeled bundle from the shared pool.
	reg      *obs.Registry
	sm       *obs.StreamMetrics
	metrics  *obs.EngineMetrics
	ingestMx *obs.Counter // disc_ingested_points_total
	qm       *obs.QueryMetrics

	// tracer records ingest span trees when Config.Tracing is set; nil
	// otherwise. lastStride is the engine's record of the stride it last
	// completed, kept by the stream's observer under mu; a traced ingest
	// renders it into the request's trace.
	tracer     *trace.Tracer
	lastStride core.StrideRecord

	// view is the immutable read-path snapshot, replaced after every
	// successful stride and every restore (view.go). GET handlers only ever
	// Load it; they never acquire mu.
	view atomic.Pointer[publishedView]

	mu sync.Mutex
	// vs is the writer's half of the view: the state publish folds each
	// stride's assignment delta into.
	vs       viewState
	eng      *core.Engine
	slider   *window.CountSlider
	events   []eventRecord
	eventSeq uint64
	ingested uint64
	// wal, when attached, receives one durable record per acknowledged
	// ingest batch before the 200 leaves the mutex. walBroken latches a
	// failed append: later ingests answer 503 rather than acknowledging
	// batches a replica could never replay. seqs is the X-Disc-Seq dedup
	// window (wal.go).
	wal       *ckpt.WAL
	walBroken bool
	walBuf    []byte // walAppend's encode buffer, reused across batches
	seqs      *seqTable
	// runner, on a durable leader, takes a capture from the logged batch
	// that crosses a checkpoint boundary (attachLeader).
	runner *ckpt.Runner
	// viewEpoch distinguishes pre- and post-restore views in the ETag: a
	// restore can rewind the stride counter to a value whose content
	// differs from what a client cached under the same stride number.
	viewEpoch uint64
	// restored is the stride count of the generation recoverFromStore
	// restored, 0 if none: the log position attachLeader's first prune
	// keeps, since that generation stays in the store as a fallback.
	restored uint64

	// handlers holds the stream's handler for each streamRoutes entry, built
	// once: the serveView adapters close over the per-stream query metrics.
	handlers []http.HandlerFunc

	// testAdvanceErr, when non-nil, replaces the engine advance inside
	// apply. Test seam for the 409 rollback path: up-front batch
	// validation leaves it with no organic trigger, but it must stay
	// correct against engine-internal failures.
	testAdvanceErr func(*window.Step) error
}

type eventRecord struct {
	Seq     uint64 `json:"seq"`
	Stride  uint64 `json:"stride"`
	Type    string `json:"type"`
	Cluster int    `json:"cluster"`
	// Extra carries merged-away or split-off cluster ids when applicable.
	Extra []int `json:"extra,omitempty"`
	Cores int   `json:"cores"`
}

// New returns a service around a fresh DISC engine with its own private
// metrics registry (the historical single-stream shape).
func New(cfg Config) (*Server, error) {
	reg := obs.NewRegistry()
	return newServer(cfg, reg, obs.SingleStreamMetrics(reg))
}

// newServer builds a Server on an externally owned registry and instrument
// bundle — the seam the multi-tenant registry uses to share one registry
// (with per-stream labels) across every tenant's engine.
func newServer(cfg Config, reg *obs.Registry, sm *obs.StreamMetrics) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	slider, err := window.NewCountSlider(cfg.Window, cfg.Stride)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, slider: slider, reg: reg, sm: sm,
		seqs: newSeqTable(seqWindow, seqClients)}
	if cfg.Tracing {
		s.tracer = trace.NewTracer(trace.Config{SlowThreshold: traceSlowThreshold})
	}
	s.metrics = sm.Engine
	s.ingestMx = sm.Ingested
	s.qm = sm.Query
	s.eng = core.New(cfg.Cluster, s.engineOptions()...)
	for _, rt := range streamRoutes {
		s.handlers = append(s.handlers, rt.handler(s))
	}
	// Publish the empty stride-0 view so the read path serves (vacuously
	// consistent) answers before the first stride completes.
	s.publish()
	return s, nil
}

// validate rejects a configuration no stream can run: invalid clustering
// parameters, a window and stride the slider refuses, or a window larger than
// an engine can hold. The last also keeps every size derived from the window
// (checkpointMaxBytes, the view's tables) far from overflow.
func (c Config) validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.Window > core.MaxPoints {
		return fmt.Errorf("window %d exceeds the %d points an engine can hold", c.Window, core.MaxPoints)
	}
	if c.Window <= 0 || c.Stride <= 0 || c.Stride > c.Window {
		return fmt.Errorf("window %d and stride %d must be positive, the stride no larger", c.Window, c.Stride)
	}
	return nil
}

// engineOptions is how this server builds its engine, fresh or restored:
// the engine's defaults (ε-grid, MS-BFS, one worker) with the event ring and
// the stride observer attached. A checkpoint supplies state, never settings.
func (s *Server) engineOptions() []core.Option {
	return []core.Option{core.WithEventHandler(s.recordEvent), core.WithObserver(core.ObserverFunc(s.observeStride))}
}

// observeStride is the stream's engine observer: it feeds the stride
// metrics and keeps the record for the ingest trace.
func (s *Server) observeStride(rec core.StrideRecord) {
	s.metrics.ObserveStride(rec)
	s.lastStride = rec
}

// Registry exposes the server's metrics registry, e.g. to add
// process-level instruments before mounting the handler.
func (s *Server) Registry() *obs.Registry { return s.reg }

func (s *Server) recordEvent(ev core.Event) {
	s.eventSeq++
	rec := eventRecord{
		Seq:     s.eventSeq,
		Stride:  ev.Stride,
		Type:    ev.Type.String(),
		Cluster: ev.ClusterID,
		Cores:   ev.Cores,
	}
	switch ev.Type {
	case core.Merger:
		rec.Extra = ev.Absorbed
	case core.Split:
		rec.Extra = ev.NewClusters
	}
	s.events = append(s.events, rec)
	if len(s.events) > eventLogCap {
		s.events = s.events[len(s.events)-eventLogCap:]
	}
}

// streamRoutes is the per-stream HTTP surface, declared once and mounted
// three ways: bare by Server.Handler, bare on the default stream by
// Multi.Handler (the legacy aliases), and under /streams/{stream} by
// Multi.Handler. handler builds the route's handler for one stream; nil means
// that stream does not serve the route.
var streamRoutes = []struct {
	method, path string
	handler      func(*Server) http.HandlerFunc
}{
	{"POST", "/ingest", func(s *Server) http.HandlerFunc { return s.handleIngest }},
	{"GET", "/clusters", func(s *Server) http.HandlerFunc { return s.serveView("clusters", s.handleClusters) }},
	{"GET", "/points/{id}", func(s *Server) http.HandlerFunc { return s.serveView("point", s.handlePoint) }},
	{"GET", "/events", func(s *Server) http.HandlerFunc { return s.serveView("events", s.handleEvents) }},
	{"GET", "/stats", func(s *Server) http.HandlerFunc { return s.serveView("stats", s.handleStats) }},
	{"GET", "/checkpoint", func(s *Server) http.HandlerFunc { return s.handleCheckpointSave }},
	{"POST", "/checkpoint", func(s *Server) http.HandlerFunc { return s.handleCheckpointLoad }},
	{"GET", "/readyz", func(s *Server) http.HandlerFunc { return s.handleReady }},
	{"GET", "/debug/traces", func(s *Server) http.HandlerFunc {
		if s.tracer == nil {
			return nil
		}
		return s.tracer.Handler().ServeHTTP
	}},
}

// mount registers the stream's routes on mux without a prefix.
func (s *Server) mount(mux *http.ServeMux) {
	for i, rt := range streamRoutes {
		if h := s.handlers[i]; h != nil {
			mux.Handle(rt.method+" "+rt.path, h)
		}
	}
}

// mountProcessRoutes registers the routes that belong to the process rather
// than to a stream: liveness, the metrics scrape, expvar and (opt-in) pprof.
func mountProcessRoutes(mux *http.ServeMux, reg *obs.Registry, enablePprof bool) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("GET /metrics", reg.Handler())
	// expvar: the registry is published process-wide under "disc"
	// (first server wins — expvar names cannot be unpublished), alongside
	// the standard cmdline/memstats vars.
	reg.PublishExpvar("disc")
	mux.Handle("GET /debug/vars", expvar.Handler())
	if enablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// Handler returns the route multiplexer.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.mount(mux)
	mountProcessRoutes(mux, s.reg, s.cfg.EnablePprof)
	return mux
}

// handleReady is the readiness probe, distinct from /healthz liveness. A
// stream recovers before any handler can reach it, and apply leaves no
// backlog behind the engine, so a stream that answers is ready.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// checkpointEnvelope carries the engine snapshot plus the service's own
// stream position: the window contents in arrival order (pending partial
// strides are dropped — checkpoints represent the last stride boundary).
// codec.go has its byte layout.
type checkpointEnvelope struct {
	// Dims is how many coordinates each window point carries on the wire; 0
	// in an envelope decoded from gob, which wrote all of them.
	Dims     int
	Engine   []byte
	Window   []model.Point
	Ingested uint64
	EventSeq uint64
	// Seqs is the X-Disc-Seq dedup table, sorted by client name so the
	// envelope's bytes are a deterministic function of stream content
	// (absent in pre-WAL checkpoints; gob restores it as empty).
	Seqs []persistedClient
}

// ErrCheckpointMismatch reports a checkpoint whose clustering
// configuration (dims, eps, minPts) differs from the serving
// configuration. Accepting one would leave ingest validating coordinates
// against the wrong dimensionality and clustering under the wrong
// thresholds, so restore paths reject it (HTTP 409).
var ErrCheckpointMismatch = errors.New("checkpoint/config mismatch")

// errBadCheckpoint marks checkpoints that fail to decode or validate
// structurally (HTTP 400).
var errBadCheckpoint = errors.New("bad checkpoint")

// errLogAttached refuses a restore on a write-ahead-logged stream (HTTP 409).
// A restore rewinds the stream position while the attached log keeps its
// records, so batches acknowledged afterwards would be appended at positions
// the log already covers and skipped by every later replay. Start-up recovery
// restores before it attaches the log and never meets this.
var errLogAttached = errors.New("stream has a write-ahead log attached: restoring a checkpoint under it would fork the log (later batches would land at positions it already covers and be lost on replay); stop the process, make the checkpoint the newest generation in the stream's log directory (removing the log segments if the checkpoint predates them), and restart")

// Strides returns the number of window advances processed. Together with
// WriteCheckpoint this makes the server a ckpt.Source, which the checkpoint
// runner reads for its shutdown final. It reads the published view, so it
// never contends with ingest.
func (s *Server) Strides() uint64 { return s.view.Load().strides }

// WriteCheckpoint writes a restorable snapshot of the service — engine
// state plus stream position — to w: capture under the server mutex, encode
// outside it. Equal states write equal bytes.
func (s *Server) WriteCheckpoint(w io.Writer) error {
	s.mu.Lock()
	encode := s.capture()
	s.mu.Unlock()
	b, err := encode()
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// capture is the locked half of a checkpoint, shared by WriteCheckpoint and
// the batch that crosses a checkpoint boundary: the engine's snapshot encode
// and a copy of the window and stream position. It returns the unlocked
// half, which assembles the envelope's bytes. Caller holds s.mu.
func (s *Server) capture() (encode func() ([]byte, error)) {
	var engBuf bytes.Buffer
	if err := s.eng.SaveSnapshot(&engBuf); err != nil {
		return func() ([]byte, error) { return nil, err }
	}
	env := &checkpointEnvelope{
		Dims:     s.cfg.Cluster.Dims,
		Engine:   engBuf.Bytes(),
		Window:   append([]model.Point(nil), s.slider.Window()...),
		Ingested: s.ingested,
		EventSeq: s.eventSeq,
		Seqs:     s.seqs.persist(),
	}
	return func() ([]byte, error) {
		// Sized for the usual case: ids and times that take two bytes a row.
		size := len(env.Engine) + len(env.Window)*(4+8*env.Dims) + 1024
		return appendEnvelope(make([]byte, 0, size), env), nil
	}
}

// ReadCheckpoint replaces the engine and stream position with the
// checkpoint read from r; ingestion then resumes exactly where the
// checkpoint was taken. It returns the restored window size. Errors wrap
// errBadCheckpoint for undecodable or invalid input and ErrCheckpointMismatch
// for a checkpoint taken under a different clustering configuration; a stream
// with a write-ahead log attached refuses with errLogAttached.
func (s *Server) ReadCheckpoint(r io.Reader) (int, error) {
	body, err := wire.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("reading checkpoint: %w", err)
	}
	env, err := decodeEnvelope(body)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", errBadCheckpoint, err)
	}
	eng, err := core.LoadEngine(bytes.NewReader(env.Engine), s.engineOptions()...)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", errBadCheckpoint, err)
	}
	if got, want := eng.Config(), s.cfg.Cluster; got != want {
		return 0, fmt.Errorf("%w: checkpoint built with dims=%d eps=%g minPts=%d, server runs dims=%d eps=%g minPts=%d",
			ErrCheckpointMismatch, got.Dims, got.Eps, got.MinPts, want.Dims, want.Eps, want.MinPts)
	}
	if env.Dims != 0 && env.Dims != s.cfg.Cluster.Dims {
		return 0, fmt.Errorf("%w: window points carry %d dimensions, the engine snapshot %d",
			errBadCheckpoint, env.Dims, s.cfg.Cluster.Dims)
	}
	// The engine snapshot has its own integrity checks; the window payload
	// needs the same ingest-grade validation — a NaN coordinate restored
	// here would poison cell keys and distance comparisons for the life
	// of the window, and a duplicated id would abort a later stride.
	if err := checkCoords(env.Window, s.cfg.Cluster.Dims); err != nil {
		return 0, fmt.Errorf("%w: window %w", errBadCheckpoint, err)
	}
	seen := make(map[int64]struct{}, len(env.Window))
	for i, p := range env.Window {
		if _, dup := seen[p.ID]; dup {
			return 0, fmt.Errorf("%w: window point %d duplicates id %d", errBadCheckpoint, i, p.ID)
		}
		seen[p.ID] = struct{}{}
	}
	slider, err := window.NewCountSlider(s.cfg.Window, s.cfg.Stride)
	if err != nil {
		return 0, err
	}
	if err := slider.RestoreWindow(env.Window); err != nil {
		return 0, fmt.Errorf("%w: %w", errBadCheckpoint, err)
	}
	// The dedup table is as untrusted as the window: unchecked, an upload
	// could exceed every bound the live table keeps, or hand lookup's binary
	// search an unsorted row.
	if err := checkSeqs(env.Seqs); err != nil {
		return 0, fmt.Errorf("%w: %w", errBadCheckpoint, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		return 0, errLogAttached
	}
	s.eng = eng
	s.slider = slider
	s.ingested = env.Ingested
	s.eventSeq = env.EventSeq
	s.events = nil
	s.seqs.restore(env.Seqs)
	// The telemetry counter must agree with the restored stream position,
	// or /stats and /metrics disagree forever after a restore. Skipped on
	// a shared overflow bundle: that counter aggregates several streams,
	// and forcing it to one stream's position would erase the others.
	if s.sm.Dedicated {
		s.ingestMx.Set(int64(env.Ingested))
	}
	// Readers must see the restored world immediately — and must be able
	// to tell it apart from the pre-restore world even when the stride
	// counter rewound to a number they already cached, hence the epoch.
	s.viewEpoch++
	s.publish()
	return eng.WindowSize(), nil
}

// openStore opens the checkpoint generation directory dir, capping what
// recovery reads at the server's checkpoint bound. Opening only reads the
// directory, so a follower may open a live leader's.
func (s *Server) openStore(dir string, logger *slog.Logger) (*ckpt.Store, error) {
	store, err := ckpt.Open(dir, ckpt.WithMaxPayload(s.checkpointMaxBytes()), ckpt.WithStoreLogger(logger))
	if err != nil {
		return nil, fmt.Errorf("opening checkpoint store: %w", err)
	}
	return store, nil
}

// recoverFromStore restores the server from the newest valid generation in
// the store in dir — the start-up policy of a stream and of a follower
// alike: no checkpoint → fresh, no valid checkpoint → warn and fresh, a
// checkpoint that fails to restore or exceeds this stream's bound → hard
// error (starting fresh would silently discard the window the operator
// meant to keep, and the next checkpoints would prune it).
func (s *Server) recoverFromStore(dir string, logger *slog.Logger) error {
	store, err := s.openStore(dir, logger)
	if err != nil {
		return err
	}
	payload, gen, err := store.Recover()
	switch {
	case err == nil:
		restored, err := s.ReadCheckpoint(bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("checkpoint generation %d does not restore: %w", gen, err)
		}
		s.restored = s.Strides()
		if logger != nil {
			logger.Info("recovered from checkpoint",
				"generation", gen, "bytes", len(payload), "window_points", restored, "stride", s.Strides())
		}
	case errors.Is(err, ckpt.ErrTooLarge):
		return fmt.Errorf("checkpoint is larger than a window of %d points can write: %w", s.cfg.Window, err)
	case errors.Is(err, ckpt.ErrNoCheckpoint):
		if logger != nil {
			logger.Info("no checkpoint found, starting fresh")
		}
	case errors.Is(err, ckpt.ErrNoValidCheckpoint):
		if logger != nil {
			logger.Warn("checkpoints exist but none is valid, starting fresh", "err", err)
		}
	default:
		return fmt.Errorf("checkpoint recovery: %w", err)
	}
	return nil
}

// handleCheckpointSave streams a binary service checkpoint. The body is
// buffered first so Content-Length names the complete encoding: without
// it a client whose connection dropped mid-download would hold a
// truncated checkpoint indistinguishable from a complete one. A failed
// write is logged, not 500'd — the status already left.
func (s *Server) handleCheckpointSave(w http.ResponseWriter, _ *http.Request) {
	// Encode to a buffer first: an encoding failure after the first body
	// byte could not change the status code anymore.
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		slog.Warn("server: writing checkpoint response", "err", err)
	}
}

// handleCheckpointLoad restores the service from a posted checkpoint:
// 400 for undecodable input, 409 for a configuration mismatch or a stream
// with a write-ahead log attached, 413 for a body larger than any checkpoint
// the stream can write.
func (s *Server) handleCheckpointLoad(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.checkpointMaxBytes()))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("checkpoint exceeds %d bytes", mbe.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading checkpoint: "+err.Error(), http.StatusBadRequest)
		return
	}
	restored, err := s.ReadCheckpoint(bytes.NewReader(body))
	switch {
	case errors.Is(err, ErrCheckpointMismatch), errors.Is(err, errLogAttached):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, errBadCheckpoint):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		writeJSON(w, map[string]any{"restored": restored})
	}
}

// ingestPoint is the wire form of one point.
type ingestPoint struct {
	ID     int64     `json:"id"`
	Time   int64     `json:"time"`
	Coords []float64 `json:"coords"`
}

type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Strides  uint64 `json:"strides"`
	Window   int    `json:"window"`
}

// ingestError is the body of a failed ingest: Applied says how many points
// of the batch made it into the stream before the failure, so the client
// knows exactly where to resume (or what it must not re-send).
type ingestError struct {
	Error   string `json:"error"`
	Applied int    `json:"applied"`
}

// maxClientName bounds X-Disc-Client: the name is stored verbatim in the
// dedup table, in every WAL record of the client and in every checkpoint.
const maxClientName = 128

// handleIngest accepts a JSON array of points and pushes them through the
// sliding window, advancing the engine whenever a stride completes and
// publishing a fresh read view after each successful advance. The batch is
// atomic with respect to validation: every point is checked before any is
// pushed — wrong dimensionality, non-finite coordinates, ids duplicated
// within the batch or against the resident window all reject the whole
// batch with 400 and zero side effects. If the engine itself rejects an
// advance mid-batch, the 409 body reports how many points were applied so
// the client knows where to resume.
//
// The request passes through two stages: decodeIngest, which needs nothing
// but the request and runs before the stream's mutex is taken, and
// commitIngest, which holds it.
//
// When tracing is enabled each request records a span tree — ingest →
// decode/validate → one advance (with its engine phase children) and
// publish per completed stride — into a trace whose id either came
// from the client's W3C traceparent header or was minted here; the id is
// echoed in the X-Disc-Trace response header and the completed trace is
// queryable at GET /debug/traces.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var tr *trace.Trace
	var root *trace.Span
	if s.tracer != nil {
		tr = s.tracer.StartTrace(trace.ParseTraceparent(r.Header.Get("traceparent")))
		root = tr.StartSpan("ingest", nil)
		w.Header().Set("X-Disc-Trace", tr.ID().String())
		defer func() {
			root.EndNow()
			s.tracer.Finish(tr)
		}()
	}
	spDecode := tr.StartSpan("decode", root)
	rec, status, msg := s.decodeIngest(w, r)
	spDecode.SetInt("batch", len(rec.Points))
	spDecode.EndNow()
	if status != 0 {
		http.Error(w, msg, status)
		return
	}
	root.SetInt("batch", len(rec.Points))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitIngest(w, &rec, tr, root)
}

// decodeIngest turns a request into the batch it asks to apply — the
// idempotency headers and the points — deciding everything that can be decided
// without looking at the stream. A non-zero status rejects the request.
func (s *Server) decodeIngest(w http.ResponseWriter, r *http.Request) (rec walRecord, status int, msg string) {
	// Idempotency headers: an optional client-chosen sequence number per
	// batch. A batch re-sent under the same (client, seq) after a lost
	// response is answered from the dedup window with its original 200
	// instead of being re-applied (or 400-rejected as a duplicate).
	rec.Client = r.Header.Get("X-Disc-Client")
	if len(rec.Client) > maxClientName {
		return rec, http.StatusBadRequest, fmt.Sprintf("X-Disc-Client must be at most %d bytes, got %d", maxClientName, len(rec.Client))
	}
	if h := r.Header.Get("X-Disc-Seq"); h != "" {
		v, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			return rec, http.StatusBadRequest, "X-Disc-Seq must be an unsigned integer: " + err.Error()
		}
		rec.Seq, rec.HasSeq = v, true
		if rec.Client == "" {
			rec.Client = "default"
		}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return rec, http.StatusRequestEntityTooLarge, fmt.Sprintf("ingest body exceeds %d bytes", mbe.Limit)
		}
		return rec, http.StatusBadRequest, "reading body: " + err.Error()
	}
	if rec.Points, err = decodeBatch(body, s.cfg.Cluster.Dims); err != nil {
		return rec, http.StatusBadRequest, err.Error()
	}
	return rec, 0, ""
}

// decodeBatch parses an ingest body and checks everything about the batch
// that does not depend on the stream's state.
func decodeBatch(body []byte, dims int) ([]model.Point, error) {
	var batch []ingestPoint
	if err := json.Unmarshal(body, &batch); err != nil {
		return nil, fmt.Errorf("body must be a JSON array of {id,time,coords}: %w", err)
	}
	pts, err := toPoints(batch, dims)
	if err != nil {
		return nil, fmt.Errorf("%w (no points applied)", err)
	}
	return pts, nil
}

// toPoints converts wire points to model points — the one conversion, so the
// slider and the log see the same values — rejecting a wrong coordinate
// count, non-finite values (NaN/Inf corrupt distance comparisons and index
// cell keys) and an id that occurs twice in the batch.
func toPoints(batch []ingestPoint, dims int) ([]model.Point, error) {
	pts := make([]model.Point, len(batch))
	seen := make(map[int64]int, len(batch))
	for i, ip := range batch {
		if len(ip.Coords) != dims {
			return nil, fmt.Errorf("point %d: got %d coords, want %d", i, len(ip.Coords), dims)
		}
		for d, c := range ip.Coords {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("point %d (id %d): coordinate %d is non-finite (%v)", i, ip.ID, d, c)
			}
		}
		if j, dup := seen[ip.ID]; dup {
			return nil, fmt.Errorf("point %d duplicates id %d of point %d in the same batch (intra-batch duplicate: the batch itself is malformed; fix it and resend)", i, ip.ID, j)
		}
		seen[ip.ID] = i
		pts[i] = model.Point{ID: ip.ID, Time: ip.Time, Pos: geom.NewVec(ip.Coords...)}
	}
	return pts, nil
}

// commitIngest is the stage under s.mu: look the batch up in the dedup
// window, check it against the resident window, apply it, and make it durable
// before acknowledging it. rec arrives with Client, Seq, HasSeq and Points
// set; Start and Resp are filled in here.
func (s *Server) commitIngest(w http.ResponseWriter, rec *walRecord, tr *trace.Trace, root *trace.Span) {
	const logFailed = "write-ahead log failed; stream is read-only until repaired"
	if s.walBroken {
		http.Error(w, logFailed, http.StatusServiceUnavailable)
		return
	}
	if rec.HasSeq {
		if resp, hit, tooOld := s.seqs.lookup(rec.Client, rec.Seq); hit {
			// Exactly-once apply under at-least-once delivery: the batch was
			// already applied and acknowledged; replay the original body.
			w.Header().Set("X-Disc-Deduped", "1")
			writeBody(w, http.StatusOK, resp)
			return
		} else if tooOld {
			writeJSONStatus(w, http.StatusConflict, ingestError{
				Error: fmt.Sprintf("seq %d for client %q is below the dedup window (last %d sequence numbers kept): cannot prove whether the batch was applied",
					rec.Seq, rec.Client, s.seqs.window),
			})
			return
		}
	}
	spValidate := tr.StartSpan("validate", root)
	resident := slices.IndexFunc(rec.Points, func(p model.Point) bool { return s.slider.Contains(p.ID) })
	spValidate.EndNow()
	if resident >= 0 {
		http.Error(w, fmt.Sprintf("point %d: id %d is still resident in the window (window-resident duplicate: if this is a retry of a batch whose response was lost, the batch may already be fully applied and retrying it is unsafe; send an X-Disc-Seq header to make retries idempotent) (no points applied)",
			resident, rec.Points[resident].ID), http.StatusBadRequest)
		return
	}
	rec.Start = s.ingested
	before := uint64(s.eng.Stats().Strides)
	applied, err := s.apply(rec.Points, tr, root)
	if err != nil {
		// The applied prefix is in the stream, so it must be in the log too,
		// or a replica replaying past this point diverges. No sequence
		// number: a partial apply must not be dedup-replayed as if it had
		// succeeded.
		if applied > 0 && s.walAppend(&walRecord{Start: rec.Start, Points: rec.Points[:applied]}) != nil {
			http.Error(w, logFailed, http.StatusServiceUnavailable)
			return
		}
		writeJSONStatus(w, http.StatusConflict, ingestError{Error: err.Error(), Applied: applied})
		return
	}
	after := uint64(s.eng.Stats().Strides)
	rec.Resp, err = json.Marshal(ingestResponse{
		Accepted: len(rec.Points),
		Strides:  after,
		Window:   s.eng.WindowSize(),
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rec.Resp = append(rec.Resp, '\n') // match the writeJSON encoder framing
	// Durability before acknowledgment: the record (including the exact
	// body about to be sent) is framed and fsynced while the mutex is
	// still held, and an acknowledged batch can always be replayed.
	if len(rec.Points) > 0 || rec.HasSeq {
		if s.walAppend(rec) != nil {
			http.Error(w, logFailed, http.StatusServiceUnavailable)
			return
		}
	}
	s.recordSeq(rec)
	// A batch that crossed a checkpoint boundary hands the runner its
	// capture. Logged and in the dedup table by now, so a checkpoint can
	// never capture un-logged state.
	if s.runner != nil {
		s.runner.Offer(before, after, func() ckpt.Capture {
			return ckpt.Capture{Strides: after, Trace: tr.Context(root), Encode: s.capture()}
		})
	}
	writeBody(w, http.StatusOK, rec.Resp)
}

// apply is the stream's one write path: live ingest, crash recovery, follower
// tailing and promotion all push their points through it, which is what makes
// a replayed batch do exactly what the live batch did. Each point goes into
// the slider; a point that completes a stride advances the engine and, once
// the engine has accepted the stride, publishes the new view before the next
// point is touched — that view is the one the paper's exactness guarantee is
// about. So no backlog builds up behind the engine: between calls the
// slider's partial stride is shorter than the window while it fills and
// shorter than the stride after. If the engine refuses a stride the
// triggering point is rolled back out of the slider, leaving both at the
// pre-push stream position (without that the slider runs one stride ahead of
// the engine forever), and apply returns how many points went in before it.
// With a trace active each accepted stride's record is rendered under root in
// tr; a refused stride renders nothing. Caller holds s.mu.
func (s *Server) apply(pts []model.Point, tr *trace.Trace, root *trace.Span) (applied int, err error) {
	for _, p := range pts {
		step := s.slider.Push(p)
		if step != nil {
			if err := s.safeAdvance(step); err != nil {
				s.slider.Rewind(step)
				return applied, err
			}
			obs.RenderStride(tr, root, &s.lastStride)
		}
		applied++
		s.ingested++
		s.ingestMx.Inc()
		if step == nil {
			continue
		}
		spPub := tr.StartSpan("publish", root)
		s.publish()
		spPub.EndNow()
	}
	return applied, nil
}

// safeAdvance converts engine protocol panics (duplicate ids and the like)
// into HTTP-reportable errors rather than crashing the service.
func (s *Server) safeAdvance(step *window.Step) (err error) {
	if s.testAdvanceErr != nil {
		return s.testAdvanceErr(step)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rejected: %v", r)
		}
	}()
	s.eng.Advance(step.In, step.Out)
	return nil
}

// appendClusters renders the /clusters body byte for byte as encoding/json
// renders a clustersResponse (a nil cluster list is null there): the body
// runs to thousands of rows, it sits inside every ingest-to-visible sample,
// and reflection was most of its cost.
func (v *publishedView) appendClusters(b []byte) []byte {
	b = append(b, `{"strides":`...)
	b = strconv.AppendUint(b, v.strides, 10)
	b = append(b, `,"window":`...)
	b = strconv.AppendInt(b, int64(v.stats.Resident), 10)
	b = append(b, `,"noise":`...)
	b = strconv.AppendInt(b, int64(v.noise), 10)
	b = append(b, `,"clusters":`...)
	if len(v.census) == 0 {
		return append(b, "null}\n"...)
	}
	sep := byte('[')
	for _, r := range v.census {
		b = append(b, sep)
		sep = ','
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(r.id), 10)
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, int64(r.size()), 10)
		b = append(b, `,"cores":`...)
		b = strconv.AppendInt(b, int64(r.cores), 10)
		b = append(b, `,"borders":`...)
		b = strconv.AppendInt(b, int64(r.borders), 10)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// handleClusters serves the census of the pinned view, which is kept in
// response order: one pass of integer formatting, no locking.
func (s *Server) handleClusters(v *publishedView, w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, v.appendClusters(make([]byte, 0, 64+56*len(v.census))))
}

type pointResponse struct {
	ID      int64  `json:"id"`
	Label   string `json:"label"`
	Cluster int    `json:"cluster"`
}

// handlePoint answers from the pinned view's assignment table — the exact
// per-point labels of the view's stride.
func (s *Server) handlePoint(v *publishedView, w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(strings.TrimSpace(r.PathValue("id")), 10, 64)
	if err != nil {
		http.Error(w, "bad point id", http.StatusBadRequest)
		return
	}
	a, ok := v.assignment(id)
	if !ok {
		http.Error(w, "point not in the current window", http.StatusNotFound)
		return
	}
	writeJSON(w, pointResponse{ID: id, Label: a.Label.String(), Cluster: a.ClusterID})
}

// handleEvents filters the pinned view's event tail by the optional
// ?since= sequence cursor.
func (s *Server) handleEvents(v *publishedView, w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "bad since", http.StatusBadRequest)
			return
		}
		since = n
	}
	// Non-nil so an empty result renders as the JSON [] clients expect,
	// never null.
	out := []eventRecord{}
	for _, ev := range v.events {
		if ev.Seq > since {
			out = append(out, ev)
		}
	}
	writeJSON(w, out)
}

type statsResponse struct {
	Config    model.Config `json:"config"`
	Window    int          `json:"windowExtent"`
	Stride    int          `json:"stride"`
	Ingested  uint64       `json:"ingested"`
	Resident  int          `json:"resident"`
	Stats     model.Stats  `json:"stats"`
	EventSeq  uint64       `json:"eventSeq"`
	EventKept int          `json:"eventKept"`
}

// handleStats serves the pinned view's precomputed stats body. All
// counters (ingested, resident, event sequence) are the values as of the
// view's stride — the body can never mix stride N counters with stride
// N+1 state, and it always matches the X-Disc-Stride header.
func (s *Server) handleStats(v *publishedView, w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, v.stats)
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus encodes v to a buffer first, then writes the status and
// body. Encoding straight into the ResponseWriter would commit an implicit
// 200 on the first byte; an error after that could only bolt a second
// status (and an error string) onto a half-written JSON body. With the
// buffer, an encode failure becomes a clean 500 and a write failure — the
// client hung up — is logged and dropped, never a second WriteHeader.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody sends an already-encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		slog.Warn("server: writing response", "err", err)
	}
}
