// Package server provides an HTTP facade over a DISC engine: a minimal
// stream-clustering service that ingests points, advances a count-based
// sliding window, and answers cluster queries — the shape in which a
// monitoring deployment (the paper's traffic scenario) would consume the
// library. Everything is stdlib net/http.
//
// Concurrency model: the write path (ingest) is guarded by one mutex,
// matching the single-writer nature of the engine. The read path never
// takes that mutex — after every successful stride the ingest path
// publishes an immutable view behind an atomic pointer and the GET handlers
// serve from it (see view.go), so any number of queries proceed
// concurrently with each other and with ingestion.
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
	"strconv"
	"strings"
	"sync"
	"time"

	"disc/internal/ckpt"
	"disc/internal/core"
	"disc/internal/geom"
	"disc/internal/model"
	"disc/internal/obs"
	"disc/internal/trace"
)

// Settings with one value in every deployment. They are package variables
// only so tests can lower them, like walSegmentBytes.
var (
	// eventLogCap bounds the in-memory cluster-evolution event ring.
	eventLogCap = 1024
	// maxIngestBytes bounds the request body of POST /ingest: 8 MiB of JSON
	// points; larger requests get 413.
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

// Server is the HTTP handler set around one stream. Create with New, mount
// via Handler.
type Server struct {
	cfg Config

	// Telemetry. The registry's instruments are atomics, so /metrics and
	// /debug/vars scrape them without taking mu — scrapes never stall
	// ingestion and ingestion never stalls scrapes. The registry may be
	// shared with other streams (multi-tenant mode), in which case sm is a
	// {stream="<name>"}-labeled bundle from the shared pool.
	reg *obs.Registry
	sm  *obs.StreamMetrics
	qm  *obs.QueryMetrics

	// tracer records ingest span trees when Config.Tracing is set; nil
	// otherwise.
	tracer *trace.Tracer

	// st is the stream's state, built with the Server and never replaced.
	// Its view is read without mu; everything else in it is guarded by mu.
	st *stream

	mu sync.Mutex
	// wal, when attached, receives one durable record per acknowledged
	// ingest batch before the 200 leaves the mutex. walBroken latches a
	// failed append: later ingests answer 503 rather than acknowledging
	// batches a replica could never replay.
	wal       *ckpt.WAL
	walBroken bool
	walBuf    []byte // walAppend's encode buffer, reused across batches
	// runner, on a durable leader, takes a capture from the logged batch
	// that crosses a checkpoint boundary (attachLeader).
	runner *ckpt.Runner

	// handlers holds the stream's handler for each streamRoutes entry, built
	// once: the serveView adapters close over the per-stream query metrics.
	handlers []http.HandlerFunc
}

// New returns a service around a fresh DISC engine with its own private
// metrics registry (the historical single-stream shape).
func New(cfg Config) (*Server, error) {
	reg := obs.NewRegistry()
	return newServer(cfg, reg, obs.SingleStreamMetrics(reg), "", nil)
}

// newServer builds a Server on an externally owned registry and instrument
// bundle — the seam the multi-tenant registry uses to share one registry
// (with per-stream labels) across every tenant's engine. Its stream is
// recovered from the newest checkpoint generation in dir (recoverStream);
// an empty dir starts it fresh.
func newServer(cfg Config, reg *obs.Registry, sm *obs.StreamMetrics, dir string, logger *slog.Logger) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, reg: reg, sm: sm, qm: sm.Query}
	st, err := s.recoverStream(dir, logger)
	if err != nil {
		return nil, err
	}
	s.st = st
	if cfg.Tracing {
		s.tracer = trace.NewTracer(trace.Config{SlowThreshold: traceSlowThreshold})
	}
	for _, rt := range streamRoutes {
		s.handlers = append(s.handlers, rt.handler(s))
	}
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

// Registry exposes the server's metrics registry, e.g. to add
// process-level instruments before mounting the handler.
func (s *Server) Registry() *obs.Registry { return s.reg }

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
	{"GET", "/clusters", func(s *Server) http.HandlerFunc { return s.serveView("clusters", handleClusters) }},
	{"GET", "/points/{id}", func(s *Server) http.HandlerFunc { return s.serveView("point", handlePoint) }},
	{"GET", "/events", func(s *Server) http.HandlerFunc { return s.serveView("events", handleEvents) }},
	{"GET", "/stats", func(s *Server) http.HandlerFunc { return s.serveView("stats", handleStats) }},
	{"GET", "/checkpoint", func(s *Server) http.HandlerFunc { return s.handleCheckpointSave }},
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

// Strides returns the number of window advances processed. Together with
// WriteCheckpoint this makes the server a ckpt.Source, which the checkpoint
// runner reads for its shutdown final. It reads the published view, so it
// never contends with ingest.
func (s *Server) Strides() uint64 { return s.st.view.Load().strides }

// WriteCheckpoint writes a restorable snapshot of the service — engine
// state plus stream position — to w: capture under the server mutex, encode
// outside it. Equal states write equal bytes.
func (s *Server) WriteCheckpoint(w io.Writer) error {
	s.mu.Lock()
	encode := s.st.capture()
	s.mu.Unlock()
	b, err := encode()
	if err == nil {
		_, err = w.Write(b)
	}
	return err
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

// recoverStream builds the server's stream from the newest valid generation
// in the store in dir — the one way state enters a stream, and the start-up
// policy of a stream and of a follower alike: no directory or no checkpoint
// → fresh, no valid checkpoint → warn and fresh, a checkpoint that fails to
// restore or exceeds this stream's bound → hard error (starting fresh would
// silently discard the window the operator meant to keep, and the next
// checkpoints would prune it).
func (s *Server) recoverStream(dir string, logger *slog.Logger) (*stream, error) {
	if dir == "" {
		return newStream(s.cfg, s.sm, nil)
	}
	store, err := s.openStore(dir, logger)
	if err != nil {
		return nil, err
	}
	payload, gen, err := store.Recover()
	switch {
	case err == nil:
		st, err := newStream(s.cfg, s.sm, payload)
		if err != nil {
			return nil, fmt.Errorf("checkpoint generation %d does not restore: %w", gen, err)
		}
		if logger != nil {
			logger.Info("recovered from checkpoint",
				"generation", gen, "bytes", len(payload), "window_points", st.eng.WindowSize(), "stride", st.restored)
		}
		return st, nil
	case errors.Is(err, ckpt.ErrTooLarge):
		return nil, fmt.Errorf("checkpoint is larger than a window of %d points can write: %w", s.cfg.Window, err)
	case errors.Is(err, ckpt.ErrNoCheckpoint):
		if logger != nil {
			logger.Info("no checkpoint found, starting fresh")
		}
	case errors.Is(err, ckpt.ErrNoValidCheckpoint):
		if logger != nil {
			logger.Warn("checkpoints exist but none is valid, starting fresh", "err", err)
		}
	default:
		return nil, fmt.Errorf("checkpoint recovery: %w", err)
	}
	return newStream(s.cfg, s.sm, nil)
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

// commitIngest is the stage under s.mu: the stream commits the batch
// (dedup, resident check, apply, ack), the log makes it durable, the dedup
// window remembers it, the runner gets its capture if it crossed a
// checkpoint boundary, and only then does the ack leave. rec arrives with
// Client, Seq, HasSeq and Points set.
func (s *Server) commitIngest(w http.ResponseWriter, rec *walRecord, tr *trace.Trace, root *trace.Span) {
	const logFailed = "write-ahead log failed; stream is read-only until repaired"
	if s.walBroken {
		http.Error(w, logFailed, http.StatusServiceUnavailable)
		return
	}
	before := s.st.strides()
	deduped, applied, err := s.st.commit(rec, tr, root)
	var ref *refusal
	switch {
	case deduped:
		w.Header().Set("X-Disc-Deduped", "1")
		writeBody(w, http.StatusOK, rec.Resp)
		return
	case errors.As(err, &ref):
		if ref.tooOld {
			writeJSONStatus(w, http.StatusConflict, ingestError{Error: ref.msg})
		} else {
			http.Error(w, ref.msg, http.StatusBadRequest)
		}
		return
	case err != nil:
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
	// Durability before acknowledgment: the record (including the exact
	// body about to be sent) is framed and fsynced while the mutex is
	// still held, and an acknowledged batch can always be replayed.
	if len(rec.Points) > 0 || rec.HasSeq {
		if s.walAppend(rec) != nil {
			http.Error(w, logFailed, http.StatusServiceUnavailable)
			return
		}
	}
	s.st.recordSeq(rec)
	// A batch that crossed a checkpoint boundary hands the runner its
	// capture. Logged and in the dedup table by now, so a checkpoint can
	// never capture un-logged state.
	if s.runner != nil {
		after := s.st.strides()
		s.runner.Offer(before, after, func() ckpt.Capture {
			return ckpt.Capture{Strides: after, Trace: tr.Context(root), Encode: s.st.capture()}
		})
	}
	writeBody(w, http.StatusOK, rec.Resp)
}

// handleClusters serves the census of the pinned view, which is kept in
// response order: one pass of integer formatting, no locking.
func handleClusters(v *publishedView, w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, v.appendClusters(make([]byte, 0, 64+56*len(v.census))))
}

type pointResponse struct {
	ID      int64  `json:"id"`
	Label   string `json:"label"`
	Cluster int    `json:"cluster"`
}

// handlePoint answers from the pinned view's assignment table — the exact
// per-point labels of the view's stride.
func handlePoint(v *publishedView, w http.ResponseWriter, r *http.Request) {
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
func handleEvents(v *publishedView, w http.ResponseWriter, r *http.Request) {
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
func handleStats(v *publishedView, w http.ResponseWriter, _ *http.Request) {
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
