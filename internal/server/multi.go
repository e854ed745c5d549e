// Multi-tenant stream registry: one process hosting many independent DISC
// streams. Each stream owns the full single-stream stack — engine, slider,
// published view, write mutex, optional tracer, and durable directory — so
// writes to different streams proceed concurrently (there is no global
// write lock; the registry's own mutex guards only the name→stream map and
// is held for map operations, never across engine work). The single-stream HTTP surface moves under /streams/{name}/...;
// the historical routes remain as aliases for the undeletable "default"
// stream, so existing clients, disccli, and discload keep working
// unchanged.
//
// Telemetry: every stream records into one shared registry through a
// {stream="<name>"}-labeled instrument bundle. The label's cardinality is
// hard-capped (metricStreams); tenants beyond the cap share one
// {stream="other"} bundle, so scrape size is bounded no matter how many
// streams a tenant storm registers. Durability: one directory per stream,
// <dir>/streams/<name> (the default stream keeps <dir> itself — the
// pre-multi-tenant layout — so existing deployments recover their data),
// holding its log segments and the checkpoint generations that bound them,
// all written by one shared ckpt.Writer goroutine.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"disc/internal/ckpt"
	"disc/internal/model"
	"disc/internal/obs"
)

// DefaultStream is the name of the stream the legacy single-stream routes
// alias. It always exists and cannot be deleted.
const DefaultStream = "default"

// Registry limits: one value in every deployment, package variables only so
// tests can lower them.
var (
	maxStreams    = 1024 // registered streams per process; POST /streams beyond it gets 429
	metricStreams = 32   // dedicated stream label values (then "other")
)

// Errors of the registry lifecycle, mapped to HTTP statuses by the
// /streams handlers.
var (
	ErrStreamExists   = errors.New("stream already exists")
	ErrUnknownStream  = errors.New("unknown stream")
	ErrTooManyStreams = errors.New("stream limit reached")
	ErrBadStreamName  = errors.New("bad stream name")
)

// streamNameRe bounds names to something that is safe in a URL path, a
// Prometheus label value, and a directory name.
var streamNameRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// MultiConfig configures the multi-tenant service.
type MultiConfig struct {
	// Default is the configuration of the default stream AND the template
	// dynamically created streams inherit tracing from. Clustering
	// parameters (Cluster, Window, Stride) act as per-field fallbacks for
	// POST /streams requests that omit them.
	Default Config
	// WALDir makes every stream durable; empty keeps streams in memory.
	// Each stream has one directory: the default stream WALDir itself (the
	// pre-registry layout, so existing single-stream deployments recover in
	// place), stream X WALDir/streams/X. It holds the stream's write-ahead
	// log, where every acknowledged ingest batch is fsynced before its 200,
	// and the checkpoint generations written while RunCheckpoints runs: one
	// per window turnover (checkpointInterval), captured by the batch that
	// completes it. Log segments older than the previous generation are
	// pruned, so the log stays bounded. A stream recovers its newest
	// generation, then the log past it.
	WALDir string
	// Logger receives stream lifecycle and recovery log lines; nil
	// discards them.
	Logger *slog.Logger
}

// Multi is the multi-tenant stream service. Create with NewMulti, mount
// via Handler. All methods are safe for concurrent use.
type Multi struct {
	cfg    MultiConfig
	reg    *obs.Registry
	pool   *obs.StreamMetricsPool
	writer *ckpt.Writer // nil when streams are in memory
	logger *slog.Logger

	streamsGauge *obs.Gauge   // disc_streams
	createdMx    *obs.Counter // disc_streams_created_total

	mu      sync.RWMutex
	streams map[string]*Server
}

// NewMulti returns a registry hosting the default stream built from
// cfg.Default. With WALDir set, the default stream has recovered before
// NewMulti returns, so no handler ever serves a window about to be replaced
// by a restore. It writes no checkpoint unless RunCheckpoints runs.
func NewMulti(cfg MultiConfig) (*Multi, error) {
	reg := obs.NewRegistry()
	m := &Multi{
		cfg:     cfg,
		reg:     reg,
		pool:    obs.NewStreamMetricsPool(reg, metricStreams),
		logger:  cfg.Logger,
		streams: make(map[string]*Server),
	}
	m.streamsGauge, m.createdMx = newRegistryMetrics(reg)
	if cfg.WALDir != "" {
		m.writer = ckpt.NewWriter()
	}
	if _, err := m.CreateStream(DefaultStream, cfg.Default); err != nil {
		return nil, fmt.Errorf("creating default stream: %w", err)
	}
	return m, nil
}

// newRegistryMetrics registers the process's stream-count instruments. A
// follower, which hosts the one default stream, registers them too, so its
// series are a leader's.
func newRegistryMetrics(reg *obs.Registry) (*obs.Gauge, *obs.Counter) {
	return reg.Gauge("disc_streams", "Streams currently registered.", nil),
		reg.Counter("disc_streams_created_total",
			"Streams registered over the process lifetime (including the default stream).", nil)
}

// Registry exposes the shared metrics registry.
func (m *Multi) Registry() *obs.Registry { return m.reg }

// Stream returns the named stream's server, or nil when unknown. The read
// lock is held only for the map access — request handling proceeds on the
// stream's own state, so a wedged write path on one stream never blocks
// another stream's requests (and never blocks CreateStream/DeleteStream
// either).
func (m *Multi) Stream(name string) *Server {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.streams[name]
}

// CreateStream registers a new stream. The returned server is live as soon
// as this returns; when durability is configured the stream has already
// recovered from its newest valid checkpoint generation.
func (m *Multi) CreateStream(name string, cfg Config) (*Server, error) {
	if !streamNameRe.MatchString(name) {
		return nil, fmt.Errorf("%w: %q must match %s", ErrBadStreamName, name, streamNameRe)
	}
	// Registration is serialized by a plain mutex section around the map
	// checks, but the heavyweight parts (engine construction, checkpoint
	// recovery) run outside it so creating one stream never stalls another
	// stream's ingest path. The map is re-checked on insert: two
	// concurrent creates of one name race to the second check, and the
	// loser's engine is discarded.
	m.mu.RLock()
	_, exists := m.streams[name]
	n := len(m.streams)
	m.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("%w: %q", ErrStreamExists, name)
	}
	if n >= maxStreams {
		return nil, fmt.Errorf("%w: %d streams registered, limit %d", ErrTooManyStreams, n, maxStreams)
	}

	// Validate before touching the metrics pool: a dedicated stream label
	// slot is never reclaimed, so a flood of invalid create requests must
	// not be able to consume the cap and push real streams to "other".
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	logger := m.logger
	if logger != nil {
		logger = logger.With("stream", name)
	}

	// Recovery: the newest valid checkpoint generation, then every log
	// record past it. Replay stops at a torn or corrupt tail, the boundary
	// attachLeader repairs the log to, so log and state agree.
	var dir string
	if m.cfg.WALDir != "" {
		dir = m.streamDir(name)
	}
	srv, err := newServer(cfg, m.reg, m.pool.Acquire(name), dir, logger)
	if err != nil {
		return nil, fmt.Errorf("stream %q: %w", name, err)
	}
	if dir != "" {
		replayed, err := srv.RecoverWAL(dir, logger)
		if err != nil {
			return nil, fmt.Errorf("stream %q: replaying write-ahead log: %w", name, err)
		}
		if replayed > 0 && logger != nil {
			logger.Info("stream replayed write-ahead log", "records", replayed, "stride", srv.Strides())
		}
	}
	if err := srv.attachLeader(dir, logger, m.writer); err != nil {
		return nil, fmt.Errorf("stream %q: %w", name, err)
	}
	m.mu.Lock()
	if _, raced := m.streams[name]; raced {
		m.mu.Unlock()
		srv.detach(m.writer)
		return nil, fmt.Errorf("%w: %q", ErrStreamExists, name)
	}
	m.streams[name] = srv
	m.streamsGauge.Set(float64(len(m.streams)))
	m.mu.Unlock()
	m.createdMx.Inc()
	if logger != nil {
		logger.Info("stream registered",
			"dims", cfg.Cluster.Dims, "eps", cfg.Cluster.Eps, "minpts", cfg.Cluster.MinPts,
			"window", cfg.Window, "stride", cfg.Stride)
	}
	return srv, nil
}

// streamDir maps a stream name to its durable directory under WALDir: the
// default stream keeps the root itself (the pre-multi-tenant layout, so
// existing deployments recover in place), stream X uses WALDir/streams/X.
func (m *Multi) streamDir(name string) string {
	if name == DefaultStream {
		return m.cfg.WALDir
	}
	return filepath.Join(m.cfg.WALDir, "streams", name)
}

// walSegmentBytes is the segment rotation threshold of every log a leader
// opens. Tests lower it so a short stream has whole segments to prune.
var walSegmentBytes int64 = ckpt.DefaultWALSegmentBytes

// checkpointInterval is a stream's checkpoint cadence in strides: one window
// turnover, ceil(W/S). The batch that moves the stride count across a
// multiple of it captures a generation. DISC's state after a stride depends
// only on the window, so a generation stands in for one window of log, and
// a restart replays at most two intervals plus the strides of one batch.
func (c Config) checkpointInterval() uint64 {
	return uint64((c.Window + c.Stride - 1) / c.Stride)
}

// attachLeader is the one step that makes a recovered stream, registered,
// restarted or promoted, a durable leader: open and attach the log in dir
// (repairing a torn tail), and attach the runner, added to w, that
// checkpoints into the same directory every checkpointInterval strides and
// prunes the log behind it. An empty dir leaves the stream in memory.
func (s *Server) attachLeader(dir string, logger *slog.Logger, w *ckpt.Writer) error {
	if dir == "" {
		return nil
	}
	// Opened after recovery: new generations number past every one on disk.
	store, err := s.openStore(dir, logger)
	if err != nil {
		return err
	}
	wal, err := ckpt.OpenWAL(dir,
		ckpt.WithWALObserver(s.sm.WAL), ckpt.WithWALLogger(logger),
		ckpt.WithWALMaxPayload(s.walRecordMaxPayload()), ckpt.WithWALSegmentBytes(walSegmentBytes))
	if err != nil {
		return fmt.Errorf("opening write-ahead log: %w", err)
	}
	s.AttachWAL(wal)
	observer := &walTruncatingObserver{Observer: s.sm.Checkpoint, wal: wal, logger: logger, cfg: s.cfg,
		prev: s.cfg.boundaryPos(s.st.restored)}
	runner := ckpt.NewRunner(store, s, s.cfg.checkpointInterval(),
		ckpt.WithObserver(observer),
		ckpt.WithRunnerLogger(logger),
		ckpt.WithRunnerTracer(s.tracer))
	w.Add(runner)
	s.mu.Lock()
	s.runner = runner
	s.mu.Unlock()
	return nil
}

// detach takes a durable stream's log and runner out of service before its
// directory goes: the runner leaves w, which returns once no write of it is
// in progress — so none can re-create the directory — and the log closes.
func (s *Server) detach(w *ckpt.Writer) {
	s.mu.Lock()
	wal, runner := s.wal, s.runner
	s.mu.Unlock() // a shutdown final being written takes it
	if runner != nil {
		w.Remove(runner)
		wal.Close()
	}
}

// walTruncatingObserver prunes write-ahead log segments as checkpoints
// land. After a successful generation it truncates the log to the
// PREVIOUS successful checkpoint's stream position — the store retains
// two generations, and recovery may fall back to the older one, so the
// log must stay replayable from there — and then reports the attempt, so a
// reported generation's prune is done. A restarted or promoted leader's
// previous checkpoint is the generation it recovered from; a fresh
// stream's first Truncate(0) removes nothing. ObserveCheckpoint's one caller
// is the writer's goroutine; skips pass straight through.
type walTruncatingObserver struct {
	ckpt.Observer
	wal    *ckpt.WAL
	logger *slog.Logger
	cfg    Config
	prev   uint64
}

func (o *walTruncatingObserver) ObserveCheckpoint(rec ckpt.Record) {
	if rec.Err == nil {
		if err := o.wal.Truncate(o.prev); err != nil && o.logger != nil {
			// Pruning is best-effort: a failed removal wastes disk but never
			// loses data, so log and keep checkpointing.
			o.logger.Warn("wal truncation failed", "keep_from", o.prev, "err", err)
		}
		o.prev = o.cfg.boundaryPos(rec.Strides)
	}
	o.Observer.ObserveCheckpoint(rec)
}

// DeleteStream unregisters a stream and removes its durable directory,
// WALDir/streams/<name>: its log and checkpoint generations. The default stream cannot
// be deleted (the legacy aliases must always resolve). In-flight requests
// on the stream complete against its (now orphaned) server. It waits out a
// checkpoint write in progress, so no save re-creates the directory. Deletion
// is destructive by contract: re-creating the stream under the same name
// starts empty, never resurrecting the deleted tenant's window.
func (m *Multi) DeleteStream(name string) error {
	if name == DefaultStream {
		return fmt.Errorf("%w: the default stream cannot be deleted", ErrBadStreamName)
	}
	m.mu.Lock()
	srv, ok := m.streams[name]
	if ok {
		delete(m.streams, name)
		m.streamsGauge.Set(float64(len(m.streams)))
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownStream, name)
	}
	srv.detach(m.writer)
	if m.logger != nil {
		m.logger.Info("stream deleted", "stream", name)
	}
	// name != DefaultStream here, so the path is guaranteed to be the
	// tenant's own streams/<name> subdirectory, never the shared root.
	if m.cfg.WALDir != "" {
		if err := os.RemoveAll(m.streamDir(name)); err != nil {
			return fmt.Errorf("stream %q deleted but its durable state remains: %w", name, err)
		}
	}
	return nil
}

// RunCheckpoints runs the shared checkpoint writer — without it no stream
// writes a generation — until ctx is canceled, then writes final generations
// for every stream with unsaved stride progress. It returns immediately when
// durability is off.
func (m *Multi) RunCheckpoints(ctx context.Context) {
	if m.writer == nil {
		return
	}
	m.writer.Run(ctx)
}

// withStream adapts a per-stream handler into an http.HandlerFunc that
// resolves the {stream} path value (404 on unknown names).
func (m *Multi) withStream(h func(srv *Server, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		srv := m.Stream(r.PathValue("stream"))
		if srv == nil {
			http.Error(w, fmt.Sprintf("unknown stream %q", r.PathValue("stream")), http.StatusNotFound)
			return
		}
		h(srv, w, r)
	}
}

// streamSpec is the wire form of POST /streams. Omitted clustering fields
// inherit the registry's default-stream template.
type streamSpec struct {
	Name   string  `json:"name"`
	Dims   int     `json:"dims,omitempty"`
	Eps    float64 `json:"eps,omitempty"`
	MinPts int     `json:"minPts,omitempty"`
	Window int     `json:"window,omitempty"`
	Stride int     `json:"stride,omitempty"`
}

// streamInfo is one row of GET /streams (and the POST /streams response).
type streamInfo struct {
	Name     string       `json:"name"`
	Config   model.Config `json:"config"`
	Window   int          `json:"windowExtent"`
	Stride   int          `json:"stride"`
	Strides  uint64       `json:"strides"`
	Ingested uint64       `json:"ingested"`
	Resident int          `json:"resident"`
}

func (s *Server) info(name string) streamInfo {
	v := s.st.view.Load()
	return streamInfo{
		Name:     name,
		Config:   s.cfg.Cluster,
		Window:   s.cfg.Window,
		Stride:   s.cfg.Stride,
		Strides:  v.strides,
		Ingested: v.stats.Ingested,
		Resident: v.stats.Resident,
	}
}

// handleStreamCreate registers a tenant: 201 with its descriptor, 400 for
// an invalid name or configuration, 409 for a duplicate, 429 at the
// stream limit.
func (m *Multi) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var spec streamSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	// A typoed field name ("min_pts") would otherwise silently inherit the
	// template value — for a config-bearing create, that is a 400.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad stream spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	cfg := m.cfg.Default
	if spec.Dims != 0 {
		cfg.Cluster.Dims = spec.Dims
	}
	if spec.Eps != 0 {
		cfg.Cluster.Eps = spec.Eps
	}
	if spec.MinPts != 0 {
		cfg.Cluster.MinPts = spec.MinPts
	}
	if spec.Window != 0 {
		cfg.Window = spec.Window
	}
	if spec.Stride != 0 {
		cfg.Stride = spec.Stride
	}
	srv, err := m.CreateStream(spec.Name, cfg)
	if err != nil {
		switch {
		case errors.Is(err, ErrStreamExists):
			http.Error(w, err.Error(), http.StatusConflict)
		case errors.Is(err, ErrTooManyStreams):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		default:
			// A bad name, and Config.validate (dims/eps/minpts/window/stride,
			// a window the engine can hold): the same rules discserver
			// enforces at startup, as 400s.
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	writeJSONStatus(w, http.StatusCreated, srv.info(spec.Name))
}

// handleStreamList serves the sorted stream inventory.
func (m *Multi) handleStreamList(w http.ResponseWriter, _ *http.Request) {
	m.mu.RLock()
	srvs := maps.Clone(m.streams)
	m.mu.RUnlock()
	infos := make([]streamInfo, 0, len(srvs))
	for name, srv := range srvs {
		infos = append(infos, srv.info(name))
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, map[string]any{"streams": infos})
}

func (m *Multi) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	err := m.DeleteStream(r.PathValue("stream"))
	switch {
	case errors.Is(err, ErrUnknownStream):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrBadStreamName):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		writeJSON(w, map[string]any{"deleted": r.PathValue("stream")})
	}
}

// Handler returns the multi-tenant route multiplexer: the /streams
// registry API, the per-stream endpoints, and the legacy single-stream
// routes aliased to the default stream.
func (m *Multi) Handler() http.Handler {
	def := m.Stream(DefaultStream) // always present; undeletable
	mux := http.NewServeMux()

	mux.HandleFunc("POST /streams", m.handleStreamCreate)
	mux.HandleFunc("GET /streams", m.handleStreamList)
	mux.HandleFunc("DELETE /streams/{stream}", m.handleStreamDelete)

	for i, rt := range streamRoutes {
		mux.Handle(rt.method+" /streams/{stream}"+rt.path,
			m.withStream(func(srv *Server, w http.ResponseWriter, r *http.Request) {
				h := srv.handlers[i]
				if h == nil { // only /debug/traces is optional
					http.Error(w, "tracing disabled", http.StatusNotFound)
					return
				}
				h(w, r)
			}))
	}
	// Legacy single-stream aliases → the default stream.
	def.mount(mux)
	mountProcessRoutes(mux, m.reg, m.cfg.Default.EnablePprof)
	return mux
}
