package obs

import "sync"

// OverflowStream is the stream label value shared by every tenant beyond
// the pool's cardinality cap.
const OverflowStream = "other"

// StreamMetrics bundles every instrument one stream of the multi-tenant
// server records into: the engine observer, the read-path recorder, the
// checkpoint observer, and the ingest counter — all registered with a
// constant {stream="<name>"} label. Streams past the cardinality cap share
// one bundle labeled {stream="other"}.
type StreamMetrics struct {
	// Label is the stream label value the bundle's instruments carry —
	// the stream's own name, or OverflowStream past the cap.
	Label string
	// Dedicated is false when the bundle is the shared overflow set. A
	// shared bundle aggregates counters across every overflow stream, so
	// absolute adjustments that only make sense per stream (the
	// restore-time ingest counter Set, for example) must be skipped on it.
	Dedicated bool

	Engine     *EngineMetrics
	Query      *QueryMetrics
	Checkpoint *CheckpointMetrics
	// WAL is the stream's disc_wal_* bundle, attached to the stream's
	// write-ahead log when one is configured (idle otherwise).
	WAL *WALMetrics
	// Ingested is the stream's disc_ingested_points_total counter.
	Ingested *Counter
}

// StreamMetricsPool hands out per-stream instrument bundles on one shared
// registry while capping the cardinality of the stream label: the first
// `cap` distinct stream names get dedicated label values, every stream
// beyond that shares a single {stream="other"} bundle. The cap is a hard
// bound on time-series growth — a tenant churn storm cannot blow up the
// scrape size — at the cost of per-stream resolution for the overflow
// set. Label slots are never reclaimed: Prometheus instruments cannot be
// unregistered, so a deleted stream's series stay (frozen) in the scrape
// and re-creating the stream reuses its bundle.
type StreamMetricsPool struct {
	r   *Registry
	cap int

	mu        sync.Mutex
	dedicated map[string]*StreamMetrics
	overflow  *StreamMetrics
}

// NewStreamMetricsPool returns a pool on r granting at most cap dedicated
// stream label values (minimum 1).
func NewStreamMetricsPool(r *Registry, cap int) *StreamMetricsPool {
	if cap < 1 {
		cap = 1
	}
	return &StreamMetricsPool{r: r, cap: cap, dedicated: make(map[string]*StreamMetrics)}
}

// Acquire returns the instrument bundle for the named stream, creating it
// on first use. Names beyond the cardinality cap — and the literal name
// "other", which would collide with the overflow label — share the
// overflow bundle.
func (p *StreamMetricsPool) Acquire(stream string) *StreamMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m, ok := p.dedicated[stream]; ok {
		return m
	}
	if stream != OverflowStream && len(p.dedicated) < p.cap {
		m := newStreamMetrics(p.r, stream, true)
		p.dedicated[stream] = m
		return m
	}
	if p.overflow == nil {
		p.overflow = newStreamMetrics(p.r, OverflowStream, false)
	}
	return p.overflow
}

func newStreamMetrics(r *Registry, label string, dedicated bool) *StreamMetrics {
	base := Labels{"stream": label}
	return &StreamMetrics{
		Label:      label,
		Dedicated:  dedicated,
		Engine:     NewEngineMetricsLabeled(r, base),
		Query:      NewQueryMetricsLabeled(r, base),
		Checkpoint: NewCheckpointMetrics(r, base),
		WAL:        NewWALMetricsLabeled(r, base),
		Ingested: r.Counter("disc_ingested_points_total",
			"Points accepted by POST .../ingest (including those still buffered below a stride boundary).", base),
	}
}

// SingleStreamMetrics builds the unlabeled bundle a standalone
// single-stream server uses: identical instrument names to the pooled
// bundles but with no stream label, preserving the original single-tenant
// scrape exactly.
func SingleStreamMetrics(r *Registry) *StreamMetrics {
	return &StreamMetrics{
		Label:      "",
		Dedicated:  true,
		Engine:     NewEngineMetrics(r),
		Query:      NewQueryMetrics(r),
		Checkpoint: NewCheckpointMetrics(r, nil),
		WAL:        NewWALMetrics(r),
		Ingested: r.Counter("disc_ingested_points_total",
			"Points accepted by POST /ingest (including those still buffered below a stride boundary).", nil),
	}
}
