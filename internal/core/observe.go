package core

import (
	"time"

	"disc/internal/model"
)

// This file is the engine's telemetry tap. DISC's whole claim is work
// proportional to the change, not the window (§VI of the paper breaks
// per-stride cost into COLLECT / ex-core / neo-core phases and Fig. 7
// counts range searches); the lump-sum Stats accumulator cannot show a
// latency distribution or a per-stride trend. An Observer receives one
// StrideRecord per Advance — everything the §VI-D drill-down measures, as
// deltas scoped to that stride — so callers can feed histograms, stride
// logs, span trees or live dashboards without the engine knowing about any
// of them. The record is the one source: per-phase sums, metrics, the
// stride log and the "advance" span tree (internal/obs renders it) are all
// derived from it.
//
// The tap is free when unused: every per-stride aggregate the record needs
// is either already computed by Advance (phase timestamps, index stats
// deltas) or a plain integer increment on an existing code path (event
// tallies, MS-BFS merge count), and the record itself is a stack value
// built behind a nil check.

// StrideRecord is the per-Advance telemetry record. All counter-like
// fields are deltas for that stride, not running totals.
type StrideRecord struct {
	Stride     uint64 // 1-based window advance counter
	DeltaIn    int    // arrivals |Δin|
	DeltaOut   int    // departures |Δout|
	WindowSize int    // points resident after the advance

	ExCores  int // ex-cores identified by COLLECT
	NeoCores int // neo-cores identified by COLLECT

	// Start is the clock read that opened the advance; the phase
	// durations are the differences of the next four reads, so the phases
	// tile [Start, Start+Total] in this order and Total is their exact sum.
	Start        time.Time
	Collect      time.Duration // Algorithm 1: count maintenance, Δ application
	ExCorePhase  time.Duration // captures, R⁻ components, M⁻, connectivity checks, relabeling
	NeoCorePhase time.Duration // R⁺ components, M⁺ label inspection
	Finalize     time.Duration // label refresh, border-hint re-acquisition
	Total        time.Duration

	Affected int // points whose state the stride touched (finalize's work list)

	RangeSearches int64 // ε-range searches issued this stride
	MSBFSMerges   int64 // MS-BFS thread (queue) merges this stride

	// NodeAccesses is the index work behind those searches, in the unit of
	// the index named by Index: non-empty cells probed ("grid", the
	// default), or tree nodes visited ("rtree"). Numbers taken
	// under different indexes are not comparable.
	NodeAccesses int64
	Index        string

	// Cluster-evolution event tallies for this stride.
	Emergences   int
	Expansions   int
	Mergers      int
	Splits       int
	Shrinks      int
	Dissipations int

	Workers        int   // COLLECT fan-out width actually used this stride
	ClusterWorkers int   // widest CLUSTER fan-out (captures or connectivity) this stride
	ConnChecks     int   // connectivity checks dispatched this stride
	PoolGrows      int64 // scratch-pool misses (new allocations) this stride

	// Connectivity-strategy telemetry. These fields are the one part of the
	// record that is NOT strategy-independent — they measure how the
	// configured strategy paid for the (identical) answers. Traversal
	// counters are zero under ConnDynamic; forest counters are zero under
	// the MS-BFS strategies.
	ConnStrategy       string        // "msbfs" or "dynamic"
	Connectivity       time.Duration // wall time of the phase-C query fan-out
	ForestUpdate       time.Duration // wall time syncing the dyncon forest
	ConnSearches       int64         // traversal expansion searches run
	ConnNodes          int64         // index nodes those searches touched
	ForestOps          int64         // forest mutations applied (vertices + edges)
	ForestReplSearches int64         // replacement-edge searches after tree cuts
	ForestReplScans    int64         // candidate edges scanned by those searches
	ForestRebuilds     int64         // full forest rebuilds (desync fallbacks)
	ForestVertices     int           // forest size after the stride (cores)
	ForestEdges        int           // core-adjacency edges tracked

	// TraceID is the 32-hex-char id of the trace this stride's span tree
	// was rendered into. The engine leaves it empty; an observer that
	// renders the record (the bench runner) stamps it before passing the
	// record on, so a slow stride's log line names the trace to look up.
	TraceID string
}

// Observer receives one StrideRecord per Advance, synchronously, after the
// stride's labels are finalized. Implementations must not call back into
// the engine and should return quickly — they run on the Advance path.
type Observer interface {
	ObserveStride(StrideRecord)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(StrideRecord)

// ObserveStride implements Observer.
func (f ObserverFunc) ObserveStride(rec StrideRecord) { f(rec) }

// WithObserver attaches an Observer to the engine. Only one observer is
// held; attaching nil detaches. With no observer attached the telemetry
// path is a single nil check per Advance.
func WithObserver(o Observer) Option { return func(e *Engine) { e.observer = o } }

// SetObserver attaches (or, with nil, detaches) the engine's Observer
// between Advance calls — the post-construction form of WithObserver, for
// callers that receive an already-built engine (checkpoint restore, the
// bench runner).
func (e *Engine) SetObserver(o Observer) { e.observer = o }

// observeStride assembles and delivers the StrideRecord. Callers must have
// checked e.observer != nil; statsBefore/treeBefore are the engine and
// index counters captured at the top of Advance.
func (e *Engine) observeStride(in, out []model.Point, exCores, neoCores int,
	t0, t1, t2, t3, t4 time.Time, statsBefore model.Stats, poolGrows int64) {
	workers := e.workers
	if total := len(in) + len(out); workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	clusterWorkers := e.strideClusterWorkers
	if clusterWorkers < 1 {
		clusterWorkers = 1 // a stride with no CLUSTER fan-out still ran serially
	}
	var forestVertices, forestEdges int
	if e.forest != nil {
		forestVertices, forestEdges = e.forest.NumVertices(), e.forest.NumEdges()
	}
	e.observer.ObserveStride(StrideRecord{
		Stride:         e.stride,
		DeltaIn:        len(in),
		DeltaOut:       len(out),
		WindowSize:     len(e.slotOf),
		ExCores:        exCores,
		NeoCores:       neoCores,
		Start:          t0,
		Collect:        t1.Sub(t0),
		ExCorePhase:    t2.Sub(t1),
		NeoCorePhase:   t3.Sub(t2),
		Finalize:       t4.Sub(t3),
		Total:          t4.Sub(t0),
		Affected:       len(e.affected),
		RangeSearches:  e.stats.RangeSearches - statsBefore.RangeSearches,
		NodeAccesses:   e.stats.NodeAccesses - statsBefore.NodeAccesses,
		Index:          e.tree.Name(),
		MSBFSMerges:    e.strideMerges,
		Emergences:     e.strideEvents[Emergence],
		Expansions:     e.strideEvents[Expansion],
		Mergers:        e.strideEvents[Merger],
		Splits:         e.strideEvents[Split],
		Shrinks:        e.strideEvents[Shrink],
		Dissipations:   e.strideEvents[Dissipation],
		Workers:        workers,
		ClusterWorkers: clusterWorkers,
		ConnChecks:     e.strideConnChecks,
		PoolGrows:      poolGrows,

		ConnStrategy:       e.connStrategy.String(),
		Connectivity:       e.strideConnDur,
		ForestUpdate:       e.strideForestDur,
		ConnSearches:       e.strideConnSearches,
		ConnNodes:          e.strideConnNodes,
		ForestOps:          e.strideForestOps,
		ForestReplSearches: e.strideForestReplSearches,
		ForestReplScans:    e.strideForestReplScans,
		ForestRebuilds:     e.strideForestRebuilds,
		ForestVertices:     forestVertices,
		ForestEdges:        forestEdges,
	})
}
