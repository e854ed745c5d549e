package obs

import (
	"disc/internal/core"
	"disc/internal/trace"
)

// EngineMetrics is a core.Observer that feeds a Registry: one instance
// registers the full disc_* metric family and translates each StrideRecord
// into counter/gauge/histogram updates. Attach it with
// core.WithObserver(m) (or Engine.SetObserver) and mount the registry's
// Handler at /metrics.
//
// Metric inventory (all prefixed disc_):
//
//	stride_duration_seconds        histogram  whole-Advance latency
//	phase_duration_seconds{phase}  histogram  collect|ex_cores|neo_cores|finalize
//	strides_total                  counter    window advances
//	points_in_total                counter    Δin arrivals
//	points_out_total               counter    Δout departures
//	ex_cores_total                 counter    ex-cores identified
//	neo_cores_total                counter    neo-cores identified
//	range_searches_total           counter    ε-range searches issued
//	node_accesses_total            counter    non-empty grid cells probed (tree nodes on an R-tree engine)
//	msbfs_queue_merges_total       counter    MS-BFS thread merges
//	cluster_events_total{type}     counter    emergence|expansion|merger|split|shrink|dissipation
//	connectivity_checks_total      counter    MS-BFS connectivity checks dispatched
//	scratch_pool_grows_total       counter    scratch-pool misses (new allocations)
//	window_size                    gauge      resident points after the last stride
//	collect_workers                gauge      COLLECT fan-out width of the last stride
//	cluster_workers                gauge      widest CLUSTER fan-out of the last stride
//
// What the stride's connectivity checks cost. The server always runs MS-BFS,
// so the dynamic-forest fields of the StrideRecord have no families here:
// the stride log of the bench runner (internal/bench) reports those.
//
//	connectivity_check_duration_seconds    histogram  phase-C connectivity query time per stride
//	connectivity_traversal_searches_total  counter    MS-BFS expansion searches run
//	connectivity_traversal_nodes_total     counter    index cells (nodes) those searches touched
type EngineMetrics struct {
	strideDur *Histogram
	phaseDur  [4]*Histogram // collect, ex_cores, neo_cores, finalize

	strides       *Counter
	pointsIn      *Counter
	pointsOut     *Counter
	exCores       *Counter
	neoCores      *Counter
	rangeSearches *Counter
	nodeAccesses  *Counter
	msbfsMerges   *Counter
	connChecks    *Counter
	poolGrows     *Counter
	events        [6]*Counter // indexed by core.EventType

	windowSize     *Gauge
	workers        *Gauge
	clusterWorkers *Gauge

	connCheckDur *Histogram
	connSearches *Counter
	connNodes    *Counter
}

// NewEngineMetrics registers the disc_* instruments on r and returns the
// observer. Register at most once per registry (duplicate names panic).
func NewEngineMetrics(r *Registry) *EngineMetrics {
	return NewEngineMetricsLabeled(r, nil)
}

// NewEngineMetricsLabeled registers the disc_* instruments with the given
// constant base labels on every family — the multi-tenant server passes
// {stream="<name>"} so one registry carries one family set per tenant.
// With a nil base it is identical to NewEngineMetrics. Each (family, base)
// pair may be registered at most once per registry.
func NewEngineMetricsLabeled(r *Registry, base Labels) *EngineMetrics {
	m := &EngineMetrics{
		strideDur: r.Histogram("disc_stride_duration_seconds",
			"Wall-clock duration of one window advance (COLLECT through finalize).", nil, base),
		strides: r.Counter("disc_strides_total",
			"Window advances processed.", base),
		pointsIn: r.Counter("disc_points_in_total",
			"Points that entered the window (sum of stride delta-in sizes).", base),
		pointsOut: r.Counter("disc_points_out_total",
			"Points that left the window (sum of stride delta-out sizes).", base),
		exCores: r.Counter("disc_ex_cores_total",
			"Ex-cores identified by COLLECT (were cores, no longer are or exited).", base),
		neoCores: r.Counter("disc_neo_cores_total",
			"Neo-cores identified by COLLECT (are cores, were not or just arrived).", base),
		rangeSearches: r.Counter("disc_range_searches_total",
			"Epsilon-range searches issued against the spatial index.", base),
		nodeAccesses: r.Counter("disc_node_accesses_total",
			"Index work done by range searches: non-empty grid cells probed under the default index (tree nodes visited when an engine is built on the R-tree, which the server never does). Not comparable with values recorded before the grid became the default.", base),
		msbfsMerges: r.Counter("disc_msbfs_queue_merges_total",
			"Multi-Starter BFS thread merges (two search frontiers met).", base),
		connChecks: r.Counter("disc_connectivity_checks_total",
			"Density-connectivity checks dispatched by the ex-core phase.", base),
		poolGrows: r.Counter("disc_scratch_pool_grows_total",
			"Scratch-pool misses: nodes or buffers newly allocated instead of reused.", base),
		windowSize: r.Gauge("disc_window_size",
			"Points resident in the sliding window after the last stride.", base),
		workers: r.Gauge("disc_collect_workers",
			"COLLECT worker fan-out width used by the last stride.", base),
		clusterWorkers: r.Gauge("disc_cluster_workers",
			"Widest CLUSTER fan-out (capture or connectivity) used by the last stride.", base),
		connCheckDur: r.Histogram("disc_connectivity_check_duration_seconds",
			"Phase-C connectivity query time per stride.", nil, base),
		connSearches: r.Counter("disc_connectivity_traversal_searches_total",
			"Traversal expansion searches run by MS-BFS/sequential connectivity checks.", base),
		connNodes: r.Counter("disc_connectivity_traversal_nodes_total",
			"Index work done by connectivity traversal searches, in the unit of disc_node_accesses_total.", base),
	}
	phases := []string{"collect", "ex_cores", "neo_cores", "finalize"}
	for i, ph := range phases {
		m.phaseDur[i] = r.Histogram("disc_phase_duration_seconds",
			"Wall-clock duration of one DISC phase within an advance.", nil, base.With(Labels{"phase": ph}))
	}
	for t := core.EventType(0); int(t) < len(m.events); t++ {
		m.events[t] = r.Counter("disc_cluster_events_total",
			"Cluster-evolution events detected, by kind.", base.With(Labels{"type": t.String()}))
	}
	return m
}

// ObserveStride implements core.Observer.
func (m *EngineMetrics) ObserveStride(rec core.StrideRecord) {
	m.strideDur.Observe(rec.Total.Seconds())
	m.phaseDur[0].Observe(rec.Collect.Seconds())
	m.phaseDur[1].Observe(rec.ExCorePhase.Seconds())
	m.phaseDur[2].Observe(rec.NeoCorePhase.Seconds())
	m.phaseDur[3].Observe(rec.Finalize.Seconds())

	m.strides.Inc()
	m.pointsIn.Add(int64(rec.DeltaIn))
	m.pointsOut.Add(int64(rec.DeltaOut))
	m.exCores.Add(int64(rec.ExCores))
	m.neoCores.Add(int64(rec.NeoCores))
	m.rangeSearches.Add(rec.RangeSearches)
	m.nodeAccesses.Add(rec.NodeAccesses)
	m.msbfsMerges.Add(rec.MSBFSMerges)
	m.connChecks.Add(int64(rec.ConnChecks))
	m.poolGrows.Add(rec.PoolGrows)

	m.events[core.Emergence].Add(int64(rec.Emergences))
	m.events[core.Expansion].Add(int64(rec.Expansions))
	m.events[core.Merger].Add(int64(rec.Mergers))
	m.events[core.Split].Add(int64(rec.Splits))
	m.events[core.Shrink].Add(int64(rec.Shrinks))
	m.events[core.Dissipation].Add(int64(rec.Dissipations))

	m.windowSize.Set(float64(rec.WindowSize))
	m.workers.Set(float64(rec.Workers))
	m.clusterWorkers.Set(float64(rec.ClusterWorkers))

	m.connCheckDur.Observe(rec.Connectivity.Seconds())
	m.connSearches.Add(rec.ConnSearches)
	m.connNodes.Add(rec.ConnNodes)
}

// RenderStride records one stride's span tree into tr under parent:
//
//	advance              (stride, delta_in, delta_out)
//	├── collect          (ex_cores, neo_cores, workers)
//	├── cluster.excores  (cluster_workers, conn_checks, conn_us; under the
//	│                     dynamic strategy also forest_us, forest_ops,
//	│                     forest_rebuilds)
//	├── cluster.neocores
//	└── finalize         (affected)
//
// The spans are cut from the record's own clock reads: each phase starts
// at rec.Start plus the durations of the phases before it, so the tree
// shows exactly the split the metrics and the stride log report. The
// _us attributes are microseconds, the unit of a span's duration. A nil
// tr records nothing.
func RenderStride(tr *trace.Trace, parent *trace.Span, rec *core.StrideRecord) {
	if tr == nil {
		return
	}
	t1 := rec.Start.Add(rec.Collect)
	t2 := t1.Add(rec.ExCorePhase)
	t3 := t2.Add(rec.NeoCorePhase)
	t4 := t3.Add(rec.Finalize)
	adv := tr.StartSpanAt("advance", parent, rec.Start,
		trace.Int64("stride", int64(rec.Stride)),
		trace.Int("delta_in", rec.DeltaIn), trace.Int("delta_out", rec.DeltaOut))
	tr.StartSpanAt("collect", adv, rec.Start,
		trace.Int("ex_cores", rec.ExCores), trace.Int("neo_cores", rec.NeoCores),
		trace.Int("workers", rec.Workers)).EndAt(t1)
	ex := tr.StartSpanAt("cluster.excores", adv, t1,
		trace.Int("cluster_workers", rec.ClusterWorkers),
		trace.Int("conn_checks", rec.ConnChecks),
		trace.Int64("conn_us", rec.Connectivity.Microseconds()))
	if rec.ConnStrategy == core.ConnDynamic.String() {
		ex.SetInt("forest_us", int(rec.ForestUpdate.Microseconds()))
		ex.SetInt("forest_ops", int(rec.ForestOps))
		ex.SetInt("forest_rebuilds", int(rec.ForestRebuilds))
	}
	ex.EndAt(t2)
	tr.StartSpanAt("cluster.neocores", adv, t2).EndAt(t3)
	tr.StartSpanAt("finalize", adv, t3, trace.Int("affected", rec.Affected)).EndAt(t4)
	adv.EndAt(t4)
}
