package obs

import (
	"disc/internal/core"
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
//	node_accesses_total            counter    non-empty grid cells probed (tree nodes under the R-tree/k-d ablations)
//	msbfs_queue_merges_total       counter    MS-BFS thread merges
//	cluster_events_total{type}     counter    emergence|expansion|merger|split|shrink|dissipation
//	connectivity_checks_total      counter    MS-BFS connectivity checks dispatched
//	scratch_pool_grows_total       counter    scratch-pool misses (new allocations)
//	window_size                    gauge      resident points after the last stride
//	collect_workers                gauge      COLLECT fan-out width of the last stride
//	cluster_workers                gauge      widest CLUSTER fan-out of the last stride
//
// Connectivity-strategy family (how the configured strategy paid for the
// identical answers; traversal counters stay zero under the dynamic forest,
// forest counters stay zero under MS-BFS):
//
//	connectivity_strategy{strategy}              gauge      1 on the active strategy, 0 on the other
//	connectivity_check_duration_seconds          histogram  phase-C connectivity query time per stride
//	connectivity_forest_update_duration_seconds  histogram  dyncon forest sync time per stride
//	connectivity_traversal_searches_total        counter    MS-BFS/seq expansion searches run
//	connectivity_traversal_nodes_total           counter    index cells (nodes) those searches touched
//	connectivity_forest_ops_total                counter    forest mutations applied (amortized ns = update sum / ops)
//	connectivity_replacement_searches_total      counter    replacement-edge searches after tree cuts
//	connectivity_replacement_scans_total         counter    candidate edges scanned by those searches
//	connectivity_forest_rebuilds_total           counter    full forest rebuilds (desync fallbacks)
//	connectivity_forest_vertices                 gauge      forest size after the last stride (cores)
//	connectivity_forest_edges                    gauge      core-adjacency edges tracked
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

	connStrategy    [2]*Gauge // msbfs, dynamic — 1 on the active one
	connCheckDur    *Histogram
	forestUpdateDur *Histogram
	connSearches    *Counter
	connNodes       *Counter
	forestOps       *Counter
	replSearches    *Counter
	replScans       *Counter
	forestRebuilds  *Counter
	forestVertices  *Gauge
	forestEdges     *Gauge
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
			"Index work done by range searches: non-empty grid cells probed under the default index (tree nodes visited when an engine is built on the R-tree or k-d tree, which the server never does). Not comparable with values recorded before the grid became the default.", base),
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
			"Phase-C connectivity query time per stride, under the configured strategy.", nil, base),
		forestUpdateDur: r.Histogram("disc_connectivity_forest_update_duration_seconds",
			"Dynamic-forest sync time per stride (zero under MS-BFS strategies).", nil, base),
		connSearches: r.Counter("disc_connectivity_traversal_searches_total",
			"Traversal expansion searches run by MS-BFS/sequential connectivity checks.", base),
		connNodes: r.Counter("disc_connectivity_traversal_nodes_total",
			"Index work done by connectivity traversal searches, in the unit of disc_node_accesses_total.", base),
		forestOps: r.Counter("disc_connectivity_forest_ops_total",
			"Dynamic-forest mutations applied (vertices and edges); amortized update time is the update-duration sum over this.", base),
		replSearches: r.Counter("disc_connectivity_replacement_searches_total",
			"Replacement-edge searches triggered by spanning-tree cuts.", base),
		replScans: r.Counter("disc_connectivity_replacement_scans_total",
			"Candidate edges scanned by replacement-edge searches.", base),
		forestRebuilds: r.Counter("disc_connectivity_forest_rebuilds_total",
			"Full forest rebuilds (restore or desync fallbacks).", base),
		forestVertices: r.Gauge("disc_connectivity_forest_vertices",
			"Vertices (cores) in the maintained connectivity forest after the last stride.", base),
		forestEdges: r.Gauge("disc_connectivity_forest_edges",
			"Core-adjacency edges tracked by the maintained connectivity forest.", base),
	}
	for i, s := range []string{"msbfs", "dynamic"} {
		m.connStrategy[i] = r.Gauge("disc_connectivity_strategy",
			"1 on the configured connectivity strategy, 0 on the others.", base.With(Labels{"strategy": s}))
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

	for i, s := range []string{"msbfs", "dynamic"} {
		var on float64
		if rec.ConnStrategy == s {
			on = 1
		}
		m.connStrategy[i].Set(on)
	}
	m.connCheckDur.Observe(rec.Connectivity.Seconds())
	m.forestUpdateDur.Observe(rec.ForestUpdate.Seconds())
	m.connSearches.Add(rec.ConnSearches)
	m.connNodes.Add(rec.ConnNodes)
	m.forestOps.Add(rec.ForestOps)
	m.replSearches.Add(rec.ForestReplSearches)
	m.replScans.Add(rec.ForestReplScans)
	m.forestRebuilds.Add(rec.ForestRebuilds)
	m.forestVertices.Set(float64(rec.ForestVertices))
	m.forestEdges.Set(float64(rec.ForestEdges))
}
