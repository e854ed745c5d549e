package main

import (
	"bytes"
	"encoding/json"
)

// metricDef declares one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is reported by every workload's untraced run. The quartile
// spreads over ten seeds on the seed host are 1–11 % (README.md has the
// table), which alone would put most bounds at 15 %. But the host itself
// drifts: between two sets of runs an hour apart, with no other process
// running, every metric made of kernel round trips (loopback reads, fsync
// acks) moved by 30–40 % while the engine-bound ones stayed put. The timed
// metrics therefore take the 0.25 the contract allows; only recovery, which
// is engine-bound replay, keeps the bound its spread earns.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"points_per_s", "1/s", "higher", 0.25},
	{"ingest_visible_p50_ms", "ms", "lower", 0.25},
	{"ingest_visible_p95_ms", "ms", "lower", 0.25},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"ack_p90_ms", "ms", "lower", 0.25},
	{"reads_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.15},
	{"heap_bytes_per_point", "B", "lower", 0.25},
}

// perLayer is reported by every workload's traced run; layer = module name.
var perLayer = []metricDef{
	{name: "server.ingest_stride_ms", unit: "ms", better: "lower"},
	{name: "server.ingest_nostride_ms", unit: "ms", better: "lower"},
	{name: "server.advance_ms", unit: "ms", better: "lower"},
	{name: "server.publish_est_ms", unit: "ms", better: "lower"},
	{name: "server.wal_sync_us", unit: "us", better: "lower"},
	{name: "server.residual_ms", unit: "ms", better: "lower"},
	{name: "server.ingest_allocs", unit: "count", better: "lower"},
	{name: "server.ingest_alloc_bytes", unit: "B", better: "lower"},
	{name: "server.get_point_us", unit: "us", better: "lower"},
	{name: "server.get_clusters_us", unit: "us", better: "lower"},
	{name: "server.get_clusters_bytes", unit: "B", better: "lower"},
	{name: "server.get_stats_us", unit: "us", better: "lower"},
	{name: "server.get_events_us", unit: "us", better: "lower"},
	{name: "server.get_304_us", unit: "us", better: "lower"},
	{name: "server.checkpoint_write_ms", unit: "ms", better: "lower"},
	{name: "server.checkpoint_bytes", unit: "B", better: "lower"},
	{name: "server.dedup_replay_us", unit: "us", better: "lower"},
	{name: "window.push_ms", unit: "ms", better: "lower"},
	{name: "core.advance_ms", unit: "ms", better: "lower"},
	{name: "core.advance_p95_ms", unit: "ms", better: "lower"},
	{name: "core.collect_ms", unit: "ms", better: "lower"},
	{name: "core.excore_ms", unit: "ms", better: "lower"},
	{name: "core.neocore_ms", unit: "ms", better: "lower"},
	{name: "core.finalize_ms", unit: "ms", better: "lower"},
	{name: "core.range_searches", unit: "count", better: "lower"},
	{name: "core.node_accesses", unit: "count", better: "lower"},
	{name: "core.conn_checks", unit: "count", better: "lower"},
	{name: "core.conn_ms", unit: "ms", better: "lower"},
	{name: "core.advance_allocs", unit: "count", better: "lower"},
	{name: "core.advance_alloc_bytes", unit: "B", better: "lower"},
	{name: "core.snapshot_ms", unit: "ms", better: "lower"},
	{name: "core.clusters_ms", unit: "ms", better: "lower"},
	{name: "core.save_snapshot_ms", unit: "ms", better: "lower"},
	{name: "core.snapshot_bytes", unit: "B", better: "lower"},
	{name: "core.load_ms", unit: "ms", better: "lower"},
	{name: "core.churn_ratio", unit: "ratio", better: "lower"},
	{name: "core.speedup_vs_dbscan", unit: "ratio", better: "higher"},
	{name: "dyncon.advance_ms", unit: "ms", better: "lower"},
	{name: "dyncon.forest_ms", unit: "ms", better: "lower"},
	{name: "dyncon.forest_ops", unit: "count", better: "lower"},
	{name: "rtree.search_ball_us", unit: "us", better: "lower"},
	{name: "rtree.nodes_per_search", unit: "count", better: "lower"},
	{name: "rtree.bulk_insert_ms", unit: "ms", better: "lower"},
	{name: "rtree.delete_us", unit: "us", better: "lower"},
	{name: "grid.search_ball_us", unit: "us", better: "lower"},
	{name: "grid.insert_us", unit: "us", better: "lower"},
	{name: "grid.delete_us", unit: "us", better: "lower"},
	{name: "kdtree.search_ball_us", unit: "us", better: "lower"},
	{name: "ckpt.wal_append_us", unit: "us", better: "lower"},
	{name: "ckpt.wal_sync_us", unit: "us", better: "lower"},
	{name: "ckpt.wal_bytes_per_batch", unit: "B", better: "lower"},
	{name: "ckpt.wal_read_us", unit: "us", better: "lower"},
	{name: "ckpt.store_save_ms", unit: "ms", better: "lower"},
	{name: "ckpt.store_recover_ms", unit: "ms", better: "lower"},
	{name: "dbscan.run_ms", unit: "ms", better: "lower"},
	{name: "obs.scrape_ms", unit: "ms", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "loadgen.late_p95_ms", unit: "ms", better: "lower"},
	{name: "ledger.measured_pct", unit: "%", better: "higher"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the file
// and the program cannot drift apart (a test compares them).
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmarks/e2e/run.sh"},
		Paths:      []string{"benchmarks/e2e"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return buf.Bytes()
}

// runSeconds is the measuring time BENCHMARK.json asks the driver for.
const runSeconds = 15
