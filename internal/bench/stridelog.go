package bench

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"disc/internal/core"
)

// StrideLogger is a core.Observer that writes one JSON line per stride to
// a sink — the telemetry the paper's §VI-D drill-down plots, captured at
// full per-stride resolution instead of run-level means — and accumulates
// every stride's total latency so the run can report exact percentiles.
//
// The runner attaches it to every engine that supports observers (the
// DISC variants); baselines without the hook simply produce no lines. One
// logger can span many runs: SetFigure/SetEngine update the context
// stamped on subsequent records.
type StrideLogger struct {
	mu      sync.Mutex
	enc     *json.Encoder
	engine  string    // engine kind of the current run
	figure  string    // figure id of the current run
	samples []float64 // stride total durations, seconds
	lines   int
	// traceThresh gates trace-id stamping: a record carries its trace_id
	// only when the stride's total latency reached this threshold (and a
	// tracer was attached), so the JSONL points at exactly the traces the
	// tracer's slow ring retains. Zero stamps every traced stride.
	traceThresh time.Duration
}

// StrideLogRecord is the JSONL wire form of one observed stride.
type StrideLogRecord struct {
	Figure string `json:"figure,omitempty"`
	Engine string `json:"engine"`
	Stride uint64 `json:"stride"`

	In       int `json:"in"`
	Out      int `json:"out"`
	Window   int `json:"window"`
	ExCores  int `json:"ex_cores"`
	NeoCores int `json:"neo_cores"`

	CollectMS  float64 `json:"collect_ms"`
	ExCoresMS  float64 `json:"ex_cores_ms"`
	NeoCoresMS float64 `json:"neo_cores_ms"`
	FinalizeMS float64 `json:"finalize_ms"`
	TotalMS    float64 `json:"total_ms"`

	RangeSearches int64 `json:"range_searches"`
	MSBFSMerges   int64 `json:"msbfs_merges"`

	// NodeAccesses counts non-empty cells probed when Index is "grid" and
	// tree nodes visited otherwise, so the two are stamped side by side;
	// logs written before the field existed ran on the R-tree.
	NodeAccesses int64  `json:"node_accesses"`
	Index        string `json:"index"`

	Emergences   int `json:"emergences,omitempty"`
	Expansions   int `json:"expansions,omitempty"`
	Mergers      int `json:"mergers,omitempty"`
	Splits       int `json:"splits,omitempty"`
	Shrinks      int `json:"shrinks,omitempty"`
	Dissipations int `json:"dissipations,omitempty"`

	Workers        int   `json:"workers"`
	ClusterWorkers int   `json:"cluster_workers"`
	ConnChecks     int   `json:"conn_checks,omitempty"`
	PoolGrows      int64 `json:"pool_grows,omitempty"`

	// Connectivity-strategy cost: how the configured strategy (conn_strategy)
	// paid for the stride's connectivity answers. Traversal fields stay zero
	// under the dynamic forest; forest fields stay zero under MS-BFS.
	ConnStrategy   string  `json:"conn_strategy,omitempty"`
	ConnMS         float64 `json:"conn_ms,omitempty"`
	ForestMS       float64 `json:"forest_ms,omitempty"`
	ConnSearches   int64   `json:"conn_searches,omitempty"`
	ForestOps      int64   `json:"forest_ops,omitempty"`
	ForestRebuilds int64   `json:"forest_rebuilds,omitempty"`

	// TraceID names the stride's recorded span tree (slow strides only,
	// per the logger's trace threshold); look it up in the tracer's JSON
	// dump or at GET /debug/traces when serving.
	TraceID string `json:"trace_id,omitempty"`
}

// NewStrideLogger returns a logger writing JSON lines to w. A nil w keeps
// the percentile accumulation but writes nothing.
func NewStrideLogger(w io.Writer) *StrideLogger {
	l := &StrideLogger{}
	if w != nil {
		l.enc = json.NewEncoder(w)
	}
	return l
}

// SetFigure stamps the figure id onto subsequent records (set once per
// figure driver by cmd/discbench).
func (l *StrideLogger) SetFigure(figure string) {
	l.mu.Lock()
	l.figure = figure
	l.mu.Unlock()
}

// SetEngine stamps the engine kind onto subsequent records (set per run by
// the runner when it attaches the logger).
func (l *StrideLogger) SetEngine(engine string) {
	l.mu.Lock()
	l.engine = engine
	l.mu.Unlock()
}

// SetTraceThreshold sets the minimum stride latency at which records carry
// their trace id (see StrideLogRecord.TraceID).
func (l *StrideLogger) SetTraceThreshold(d time.Duration) {
	l.mu.Lock()
	l.traceThresh = d
	l.mu.Unlock()
}

// ObserveStride implements core.Observer.
func (l *StrideLogger) ObserveStride(rec core.StrideRecord) {
	ms := func(d interface{ Seconds() float64 }) float64 { return d.Seconds() * 1e3 }
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples = append(l.samples, rec.Total.Seconds())
	if l.enc == nil {
		return
	}
	l.lines++
	var traceID string
	if rec.TraceID != "" && rec.Total >= l.traceThresh {
		traceID = rec.TraceID
	}
	// Encoding errors (a full disk mid-bench) are deliberately swallowed:
	// the stride log is an artifact, not the measurement.
	_ = l.enc.Encode(StrideLogRecord{
		Figure: l.figure, Engine: l.engine, Stride: rec.Stride,
		In: rec.DeltaIn, Out: rec.DeltaOut, Window: rec.WindowSize,
		ExCores: rec.ExCores, NeoCores: rec.NeoCores,
		CollectMS: ms(rec.Collect), ExCoresMS: ms(rec.ExCorePhase),
		NeoCoresMS: ms(rec.NeoCorePhase), FinalizeMS: ms(rec.Finalize),
		TotalMS:       ms(rec.Total),
		RangeSearches: rec.RangeSearches, MSBFSMerges: rec.MSBFSMerges,
		NodeAccesses: rec.NodeAccesses, Index: rec.Index,
		Emergences: rec.Emergences, Expansions: rec.Expansions,
		Mergers: rec.Mergers, Splits: rec.Splits,
		Shrinks: rec.Shrinks, Dissipations: rec.Dissipations,
		Workers: rec.Workers, ClusterWorkers: rec.ClusterWorkers,
		ConnChecks: rec.ConnChecks, PoolGrows: rec.PoolGrows,
		ConnStrategy: rec.ConnStrategy,
		ConnMS:       ms(rec.Connectivity), ForestMS: ms(rec.ForestUpdate),
		ConnSearches: rec.ConnSearches, ForestOps: rec.ForestOps,
		ForestRebuilds: rec.ForestRebuilds,
		TraceID:        traceID,
	})
}

// Lines returns how many records have been written.
func (l *StrideLogger) Lines() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lines
}

// LatencySummary reports exact stride-latency percentiles over every
// observed stride (all engines and figures pooled), in milliseconds. It is
// embedded in the BENCH_disc.json summary.
type LatencySummary struct {
	Strides int     `json:"strides"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// Summary computes exact percentiles from the accumulated samples; nil
// when no strides were observed.
func (l *StrideLogger) Summary() *LatencySummary {
	l.mu.Lock()
	samples := append([]float64(nil), l.samples...)
	l.mu.Unlock()
	if len(samples) == 0 {
		return nil
	}
	sort.Float64s(samples)
	pick := func(q float64) float64 {
		i := int(q*float64(len(samples)) + 0.5)
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return samples[i] * 1e3
	}
	return &LatencySummary{
		Strides: len(samples),
		P50MS:   pick(0.50),
		P90MS:   pick(0.90),
		P95MS:   pick(0.95),
		P99MS:   pick(0.99),
		MaxMS:   samples[len(samples)-1] * 1e3,
	}
}
