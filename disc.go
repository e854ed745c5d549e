// Package disc is a Go implementation of DISC — Density-based Incremental
// Striding Clustering (Kim, Koo, Kim, Moon: ICDE 2021) — an exact
// incremental density-based clustering algorithm for streaming data under
// the sliding-window model, together with every baseline its evaluation
// compares against.
//
// DISC produces clusterings identical to DBSCAN after every window advance
// while doing work proportional to the change, not the window: the points
// entering and leaving a stride are consolidated into ex-cores and
// neo-cores, cluster evolution (split, merge, shrink, expansion, emergence,
// dissipation) is decided by checking density-connectedness only over the
// minimal bonding cores of each changed component, and those checks run as
// a Multi-Starter BFS over an ε-grid index (the paper's R-tree substrate is
// kept as WithRTreeIndex).
//
// # Quick start
//
//	cfg := disc.Config{Dims: 2, Eps: 0.5, MinPts: 5}
//	eng := disc.NewDISC(cfg)
//	slider, _ := disc.NewCountSlider(10000, 500) // window, stride
//	for p := range stream {
//	    if step := slider.Push(p); step != nil {
//	        eng.Advance(step.In, step.Out)
//	        fmt.Println(eng.Stats())
//	    }
//	}
//	labels := eng.Snapshot()
//
// All engines implement the same Engine interface, so DBSCAN, Incremental
// DBSCAN, EXTRA-N, DBSTREAM, EDMStream, and ρ²-DBSCAN are drop-in
// replacements for comparison studies. See the examples directory and
// EXPERIMENTS.md for complete programs and the paper-figure reproduction
// harness.
package disc

import (
	"io"

	"disc/internal/core"
	"disc/internal/datasets"
	"disc/internal/dbscan"
	"disc/internal/dbstream"
	"disc/internal/denstream"
	"disc/internal/dstream"
	"disc/internal/edmstream"
	"disc/internal/extran"
	"disc/internal/geom"
	"disc/internal/incdbscan"
	"disc/internal/metrics"
	"disc/internal/model"
	"disc/internal/params"
	"disc/internal/pardbscan"
	"disc/internal/rhodbscan"
	"disc/internal/window"
)

// Point is one stream record: unique id, position, arrival timestamp.
type Point = model.Point

// Label is a point's density category: Core, Border, or Noise.
type Label = model.Label

// Density categories of a point, following Ester et al.'s definitions.
const (
	Core   = model.Core
	Border = model.Border
	Noise  = model.Noise
)

// NoCluster is the cluster id of noise points.
const NoCluster = model.NoCluster

// Assignment is the clustering outcome for one point: its label and, unless
// it is noise, the id of its cluster.
type Assignment = model.Assignment

// Config carries the two DBSCAN thresholds (ε and MinPts) plus the data
// dimensionality (1–4).
type Config = model.Config

// Stats counts the work an engine performed: range searches, index node
// accesses, strides, splits, merges, and resident bookkeeping size.
type Stats = model.Stats

// Engine is the common interface of every clustering algorithm in this
// package: Advance applies one window slide, Snapshot returns the current
// labeling.
type Engine = model.Engine

// NewPoint builds a Point from an id and 1–4 coordinates.
func NewPoint(id int64, coords ...float64) Point {
	return Point{ID: id, Pos: geom.NewVec(coords...)}
}

// DISCOption configures optional DISC behaviors. A checkpoint carries
// engine state only: an engine's options are what NewDISC or LoadDISC was
// given.
type DISCOption = core.Option

// WithWorkers sets how many goroutines DISC fans its ε-range searches over
// — both COLLECT's per-point searches and CLUSTER's component captures and
// MS-BFS connectivity checks; n <= 0 selects GOMAXPROCS, 1 (the default)
// stays sequential. Clustering output, statistics, and the event stream are
// bit-identical for every worker count — the searches are read-only and
// their private result buffers are folded in a fixed order — so this is
// purely a throughput knob.
func WithWorkers(n int) DISCOption { return core.WithWorkers(n) }

// ConnStrategy selects how DISC answers density-connectivity queries over
// minimal bonding cores during CLUSTER.
type ConnStrategy = core.ConnStrategy

// Connectivity strategies. Every strategy produces bit-identical labels,
// statistics, and events; they differ only in per-stride cost.
const (
	// ConnMSBFS recomputes components per stride with the Multi-Starter BFS
	// traversal (the paper's Algorithm 3) — the default and the
	// always-available reference.
	ConnMSBFS = core.ConnMSBFS
	// ConnDynamic answers from an incrementally maintained
	// dynamic-connectivity forest over the core-adjacency graph — cheaper
	// under churn-heavy workloads where components rarely change shape.
	ConnDynamic = core.ConnDynamic
)

// WithConnectivity selects the connectivity strategy (default ConnMSBFS).
func WithConnectivity(s ConnStrategy) DISCOption { return core.WithConnectivity(s) }

// WithRTreeIndex runs DISC on the paper's substrate, an R-tree, instead of
// the default ε-grid — for reproducing the paper's figures and as an
// index-choice ablation; on long streams the tree's search cost grows with
// stream age, the grid's does not. The index is a construction choice, not
// checkpoint state: pass the option to LoadDISC to restore onto it.
func WithRTreeIndex() DISCOption { return core.WithRTreeIndex() }

// Event describes one cluster-evolution occurrence reported by DISC.
type Event = core.Event

// EventType enumerates the cluster evolution kinds of the paper's §III-C.
type EventType = core.EventType

// Cluster evolution kinds, in the paper's terminology.
const (
	Emergence   = core.Emergence
	Expansion   = core.Expansion
	Merger      = core.Merger
	Split       = core.Split
	Shrink      = core.Shrink
	Dissipation = core.Dissipation
)

// WithEventHandler subscribes a callback to DISC's cluster-evolution events
// (emergence, expansion, merger, split, shrink, dissipation), invoked
// synchronously during Advance.
func WithEventHandler(fn func(Event)) DISCOption { return core.WithEventHandler(fn) }

// StrideRecord is the per-Advance telemetry record DISC emits to an
// attached Observer: phase durations, Δin/Δout sizes, ex/neo-core counts,
// search and epoch-prune work, MS-BFS merges, and cluster-evolution event
// tallies — everything the paper's §VI-D cost drill-down measures, scoped
// to one stride.
type StrideRecord = core.StrideRecord

// Observer receives one StrideRecord per Advance, synchronously.
type Observer = core.Observer

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc = core.ObserverFunc

// WithObserver attaches a per-stride telemetry observer to DISC. With no
// observer attached the telemetry path costs a single nil check.
func WithObserver(o Observer) DISCOption { return core.WithObserver(o) }

// NewDISC returns the DISC engine — exact incremental clustering optimized
// for batched window strides. It panics if cfg is invalid (use
// cfg.Validate to pre-check).
func NewDISC(cfg Config, opts ...DISCOption) *core.Engine { return core.New(cfg, opts...) }

// LoadDISC restores a DISC engine from a checkpoint written by its
// SaveSnapshot method: the engine NewDISC(cfg, opts...) would build for the
// checkpoint's configuration, holding the checkpoint's state.
func LoadDISC(r io.Reader, opts ...DISCOption) (*core.Engine, error) {
	return core.LoadEngine(r, opts...)
}

// NewDBSCAN returns the from-scratch DBSCAN baseline engine: the R-tree is
// maintained incrementally but every Advance recomputes all labels.
func NewDBSCAN(cfg Config) *dbscan.Engine { return dbscan.New(cfg) }

// RunDBSCAN clusters a static point set with classic DBSCAN and returns the
// assignment of every point.
func RunDBSCAN(points []Point, cfg Config) map[int64]Assignment {
	return dbscan.Run(points, cfg)
}

// RunParallelDBSCAN clusters a static point set with the grid-partitioned
// parallel DBSCAN (workers <= 0 selects GOMAXPROCS). The result is
// identical to RunDBSCAN up to cluster renaming — useful for bootstrapping
// very large initial windows.
func RunParallelDBSCAN(points []Point, cfg Config, workers int) map[int64]Assignment {
	return pardbscan.Run(points, cfg, workers)
}

// NewIncDBSCAN returns the Incremental DBSCAN engine (Ester et al. 1998):
// exact, processing one arrival or departure at a time.
func NewIncDBSCAN(cfg Config) *incdbscan.Engine { return incdbscan.New(cfg) }

// NewExtraN returns the EXTRA-N engine (Yang et al. 2009): exact,
// range-search-free expiry via per-slide predicted neighbor counts. The
// window must be a positive multiple of the stride.
func NewExtraN(cfg Config, windowSize, stride int) (*extran.Engine, error) {
	return extran.New(cfg, windowSize, stride)
}

// DBStreamOptions are the DBSTREAM tuning knobs; zero values select
// defaults.
type DBStreamOptions = dbstream.Options

// NewDBStream returns the DBSTREAM engine (Hahsler & Bolaños 2016):
// summarization-based, insertion-only, shared-density micro-clusters.
func NewDBStream(cfg Config, opt DBStreamOptions) (*dbstream.Engine, error) {
	return dbstream.New(cfg, opt)
}

// EDMStreamOptions are the EDMStream tuning knobs; zero values select
// defaults.
type EDMStreamOptions = edmstream.Options

// NewEDMStream returns the EDMStream-style engine (Gong et al. 2017):
// summarization-based, insertion-only, density-peak dependency tree over
// cluster-cells.
func NewEDMStream(cfg Config, opt EDMStreamOptions) (*edmstream.Engine, error) {
	return edmstream.New(cfg, opt)
}

// DenStreamOptions are the DenStream tuning knobs; zero values select
// defaults.
type DenStreamOptions = denstream.Options

// NewDenStream returns the DenStream engine (Cao et al. 2006): the seminal
// decaying micro-cluster method, included as an extra summarization
// baseline beyond the paper's line-up.
func NewDenStream(cfg Config, opt DenStreamOptions) (*denstream.Engine, error) {
	return denstream.New(cfg, opt)
}

// DStreamOptions are the D-Stream tuning knobs; zero values select
// defaults.
type DStreamOptions = dstream.Options

// NewDStream returns the D-Stream engine (Chen & Tu 2007): density-grid
// stream clustering, included as an extra summarization baseline beyond the
// paper's line-up.
func NewDStream(cfg Config, opt DStreamOptions) (*dstream.Engine, error) {
	return dstream.New(cfg, opt)
}

// NewRho2DBSCAN returns the ρ-double-approximate dynamic DBSCAN engine (Gan
// & Tao 2017): grid-based, exact core status, ρ-approximate connectivity.
func NewRho2DBSCAN(cfg Config, rho float64) (*rhodbscan.Engine, error) {
	return rhodbscan.New(cfg, rho)
}

// Step is one window advance: the points entering (In), leaving (Out), and
// the resulting window contents.
type Step = window.Step

// CountSlider buffers a stream into count-based window steps.
type CountSlider = window.CountSlider

// TimeSlider buffers a stream into time-based window steps.
type TimeSlider = window.TimeSlider

// NewCountSlider returns a slider for a count-based window: the window
// holds windowSize points and advances every stride arrivals.
func NewCountSlider(windowSize, stride int) (*CountSlider, error) {
	return window.NewCountSlider(windowSize, stride)
}

// NewTimeSlider returns a slider for a time-based window measured in the
// units of Point.Time.
func NewTimeSlider(windowSpan, stride int64) (*TimeSlider, error) {
	return window.NewTimeSlider(windowSpan, stride)
}

// Steps slices a finite dataset into count-based window steps (the first
// fills the window, each subsequent one advances by stride).
func Steps(data []Point, windowSize, stride int) ([]Step, error) {
	return window.Steps(data, windowSize, stride)
}

// ARI computes the Adjusted Rand Index between two labelings (point id →
// cluster id); 1 means identical partitions.
func ARI(truth, pred map[int64]int) float64 { return metrics.ARI(truth, pred) }

// ClusterLabels extracts a point-id → cluster-id map from a snapshot.
func ClusterLabels(snap map[int64]Assignment) map[int64]int { return metrics.Labels(snap) }

// SameClustering verifies two snapshots describe the same clustering up to
// cluster renaming (and border-assignment ambiguity); nil means equivalent.
func SameClustering(got, want map[int64]Assignment, pts []Point, cfg Config) error {
	return metrics.SameClustering(got, want, pts, cfg)
}

// Dataset is a generated benchmark stream with optional ground truth.
type Dataset = datasets.Dataset

// GenerateDataset produces one of the built-in synthetic benchmark streams:
// "dtg", "geolife", "covid", "iris", or "maze" (see DESIGN.md for how each
// mirrors the paper's datasets).
func GenerateDataset(name string, n int, seed int64) (Dataset, error) {
	return datasets.ByName(name, n, seed)
}

// DatasetNames lists the built-in generator names.
func DatasetNames() []string { return datasets.Names() }

// ParamSuggestion is an (ε, MinPts) estimate from the K-distance heuristic,
// including the curve it was read from.
type ParamSuggestion = params.Suggestion

// SuggestParams estimates ε and MinPts for a sample of the stream with the
// K-distance-graph heuristic the paper's evaluation uses to pick its
// Table II thresholds. k is the neighbor rank (MinPts becomes k+1; see
// DefaultK); sample bounds the number of probed points (≤ 0 probes all).
func SuggestParams(pts []Point, dims, k, sample int, seed int64) (ParamSuggestion, error) {
	return params.Suggest(pts, dims, k, sample, seed)
}

// DefaultK returns the conventional K-distance rank for a dimensionality:
// 4 in 2-D (Ester et al.), 2·dims-1 otherwise (Schubert et al.).
func DefaultK(dims int) int { return params.DefaultK(dims) }
