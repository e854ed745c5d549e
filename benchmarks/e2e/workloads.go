package main

import (
	"disc/internal/datasets"
	"disc/internal/model"
)

// warmStrides is how many strides follow the window fill before timing
// starts; fill + warm-up is the set-up the benchmark reports as setup_s.
const warmStrides = 10

// workload is one traffic mix. Everything the server sees is derived from
// these fields and the run's seed; the benchmark sets no engine knob.
type workload struct {
	name string
	why  string
	gen  func(n int, seed int64) datasets.Dataset
	cfg  model.Config

	window, stride, batch int

	// writers is the number of closed-loop producer connections; each owns
	// the batches whose index is congruent to its number, so id blocks are
	// disjoint. withSeq stamps X-Disc-Seq/X-Disc-Client on every POST and
	// re-sends dupShare of the batches as duplicates.
	writers  int
	withSeq  bool
	dupShare float64

	// pacePointsPerS > 0 makes the single writer open loop: batches are
	// due on a fixed schedule and timed from the due instant. With it, one
	// closed-loop reader connection runs beside the writer; without it,
	// the reader runs against the quiescent server after the write phase.
	pacePointsPerS float64

	// capPointsPerS bounds how many points are generated for the measured
	// phase (capPointsPerS × seconds): about three times what the seed
	// host ingests, so a run ends on the clock, not on the stream.
	capPointsPerS int

	// ledgerStrides is the fixed prefix of measured strides over which the
	// traced run totals the engine's work counts, so the counts repeat
	// exactly for a seed however many strides the clock allows.
	ledgerStrides int
}

func (w *workload) paced() bool { return w.pacePointsPerS > 0 }

// setupPoints is the length of the stream prefix that set-up ingests.
func (w *workload) setupPoints() int { return w.window + warmStrides*w.stride }

var hiresCfg = model.Config{Dims: 2, Eps: 0.15, MinPts: 4}

var workloads = []*workload{
	{
		name: "dtg_stride5",
		why:  "paper's headline DTG setting, 5% stride: the engine (COLLECT + ex-core CLUSTER) does ~90% of a stride; view and WAL do little",
		gen:  datasets.DTG,
		cfg:  model.Config{Dims: 2, Eps: 0.002, MinPts: 40},

		window: 20000, stride: 1000, batch: 250, writers: 1,
		capPointsPerS: 60000, ledgerStrides: 10,
	},
	{
		name: "hires_smallstride",
		why:  "large window, 0.1% stride: churn is tiny, so the O(window) view rebuild and its garbage dominate the stride, not the engine",
		gen:  datasets.Maze,
		cfg:  hiresCfg,

		window: 50000, stride: 50, batch: 50, writers: 1,
		capPointsPerS: 12000, ledgerStrides: 100,
	},
	{
		name: "smallbatch_durable",
		why:  "two writers, 10-point sequenced batches, 1% duplicates: per-batch decode + WAL encode + fsync dominate; 1 batch in 25 completes a stride",
		gen:  datasets.COVID,
		cfg:  model.Config{Dims: 2, Eps: 1.2, MinPts: 5},

		window: 5000, stride: 250, batch: 10, writers: 2,
		withSeq: true, dupShare: 0.01,
		capPointsPerS: 120000, ledgerStrides: 100,
	},
	{
		name: "mixed_rw",
		why:  "hires stream paced open-loop at 1500 points/s beside a closed-loop reader: the view layer serving reads while strides publish",
		gen:  datasets.Maze,
		cfg:  hiresCfg,

		window: 50000, stride: 50, batch: 50, writers: 1,
		pacePointsPerS: 1500,
		capPointsPerS:  1500, ledgerStrides: 100,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
