// Benchmarks mapped one-to-one onto the tables and figures of the DISC
// paper's evaluation (§VI). Each benchmark measures one stride (one window
// advance) of the configuration the corresponding figure varies; the
// discbench command regenerates the full tables/series, while these give
// `go test -bench` visibility into every experimental axis.
//
//	Table II  -> the workload constructors used by every benchmark below
//	Fig. 4    -> BenchmarkFig4_* (stride sweep, per engine)
//	Fig. 5    -> BenchmarkFig5_* (window sweep)
//	Fig. 6    -> BenchmarkFig6_* (threshold sweep)
//	Fig. 7    -> search counts, reported as searches/stride metrics
//	Fig. 8    -> BenchmarkFig8_* (optimization ablation)
//	Fig. 9/10 -> BenchmarkFig9_*, BenchmarkFig10_* (quality line-up latency)
//	Fig. 11   -> BenchmarkFig11_* (DISC vs ρ² across ε)
//	Fig. 12   -> BenchmarkFig12_Snapshot (labeling extraction cost)
package disc_test

import (
	"fmt"
	"testing"

	"disc/internal/bench"
	"disc/internal/datasets"
	"disc/internal/model"
	"disc/internal/window"
)

// benchScale shrinks the Table II windows so the whole -bench=. suite
// completes in minutes; discbench runs the full scale.
const benchScale = 0.2

type workload struct {
	dc     bench.DataConfig
	stride int
	steps  []window.Step
}

// mkWorkload builds the stride steps for one dataset at one stride ratio.
func mkWorkload(b *testing.B, dataset string, scale, ratio float64, mutate func(*bench.DataConfig)) workload {
	b.Helper()
	dc, err := bench.Defaults(dataset)
	if err != nil {
		b.Fatal(err)
	}
	dc = dc.Scaled(scale)
	if mutate != nil {
		mutate(&dc)
	}
	stride := dc.Window / 20
	if ratio > 0 {
		stride = int(float64(dc.Window) * ratio)
		if stride < 1 {
			stride = 1
		}
		for dc.Window%stride != 0 {
			stride--
		}
	}
	// Enough strides that b.N iterations rarely need an engine restart.
	ds, err := dc.Stream(stride, 64)
	if err != nil {
		b.Fatal(err)
	}
	steps, err := window.Steps(ds.Points, dc.Window, stride)
	if err != nil {
		b.Fatal(err)
	}
	return workload{dc: dc, stride: stride, steps: steps}
}

// benchStrides measures per-stride Advance cost of one engine kind over a
// workload, reporting range searches per stride as a custom metric (the
// Fig. 7 quantity).
func benchStrides(b *testing.B, kind string, w workload) {
	b.Helper()
	newEng := func() model.Engine {
		eng, err := bench.NewEngine(kind, w.dc.Cfg, w.dc.Window, w.stride)
		if err != nil {
			b.Fatal(err)
		}
		eng.Advance(w.steps[0].In, w.steps[0].Out)
		eng.ResetStats()
		return eng
	}
	eng := newEng()
	idx := 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx >= len(w.steps) {
			b.StopTimer()
			eng = newEng()
			idx = 1
			b.StartTimer()
		}
		st := w.steps[idx]
		eng.Advance(st.In, st.Out)
		idx++
	}
	b.StopTimer()
	s := eng.Stats()
	if s.Strides > 0 {
		b.ReportMetric(float64(s.RangeSearches)/float64(s.Strides), "searches/stride")
	}
	b.ReportMetric(float64(w.stride), "points/stride")
}

// --- Fig. 4: stride sweep ---------------------------------------------------

func BenchmarkFig4(b *testing.B) {
	for _, dataset := range bench.EvalDatasets() {
		for _, ratio := range []float64{0.01, 0.05, 0.25} {
			for _, kind := range []string{"dbscan", "disc", "incdbscan", "extran"} {
				b.Run(fmt.Sprintf("%s/stride=%g%%/%s", dataset, ratio*100, kind), func(b *testing.B) {
					benchStrides(b, kind, mkWorkload(b, dataset, benchScale, ratio, nil))
				})
			}
		}
	}
}

// --- Fig. 5: window sweep ---------------------------------------------------

func BenchmarkFig5(b *testing.B) {
	for _, factor := range []float64{0.5, 1, 2} {
		for _, kind := range []string{"dbscan", "disc", "incdbscan", "extran"} {
			b.Run(fmt.Sprintf("dtg/window=%gx/%s", factor, kind), func(b *testing.B) {
				benchStrides(b, kind, mkWorkload(b, "dtg", benchScale*factor, 0.05, nil))
			})
		}
	}
}

// --- Fig. 6: threshold sweep (DTG) -------------------------------------------

func BenchmarkFig6Eps(b *testing.B) {
	for _, f := range []float64{0.5, 1, 2, 4} {
		for _, kind := range []string{"disc", "incdbscan"} {
			b.Run(fmt.Sprintf("dtg/epsx%g/%s", f, kind), func(b *testing.B) {
				benchStrides(b, kind, mkWorkload(b, "dtg", benchScale, 0.05, func(dc *bench.DataConfig) {
					dc.Cfg.Eps *= f
				}))
			})
		}
	}
}

func BenchmarkFig6Tau(b *testing.B) {
	for _, f := range []float64{0.25, 1, 2} {
		for _, kind := range []string{"disc", "incdbscan"} {
			b.Run(fmt.Sprintf("dtg/taux%g/%s", f, kind), func(b *testing.B) {
				benchStrides(b, kind, mkWorkload(b, "dtg", benchScale, 0.05, func(dc *bench.DataConfig) {
					dc.Cfg.MinPts = max(2, int(float64(dc.Cfg.MinPts)*f))
				}))
			})
		}
	}
}

// --- Fig. 7: the searches/stride metric is attached to every benchmark by
// benchStrides; this pair isolates the paper's DISC vs IncDBSCAN comparison.

func BenchmarkFig7(b *testing.B) {
	for _, dataset := range bench.EvalDatasets() {
		for _, kind := range []string{"disc", "incdbscan"} {
			b.Run(dataset+"/"+kind, func(b *testing.B) {
				benchStrides(b, kind, mkWorkload(b, dataset, benchScale, 0.05, nil))
			})
		}
	}
}

// --- Fig. 8: optimization ablation -------------------------------------------

func BenchmarkFig8(b *testing.B) {
	for _, dataset := range bench.EvalDatasets() {
		for _, kind := range []string{"disc-plain", "disc-nomsbfs", "disc-noepoch", "disc"} {
			b.Run(dataset+"/"+kind, func(b *testing.B) {
				benchStrides(b, kind, mkWorkload(b, dataset, benchScale, 0.05, nil))
			})
		}
	}
}

// --- Index-choice ablation (DESIGN §11: ε-grid vs the paper's R-tree) --------

func BenchmarkIndexAblation(b *testing.B) {
	kinds := []string{"disc", "disc-rtree"}
	for _, dataset := range []string{"dtg", "maze"} {
		for _, kind := range kinds {
			b.Run(dataset+"/"+kind, func(b *testing.B) {
				benchStrides(b, kind, mkWorkload(b, dataset, benchScale, 0.05, nil))
			})
		}
	}
	// The stream-age axis: identical churn (the benchmark's hires stream —
	// maze at ε 0.15, window 50 000, stride 50), measured after the index has
	// lived through 100 and through 1500 strides. A tree fed small
	// time-ordered batches decays with age; the grid has nothing to decay.
	const win, stride, measured = 50000, 50, 256
	cfg := model.Config{Dims: 2, Eps: 0.15, MinPts: 4}
	for _, age := range []int{100, 1500} {
		ds, err := datasets.ByName("maze", win+stride*(age+measured), 21)
		if err != nil {
			b.Fatal(err)
		}
		steps, err := window.Steps(ds.Points, win, stride)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range kinds {
			b.Run(fmt.Sprintf("hires/%s/streamAge=%d", kind, age), func(b *testing.B) {
				aged := func() model.Engine {
					eng, err := bench.NewEngine(kind, cfg, win, stride)
					if err != nil {
						b.Fatal(err)
					}
					for _, st := range steps[:1+age] {
						eng.Advance(st.In, st.Out)
					}
					return eng
				}
				eng := aged()
				next := 1 + age
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if next == len(steps) {
						b.StopTimer()
						eng, next = aged(), 1+age
						b.StartTimer()
					}
					eng.Advance(steps[next].In, steps[next].Out)
					next++
				}
			})
		}
	}
}

// --- Figs. 9/10: quality line-up latency --------------------------------------

func BenchmarkFig9(b *testing.B) {
	for _, kind := range []string{"disc", "rho2-0.1", "rho2-0.001", "dbstream", "edmstream"} {
		b.Run("maze/"+kind, func(b *testing.B) {
			benchStrides(b, kind, mkWorkload(b, "maze", benchScale, 0.05, nil))
		})
	}
}

func BenchmarkFig10(b *testing.B) {
	for _, kind := range []string{"disc", "rho2-0.1", "rho2-0.001", "dbstream", "edmstream"} {
		b.Run("dtg/"+kind, func(b *testing.B) {
			benchStrides(b, kind, mkWorkload(b, "dtg", benchScale, 0.05, nil))
		})
	}
}

// --- Fig. 11: DISC vs ρ² across distance thresholds ---------------------------

func BenchmarkFig11(b *testing.B) {
	for _, eps := range []float64{0.2, 0.8, 3.2} {
		for _, kind := range []string{"disc", "rho2-0.001"} {
			b.Run(fmt.Sprintf("maze/eps=%g/%s", eps, kind), func(b *testing.B) {
				benchStrides(b, kind, mkWorkload(b, "maze", benchScale, 0.05, func(dc *bench.DataConfig) {
					dc.Cfg.Eps = eps
				}))
			})
		}
	}
}

// --- Fig. 12: labeling extraction --------------------------------------------

func BenchmarkFig12Snapshot(b *testing.B) {
	w := mkWorkload(b, "maze", benchScale, 0.05, nil)
	eng, err := bench.NewEngine("disc", w.dc.Cfg, w.dc.Window, w.stride)
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range w.steps[:5] {
		eng.Advance(st.In, st.Out)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := eng.Snapshot(); len(snap) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
