package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"disc/internal/datasets"
	"disc/internal/dbscan"
	"disc/internal/metrics"
	"disc/internal/model"
	"disc/internal/window"
)

// diffCorpus is the differential corpus shared by the index, connectivity,
// parallel-CLUSTER and delta tests: every bundled dataset generator with
// scaled-down Table II parameters.
var diffCorpus = map[string]struct {
	window int
	cfg    model.Config
}{
	"dtg":     {2000, model.Config{Dims: 2, Eps: 0.002, MinPts: 4}},
	"geolife": {800, model.Config{Dims: 3, Eps: 0.01, MinPts: 7}},
	"covid":   {1000, model.Config{Dims: 2, Eps: 1.2, MinPts: 5}},
	"iris":    {1000, model.Config{Dims: 4, Eps: 2, MinPts: 9}},
	"maze":    {1200, model.Config{Dims: 2, Eps: 0.6, MinPts: 4}},
}

// TestIndexDifferential runs the default ε-grid engine and the R-tree engine
// side by side over every corpus dataset, one and four workers, both
// connectivity strategies. After every stride both must equal dbscan.Run on
// the window and agree on every point's label; cluster ids may differ
// between the two only by renaming, since each index visits neighbours in
// its own order.
func TestIndexDifferential(t *testing.T) {
	for _, name := range datasets.Names() {
		dc, ok := diffCorpus[name]
		if !ok {
			t.Fatalf("dataset %q has no differential config; add one", name)
		}
		stride := dc.window / 4
		ds, err := datasets.ByName(name, dc.window+stride*5, 42)
		if err != nil {
			t.Fatal(err)
		}
		steps, err := window.Steps(ds.Points, dc.window, stride)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			for _, strat := range []ConnStrategy{ConnMSBFS, ConnDynamic} {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", name, workers, strat), func(t *testing.T) {
					grid := New(dc.cfg, WithWorkers(workers), WithConnectivity(strat))
					tree := New(dc.cfg, WithWorkers(workers), WithConnectivity(strat), WithRTreeIndex())
					for i, st := range steps {
						grid.Advance(st.In, st.Out)
						tree.Advance(st.In, st.Out)
						want := dbscan.Run(st.Window, dc.cfg)
						g, r := grid.Snapshot(), tree.Snapshot()
						if err := metrics.SameClustering(g, want, st.Window, dc.cfg); err != nil {
							t.Fatalf("step %d: grid vs DBSCAN: %v", i, err)
						}
						if err := metrics.SameClustering(r, want, st.Window, dc.cfg); err != nil {
							t.Fatalf("step %d: rtree vs DBSCAN: %v", i, err)
						}
						for id, a := range g {
							if a.Label != r[id].Label {
								t.Fatalf("step %d: point %d is %v on the grid, %v on the R-tree", i, id, a.Label, r[id].Label)
							}
						}
					}
					for _, eng := range []*Engine{grid, tree} {
						if err := eng.CheckInvariants(); err != nil {
							t.Fatalf("%s: %v", eng.tree.Name(), err)
						}
					}
				})
			}
		}
	}
}

// TestIndexIsNotCheckpointState: a snapshot restores onto whichever index
// LoadEngine's options select — the default when none is given — whatever
// index the saving engine ran on, and the restored engine stays exact.
func TestIndexIsNotCheckpointState(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	data := clustered2D(rng, 900)
	cfg := cfg2(2.5, 5)
	steps, _ := window.Steps(data, 300, 30)
	half := len(steps) / 2
	indexes := []struct {
		name string
		opts []Option
	}{
		{"grid", nil},
		{"rtree", []Option{WithRTreeIndex()}},
	}
	for _, from := range indexes {
		eng := New(cfg, from.opts...)
		for i, st := range steps[:half] {
			eng.Advance(st.In, st.Out)
			if err := eng.CheckInvariants(); err != nil {
				t.Fatalf("%s step %d: %v", from.name, i, err)
			}
		}
		var buf bytes.Buffer
		if err := eng.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		for _, to := range indexes {
			t.Run(from.name+"->"+to.name, func(t *testing.T) {
				restored, err := LoadEngine(bytes.NewReader(buf.Bytes()), to.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if got := restored.tree.Name(); got != to.name {
					t.Fatalf("restored onto %q, want %q", got, to.name)
				}
				for i, st := range steps[half:] {
					restored.Advance(st.In, st.Out)
					want := dbscan.Run(st.Window, cfg)
					if err := metrics.SameClustering(restored.Snapshot(), want, st.Window, cfg); err != nil {
						t.Fatalf("post-restore step %d: %v", i, err)
					}
				}
				if err := restored.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// hiresStream is the benchmark's hires_smallstride stream: the maze
// generator at ε 0.15, window 50 000, stride 50.
func hiresStream(tb testing.TB, strides int) (model.Config, []window.Step) {
	tb.Helper()
	const win, stride = 50000, 50
	steps, err := window.Steps(datasets.Maze(win+stride*strides, 21).Points, win, stride)
	if err != nil {
		tb.Fatal(err)
	}
	return model.Config{Dims: 2, Eps: 0.15, MinPts: 4}, steps
}

// TestIndexCostFlatOverStreamAge pins the property the ε-grid exists for:
// under identical churn, the index work one ε-search costs does not grow
// with the age of the stream. The measure is deterministic — index accesses
// per search, from the engine's own counters — not time. The R-tree, over a
// shorter run, must show the decay the grid avoids (54 → 775 nodes per
// search over 1500 strides when this test was written), so the grid's flat
// line is measured against a baseline that does grow.
func TestIndexCostFlatOverStreamAge(t *testing.T) {
	if testing.Short() {
		t.Skip("1500 strides over a 50 000-point window")
	}
	cfg, steps := hiresStream(t, 1500)
	// perSearch runs the fill and n strides, returning index accesses per
	// search over strides 1-100 and over the last hundred.
	perSearch := func(eng *Engine, n int) (young, old float64) {
		ratio := func(from, to model.Stats) float64 {
			return float64(to.NodeAccesses-from.NodeAccesses) / float64(to.RangeSearches-from.RangeSearches)
		}
		marks := map[int]model.Stats{} // stats after the fill (0) and after strides 100, n-100, n
		for i, st := range steps[:n+1] {
			eng.Advance(st.In, st.Out)
			if i == 0 || i == 100 || i == n-100 || i == n {
				marks[i] = eng.Stats()
			}
		}
		return ratio(marks[0], marks[100]), ratio(marks[n-100], marks[n])
	}
	t.Run("grid", func(t *testing.T) {
		young, old := perSearch(New(cfg), 1500)
		t.Logf("%.1f cells/search over strides 1-100, %.1f over 1401-1500", young, old)
		if old > 1.25*young {
			t.Errorf("index cost grew with stream age: %.1f accesses/search over strides 1401-1500, %.1f over 1-100", old, young)
		}
	})
	t.Run("rtree", func(t *testing.T) {
		young, old := perSearch(New(cfg, WithRTreeIndex()), 300)
		t.Logf("%.1f nodes/search over strides 1-100, %.1f over 201-300", young, old)
		if old < 3*young {
			t.Errorf("R-tree cost did not grow with stream age: %.1f nodes/search over strides 201-300, %.1f over 1-100", old, young)
		}
	})
}
