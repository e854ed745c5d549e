package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"disc/internal/dbscan"
	"disc/internal/geom"
	"disc/internal/metrics"
	"disc/internal/model"
	"disc/internal/window"
)

func cfg2(eps float64, minPts int) model.Config {
	return model.Config{Dims: 2, Eps: eps, MinPts: minPts}
}

// runStream drives a DISC engine over a dataset with the given window and
// stride, verifying after every step that its clustering is exactly what
// DBSCAN computes from scratch on the same window.
func verifyAgainstDBSCAN(t *testing.T, data []model.Point, cfg model.Config, win, stride int, opts ...Option) {
	t.Helper()
	steps, err := window.Steps(data, win, stride)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cfg, opts...)
	for i, st := range steps {
		eng.Advance(st.In, st.Out)
		want := dbscan.Run(st.Window, cfg)
		got := eng.Snapshot()
		if err := metrics.SameClustering(got, want, st.Window, cfg); err != nil {
			t.Fatalf("step %d (|in|=%d |out|=%d): %v", i, len(st.In), len(st.Out), err)
		}
	}
}

// clustered2D generates a stream with evolving Gaussian clusters plus noise,
// designed to exercise splits, merges, emergence and dissipation as the
// window slides.
func clustered2D(rng *rand.Rand, n int) []model.Point {
	centers := [][2]float64{{10, 10}, {30, 10}, {20, 30}, {40, 40}}
	pts := make([]model.Point, n)
	for i := range pts {
		var x, y float64
		switch {
		case rng.Float64() < 0.15: // noise
			x, y = rng.Float64()*50, rng.Float64()*50
		default:
			// Centers drift with stream position so clusters move, touch,
			// and separate over time.
			c := centers[rng.Intn(len(centers))]
			drift := float64(i) / float64(n) * 15
			x = c[0] + drift*0.5 + rng.NormFloat64()*2
			y = c[1] + rng.NormFloat64()*2
		}
		pts[i] = model.Point{ID: int64(i), Pos: geom.NewVec(x, y), Time: int64(i)}
	}
	return pts
}

func TestBootstrapMatchesDBSCAN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := clustered2D(rng, 300)
	cfg := cfg2(2.5, 5)
	eng := New(cfg)
	eng.Advance(data, nil)
	want := dbscan.Run(data, cfg)
	if err := metrics.SameClustering(eng.Snapshot(), want, data, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingEquivalenceSmallStride(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := clustered2D(rng, 1200)
	verifyAgainstDBSCAN(t, data, cfg2(2.5, 5), 400, 20)
}

func TestSlidingEquivalenceLargeStride(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := clustered2D(rng, 1200)
	verifyAgainstDBSCAN(t, data, cfg2(2.5, 5), 400, 100)
}

func TestSlidingEquivalenceStrideEqualsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := clustered2D(rng, 900)
	verifyAgainstDBSCAN(t, data, cfg2(2.5, 5), 300, 300)
}

func TestSlidingEquivalenceMinPtsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := clustered2D(rng, 600)
	// MinPts 1: every point is a core; no borders or noise can exist.
	verifyAgainstDBSCAN(t, data, cfg2(2.0, 1), 200, 25)
}

func TestSlidingEquivalenceHighDensityThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := clustered2D(rng, 900)
	verifyAgainstDBSCAN(t, data, cfg2(3.0, 25), 300, 30)
}

func TestSlidingEquivalenceTinyEps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := clustered2D(rng, 600)
	// Tiny ε: nearly everything is noise.
	verifyAgainstDBSCAN(t, data, cfg2(0.05, 3), 200, 20)
}

func TestSlidingEquivalenceAblations(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"NoMSBFS", []Option{WithMSBFS(false)}},
		{"NoEpoch", []Option{WithEpochProbing(false)}},
		{"Neither", []Option{WithMSBFS(false), WithEpochProbing(false)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			data := clustered2D(rng, 900)
			verifyAgainstDBSCAN(t, data, cfg2(2.5, 5), 300, 30, tc.opts...)
		})
	}
}

func TestSlidingEquivalence3D4D(t *testing.T) {
	for _, dims := range []int{3, 4} {
		t.Run(fmt.Sprintf("dims=%d", dims), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(dims)))
			n := 800
			data := make([]model.Point, n)
			for i := range data {
				var v geom.Vec
				c := float64(rng.Intn(3)) * 15
				for d := 0; d < dims; d++ {
					v[d] = c + rng.NormFloat64()*2
				}
				data[i] = model.Point{ID: int64(i), Pos: v}
			}
			cfg := model.Config{Dims: dims, Eps: 3, MinPts: 6}
			verifyAgainstDBSCAN(t, data, cfg, 250, 25)
		})
	}
}

// TestRandomizedFuzz sweeps random parameter combinations; each run checks
// full equivalence with DBSCAN at every stride. This is the flagship
// property test for DISC's exactness claim.
func TestRandomizedFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep skipped in -short mode")
	}
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			n := 400 + rng.Intn(500)
			data := clustered2D(rng, n)
			win := 100 + rng.Intn(150)
			stride := 1 + rng.Intn(win)
			eps := 0.5 + rng.Float64()*4
			minPts := 2 + rng.Intn(12)
			t.Logf("n=%d win=%d stride=%d eps=%.2f minPts=%d", n, win, stride, eps, minPts)
			verifyAgainstDBSCAN(t, data, cfg2(eps, minPts), win, stride)
		})
	}
}

func TestDuplicateCoordinatesStream(t *testing.T) {
	// Many points stacked on few distinct locations.
	rng := rand.New(rand.NewSource(11))
	data := make([]model.Point, 400)
	for i := range data {
		x := float64(rng.Intn(5)) * 3
		y := float64(rng.Intn(5)) * 3
		data[i] = model.Point{ID: int64(i), Pos: geom.NewVec(x, y)}
	}
	verifyAgainstDBSCAN(t, data, cfg2(1.0, 4), 120, 15)
}

func TestEmptyStride(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := clustered2D(rng, 200)
	cfg := cfg2(2.5, 5)
	eng := New(cfg)
	eng.Advance(data, nil)
	before := eng.Snapshot()
	eng.Advance(nil, nil) // advancing with an empty delta must be a no-op
	after := eng.Snapshot()
	if len(before) != len(after) {
		t.Fatalf("empty stride changed point count: %d -> %d", len(before), len(after))
	}
	for id, b := range before {
		if after[id] != b {
			t.Fatalf("empty stride changed assignment of %d: %+v -> %+v", id, b, after[id])
		}
	}
}

func TestAllNoiseWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := make([]model.Point, 300)
	for i := range data {
		data[i] = model.Point{ID: int64(i), Pos: geom.NewVec(rng.Float64()*1000, rng.Float64()*1000)}
	}
	verifyAgainstDBSCAN(t, data, cfg2(0.5, 5), 100, 10)
}

func TestSingleGiantCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	data := make([]model.Point, 300)
	for i := range data {
		data[i] = model.Point{ID: int64(i), Pos: geom.NewVec(rng.NormFloat64(), rng.NormFloat64())}
	}
	verifyAgainstDBSCAN(t, data, cfg2(1.0, 4), 100, 10)
}

// TestDeliberateSplitAndMerge drives a hand-built scenario: a dumbbell
// cluster whose bridge point leaves (split) and returns (merge).
func TestDeliberateSplitAndMerge(t *testing.T) {
	cfg := cfg2(1.1, 3)
	// Two blobs of 4 points each, 2 units apart, plus a bridge at the middle.
	blobA := []model.Point{
		{ID: 1, Pos: geom.NewVec(0, 0)}, {ID: 2, Pos: geom.NewVec(1, 0)},
		{ID: 3, Pos: geom.NewVec(0, 1)}, {ID: 4, Pos: geom.NewVec(1, 1)},
	}
	blobB := []model.Point{
		{ID: 5, Pos: geom.NewVec(2.8, 0)}, {ID: 6, Pos: geom.NewVec(3.8, 0)},
		{ID: 7, Pos: geom.NewVec(2.8, 1)}, {ID: 8, Pos: geom.NewVec(3.8, 1)},
	}
	// The bridge is within ε=1.1 of two points of each blob, so it is a core
	// (nε = 5) whose presence density-connects the blobs.
	bridge := model.Point{ID: 9, Pos: geom.NewVec(1.9, 0.5)}
	bridge2 := model.Point{ID: 10, Pos: geom.NewVec(1.9, 0.5)}

	eng := New(cfg)
	all := append(append(append([]model.Point{}, blobA...), blobB...), bridge)
	eng.Advance(all, nil)
	snap := eng.Snapshot()
	if snap[1].ClusterID != snap[5].ClusterID {
		t.Fatal("bridged blobs should be one cluster")
	}
	nClusters := countClusters(snap)
	if nClusters != 1 {
		t.Fatalf("clusters = %d, want 1", nClusters)
	}

	// Bridge leaves: the cluster must split in two.
	eng.Advance(nil, []model.Point{bridge})
	snap = eng.Snapshot()
	if snap[1].ClusterID == snap[5].ClusterID {
		t.Fatal("split not detected after bridge exit")
	}
	if got := countClusters(snap); got != 2 {
		t.Fatalf("clusters after split = %d, want 2", got)
	}
	if eng.Stats().Splits == 0 {
		t.Error("split not counted in stats")
	}

	// A new bridge arrives: the clusters must merge back.
	eng.Advance([]model.Point{bridge2}, nil)
	snap = eng.Snapshot()
	if snap[1].ClusterID != snap[5].ClusterID {
		t.Fatal("merge not performed after bridge entry")
	}
	if eng.Stats().Merges == 0 {
		t.Error("merge not counted in stats")
	}

	// Cross-check the final state against DBSCAN.
	allNow := append(append(append([]model.Point{}, blobA...), blobB...), bridge2)
	want := dbscan.Run(allNow, cfg)
	if err := metrics.SameClustering(eng.Snapshot(), want, allNow, cfg); err != nil {
		t.Fatal(err)
	}
}

func countClusters(snap map[int64]model.Assignment) int {
	set := map[int]bool{}
	for _, a := range snap {
		if a.ClusterID != model.NoCluster {
			set[a.ClusterID] = true
		}
	}
	return len(set)
}

func TestDissipation(t *testing.T) {
	cfg := cfg2(1.1, 3)
	blob := []model.Point{
		{ID: 1, Pos: geom.NewVec(0, 0)}, {ID: 2, Pos: geom.NewVec(1, 0)},
		{ID: 3, Pos: geom.NewVec(0, 1)}, {ID: 4, Pos: geom.NewVec(1, 1)},
	}
	eng := New(cfg)
	eng.Advance(blob, nil)
	if got := countClusters(eng.Snapshot()); got != 1 {
		t.Fatalf("clusters = %d, want 1", got)
	}
	// Remove two points: the remaining two can no longer be cores.
	eng.Advance(nil, blob[:2])
	snap := eng.Snapshot()
	if got := countClusters(snap); got != 0 {
		t.Fatalf("clusters after dissipation = %d, want 0", got)
	}
	for id, a := range snap {
		if a.Label != model.Noise {
			t.Fatalf("point %d is %v, want noise", id, a.Label)
		}
	}
}

func TestAdvancePanicsOnUnknownExit(t *testing.T) {
	eng := New(cfg2(1, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for exit of never-inserted point")
		}
	}()
	eng.Advance(nil, []model.Point{{ID: 42, Pos: geom.NewVec(0, 0)}})
}

func TestAdvancePanicsOnDuplicateID(t *testing.T) {
	eng := New(cfg2(1, 2))
	p := model.Point{ID: 1, Pos: geom.NewVec(0, 0)}
	eng.Advance([]model.Point{p}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate id")
		}
	}()
	eng.Advance([]model.Point{p}, nil)
}

func TestStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	data := clustered2D(rng, 400)
	steps, _ := window.Steps(data, 200, 20)
	eng := New(cfg2(2.5, 5))
	for _, st := range steps {
		eng.Advance(st.In, st.Out)
	}
	s := eng.Stats()
	if s.Strides != int64(len(steps)) {
		t.Errorf("Strides = %d, want %d", s.Strides, len(steps))
	}
	if s.RangeSearches == 0 || s.NodeAccesses == 0 {
		t.Errorf("work counters not accumulated: %+v", s)
	}
	eng.ResetStats()
	if eng.Stats() != (model.Stats{}) {
		t.Error("ResetStats did not zero")
	}
}

// TestFewerSearchesThanDBSCAN asserts the headline efficiency claim on a
// small-stride workload: DISC must issue fewer range searches than the
// from-scratch baseline.
func TestFewerSearchesThanDBSCAN(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	data := clustered2D(rng, 2000)
	steps, _ := window.Steps(data, 1000, 50) // 5% stride
	eng := New(cfg2(2.5, 5))
	base := dbscan.New(cfg2(2.5, 5))
	for _, st := range steps {
		eng.Advance(st.In, st.Out)
		base.Advance(st.In, st.Out)
	}
	// Exclude the bootstrap stride from the comparison by construction: both
	// engines processed it identically often.
	d, b := eng.Stats().RangeSearches, base.Stats().RangeSearches
	if d >= b {
		t.Errorf("DISC range searches %d >= DBSCAN %d", d, b)
	}
	t.Logf("range searches: DISC=%d DBSCAN=%d (%.1fx fewer)", d, b, float64(b)/float64(d))
}

func TestSnapshotUnknownID(t *testing.T) {
	eng := New(cfg2(1, 2))
	if _, ok := eng.Assignment(123); ok {
		t.Fatal("unknown id reported as tracked")
	}
}

func TestCIDCompaction(t *testing.T) {
	// Run enough strides to cross the compaction interval and verify
	// assignments survive it.
	rng := rand.New(rand.NewSource(17))
	data := clustered2D(rng, 3000)
	cfg := cfg2(2.5, 5)
	eng := New(cfg)
	steps, _ := window.Steps(data, 200, 2)
	if len(steps) < compactInterval+2 {
		t.Skip("not enough steps to cross the compaction interval")
	}
	for i, st := range steps {
		eng.Advance(st.In, st.Out)
		if i == compactInterval || i == len(steps)-1 {
			want := dbscan.Run(st.Window, cfg)
			if err := metrics.SameClustering(eng.Snapshot(), want, st.Window, cfg); err != nil {
				t.Fatalf("step %d (post-compaction check): %v", i, err)
			}
		}
	}
}

// TestMultiCutSplitRegression pins the bug found by fuzzing: one cluster
// severed at TWO places in a single stride by ex-core components that are
// not retro-reachable from each other. Each connectivity check must relabel
// every component it discovers — if each check left "its" survivor with the
// old cluster id, two disconnected fragments would silently share it.
func TestMultiCutSplitRegression(t *testing.T) {
	cfg := cfg2(1.0, 1) // MinPts 1: every point is a core
	// A chain: A - e1 - B - e2 - C, with e1 and e2 more than ε apart so they
	// are separate retro components when both leave.
	mk := func(id int64, x float64) model.Point {
		return model.Point{ID: id, Pos: geom.NewVec(x, 0)}
	}
	pts := []model.Point{
		mk(1, 0.0), // A
		mk(2, 0.9), // e1
		mk(3, 1.8), // B (sandwiched survivor)
		mk(4, 2.7), // e2
		mk(5, 3.6), // C
	}
	for _, opts := range [][]Option{
		nil,
		{WithMSBFS(false)},
		{WithEpochProbing(false)},
		{WithMSBFS(false), WithEpochProbing(false)},
	} {
		eng := New(cfg, opts...)
		eng.Advance(pts, nil)
		snap := eng.Snapshot()
		if snap[1].ClusterID != snap[5].ClusterID {
			t.Fatal("chain must start as one cluster")
		}
		// e1 and e2 leave together: A, B, C become three separate clusters.
		eng.Advance(nil, []model.Point{pts[1], pts[3]})
		snap = eng.Snapshot()
		ids := map[int]bool{snap[1].ClusterID: true, snap[3].ClusterID: true, snap[5].ClusterID: true}
		if len(ids) != 3 {
			t.Fatalf("fragments share cluster ids: A=%d B=%d C=%d",
				snap[1].ClusterID, snap[3].ClusterID, snap[5].ClusterID)
		}
		want := dbscan.Run([]model.Point{pts[0], pts[2], pts[4]}, cfg)
		if err := metrics.SameClustering(snap, want, []model.Point{pts[0], pts[2], pts[4]}, cfg); err != nil {
			t.Fatal(err)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlidingEquivalence1D covers the one-dimensional case (interval
// clustering), which exercises degenerate rectangle geometry in the index.
func TestSlidingEquivalence1D(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := make([]model.Point, 600)
	for i := range data {
		var x float64
		if rng.Float64() < 0.3 {
			x = rng.Float64() * 100
		} else {
			x = float64(rng.Intn(4))*25 + rng.NormFloat64()
		}
		data[i] = model.Point{ID: int64(i), Pos: geom.NewVec(x)}
	}
	cfg := model.Config{Dims: 1, Eps: 1.5, MinPts: 4}
	verifyAgainstDBSCAN(t, data, cfg, 200, 25)
}

// TestEveryInt64IsAPointID is the regression test for the id the engine
// used to reserve: "no hint" was spelled as id -1, so a border whose only
// core neighbour was a point -1 looked unhinted, and the repair search that
// then found -1 again panicked with "no core ε-neighbor" (a 409 mid-stride
// on the server). Point -1 is core, then border, then core again, with a
// checkpoint taken while border 20 hints at it.
func TestEveryInt64IsAPointID(t *testing.T) {
	cfg := cfg2(1, 3)
	at := func(id int64, x, y float64) model.Point { return model.Point{ID: id, Pos: geom.NewVec(x, y)} }
	// -1, 10 and 11 are mutual neighbours (cores); 20 is within ε of -1 only.
	var win []model.Point
	eng := New(cfg)
	step := func(in, out []model.Point) {
		t.Helper()
		eng.Advance(in, out)
		for _, p := range out {
			win = slices.DeleteFunc(win, func(q model.Point) bool { return q.ID == p.ID })
		}
		win = append(win, in...)
		if err := metrics.SameClustering(eng.Snapshot(), dbscan.Run(win, cfg), win, cfg); err != nil {
			t.Fatal(err)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	step([]model.Point{at(-1, 0, 0), at(10, 0.5, 0), at(11, -0.5, 0), at(20, 0, 0.9)}, nil)
	if st := eng.hot[eng.slotOf[20]]; st.label != model.Border || st.hint != eng.slotOf[-1] {
		t.Fatalf("point 20: label %v, hint slot %d; want a border hinting at point -1 (slot %d)", st.label, st.hint, eng.slotOf[-1])
	}
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var err error
	if eng, err = LoadEngine(&buf); err != nil {
		t.Fatalf("restoring a border that hints at point -1: %v", err)
	}
	step(nil, []model.Point{at(11, -0.5, 0)})                            // 11 leaves: -1 and 10 fall to noise, 20 with them
	step([]model.Point{at(12, -0.4, 0.1)}, nil)                          // -1 is a core again, 20 its border
	step([]model.Point{at(-2, 0.2, 0.8)}, []model.Point{at(10, 0.5, 0)}) // 10 leaves; 20 gains a neighbour
	step([]model.Point{at(13, 0.1, 0.1), at(14, 5, 5)}, nil)
}
