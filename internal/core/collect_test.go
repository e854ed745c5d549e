package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"disc/internal/geom"
	"disc/internal/model"
	"disc/internal/window"
)

// assignmentsEqual requires two snapshots to be identical maps — not merely
// the same clustering up to renaming. The parallel COLLECT merge is
// deterministic, so engines differing only in worker count must agree on
// every label AND every resolved cluster id.
func assignmentsEqual(t *testing.T, got, want map[int64]model.Assignment, ctx string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		for id, w := range want {
			if g, ok := got[id]; !ok || g != w {
				t.Fatalf("%s: point %d: got %+v, want %+v", ctx, id, got[id], w)
			}
		}
		t.Fatalf("%s: snapshots differ (got %d points, want %d)", ctx, len(got), len(want))
	}
}

// TestParallelCollectBitIdentical drives engines with worker counts 1, 2, 4
// and 8 through the same evolving stream on both index backends and
// requires bit-identical snapshots and work counters after every stride.
func TestParallelCollectBitIdentical(t *testing.T) {
	backends := []struct {
		name string
		opts []Option
	}{
		{"grid", nil},
		{"rtree", []Option{WithRTreeIndex()}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			const win, stride = 1200, 300
			data := clustered2D(rng, win+stride*8)
			steps, err := window.Steps(data, win, stride)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cfg2(2.5, 5)
			newEng := func(w int) *Engine {
				return New(cfg, append([]Option{WithWorkers(w)}, be.opts...)...)
			}
			seq := newEng(1)
			pars := map[int]*Engine{2: newEng(2), 4: newEng(4), 8: newEng(8)}
			for i, st := range steps {
				seq.Advance(st.In, st.Out)
				want := seq.Snapshot()
				wantStats := seq.Stats()
				for w, par := range pars {
					par.Advance(st.In, st.Out)
					assignmentsEqual(t, par.Snapshot(), want,
						fmt.Sprintf("step %d workers=%d", i, w))
					if got := par.Stats(); got != wantStats {
						t.Fatalf("step %d workers=%d: stats %+v, want %+v", i, w, got, wantStats)
					}
				}
			}
			for w, par := range pars {
				if err := par.CheckInvariants(); err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
			}
		})
	}
}

// TestParallelCollectMatchesDBSCAN reruns the exactness oracle with a
// parallel engine: every stride of the parallel DISC must match from-scratch
// DBSCAN.
func TestParallelCollectMatchesDBSCAN(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data := clustered2D(rng, 2200)
	verifyAgainstDBSCAN(t, data, cfg2(2.5, 5), 1000, 250, WithWorkers(4))
	verifyAgainstDBSCAN(t, clustered2D(rand.New(rand.NewSource(11)), 1500),
		cfg2(3, 8), 900, 900, WithWorkers(8)) // tumbling window: Δin = Δout = everything
}

// TestConcurrentQueriesDuringStream runs one feeder goroutine against a raw
// (unwrapped) engine and, between strides, several concurrent query
// goroutines — verifying under -race that Snapshot, Assignment and Stats
// perform no hidden writes (union-find path compression, index statistics).
func TestConcurrentQueriesDuringStream(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const win, stride = 800, 200
	data := clustered2D(rng, win+stride*6)
	steps, err := window.Steps(data, win, stride)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cfg2(2.5, 5), WithWorkers(4))
	for _, st := range steps {
		eng.Advance(st.In, st.Out)
		// Queries are only safe between Advance calls; hammer them from
		// several goroutines at once to let the race detector inspect the
		// full read path.
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for k := 0; k < 50; k++ {
					eng.Assignment(int64(r.Intn(len(data))))
					eng.Stats()
				}
				eng.Snapshot()
			}(int64(g))
		}
		wg.Wait()
	}
}

// TestSearchBallROMatchesBrute verifies the one search method an index has
// visits exactly the points a linear scan accepts, on every backend, and that
// concurrent searches are race-free.
func TestSearchBallROMatchesBrute(t *testing.T) {
	backends := []struct {
		name string
		opts []Option
	}{
		{"grid", nil},
		{"rtree", []Option{WithRTreeIndex()}},
	}
	rng := rand.New(rand.NewSource(14))
	data := clustered2D(rng, 1500)
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			eng := New(cfg2(2.5, 5), be.opts...)
			eng.Advance(data, nil)
			for trial := 0; trial < 40; trial++ {
				c := geom.NewVec(rng.Float64()*60, rng.Float64()*60)
				eps := 0.5 + rng.Float64()*4
				want := map[int64]bool{}
				for _, p := range data {
					if geom.Dist2(p.Pos, c, 2) <= eps*eps {
						want[p.ID] = true
					}
				}
				got := map[int64]bool{}
				eng.tree.SearchBallRO(c, eps, func(s int32) bool {
					got[eng.ids[s]] = true
					return true
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: search visited %d points, a scan accepts %d", trial, len(got), len(want))
				}
			}
			// Concurrent read-only searches over one fixed index must be
			// race-free on every backend.
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for k := 0; k < 30; k++ {
						c := geom.NewVec(r.Float64()*60, r.Float64()*60)
						eng.tree.SearchBallRO(c, 2.5, func(int32) bool { return true })
					}
				}(int64(g))
			}
			wg.Wait()
		})
	}
}

// TestAssignmentSelfHeals corrupts a border hint in a running engine and
// checks queries degrade gracefully instead of panicking: the healed
// assignment must still name the cluster of a live core ε-neighbor, and a
// border stripped of all core neighbors must degrade to noise.
func TestAssignmentSelfHeals(t *testing.T) {
	// A 4-core cluster (minPts 3 within ε=1.5 of each other) plus one border
	// point within ε of only the rightmost core.
	pts := []model.Point{
		{ID: 1, Pos: geom.NewVec(0, 0)},
		{ID: 2, Pos: geom.NewVec(1, 0)},
		{ID: 3, Pos: geom.NewVec(2, 0)},
		{ID: 4, Pos: geom.NewVec(3, 0)},
		{ID: 5, Pos: geom.NewVec(4.2, 0)}, // border: within ε of core 4 only
	}
	eng := New(cfg2(1.5, 3))
	eng.Advance(pts, nil)
	a, ok := eng.Assignment(5)
	if !ok || a.Label != model.Border {
		t.Fatalf("point 5 = %+v, want border", a)
	}
	wantCID := a.ClusterID

	// Corrupt the hint to a point that is no core, as a poisoned checkpoint
	// would.
	s5 := eng.slotOf[5]
	eng.hot[s5].hint = s5
	healed, ok := eng.Assignment(5)
	if !ok {
		t.Fatal("point 5 vanished")
	}
	if healed.Label != model.Border || healed.ClusterID != wantCID {
		t.Fatalf("healed assignment = %+v, want border in cluster %d", healed, wantCID)
	}
	// Snapshot takes the same path.
	if snap := eng.Snapshot(); snap[5] != healed {
		t.Fatalf("snapshot[5] = %+v, want %+v", snap[5], healed)
	}

	// With the hint corrupted AND no core in range, the query degrades to
	// noise rather than crashing.
	eng.pos[s5] = geom.NewVec(100, 100) // teleport state only; tree untouched is fine for this query
	if a, _ := eng.Assignment(5); a.Label != model.Noise || a.ClusterID != model.NoCluster {
		t.Fatalf("orphaned border = %+v, want noise", a)
	}
}
