package core

import (
	"math/rand"
	"testing"
	"time"

	"disc/internal/geom"
	"disc/internal/model"
	"disc/internal/window"
)

func TestClustersCensus(t *testing.T) {
	cfg := cfg2(1.1, 3)
	eng := New(cfg)
	// Square of 4 cores + one border + distant noise.
	pts := []model.Point{
		{ID: 1, Pos: geom.NewVec(0, 0)}, {ID: 2, Pos: geom.NewVec(1, 0)},
		{ID: 3, Pos: geom.NewVec(0, 1)}, {ID: 4, Pos: geom.NewVec(1, 1)},
		{ID: 5, Pos: geom.NewVec(1.9, 0.5)}, // core too (nbrs 2,4 + self)
		{ID: 6, Pos: geom.NewVec(2.9, 0.5)}, // border of 5
		{ID: 7, Pos: geom.NewVec(50, 50)},   // noise
	}
	eng.Advance(pts, nil)
	clusters, noise := eng.Clusters()
	if noise != 1 {
		t.Fatalf("noise = %d, want 1", noise)
	}
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(clusters))
	}
	c := clusters[0]
	if c.Cores != 5 || c.Borders != 1 || c.Size() != 6 {
		t.Fatalf("census = %+v", c)
	}
	members := eng.ClusterMembers(c.ID)
	if len(members) != 6 {
		t.Fatalf("members = %v", members)
	}
	// Cores first, sorted; border last.
	if members[len(members)-1] != 6 {
		t.Fatalf("border not last: %v", members)
	}
	if eng.ClusterMembers(999999) != nil {
		t.Fatal("phantom cluster returned members")
	}
}

func TestClustersCensusMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := clustered2D(rng, 800)
	eng := New(cfg2(2.5, 5))
	steps, _ := window.Steps(data, 300, 50)
	for _, st := range steps {
		eng.Advance(st.In, st.Out)
	}
	clusters, noise := eng.Clusters()
	snap := eng.Snapshot()
	wantNoise := 0
	wantSizes := map[int]int{}
	for _, a := range snap {
		if a.ClusterID == model.NoCluster {
			wantNoise++
		} else {
			wantSizes[a.ClusterID]++
		}
	}
	if noise != wantNoise {
		t.Fatalf("noise %d, want %d", noise, wantNoise)
	}
	if len(clusters) != len(wantSizes) {
		t.Fatalf("clusters %d, want %d", len(clusters), len(wantSizes))
	}
	for i, c := range clusters {
		if c.Size() != wantSizes[c.ID] {
			t.Fatalf("cluster %d size %d, want %d", c.ID, c.Size(), wantSizes[c.ID])
		}
		if i > 0 && clusters[i-1].Size() < c.Size() {
			t.Fatal("census not sorted by size")
		}
		if got := eng.ClusterMembers(c.ID); len(got) != c.Size() {
			t.Fatalf("cluster %d members %d, want %d", c.ID, len(got), c.Size())
		}
	}
}

// TestPhaseTimingsAccumulate pins the per-phase timing contract now that
// the record is its only carrier: every stride's four phases are
// non-negative and partition its Total exactly, the phases tile the advance
// from Start, and summing them over a run accumulates real time.
func TestPhaseTimingsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	data := clustered2D(rng, 600)
	var recs []StrideRecord
	eng := New(cfg2(2.5, 5), WithObserver(ObserverFunc(func(r StrideRecord) { recs = append(recs, r) })))
	steps, _ := window.Steps(data, 200, 40)
	for _, st := range steps {
		eng.Advance(st.In, st.Out)
	}
	if len(recs) != len(steps) {
		t.Fatalf("observed %d strides, want %d", len(recs), len(steps))
	}
	var collect, total time.Duration
	for i, r := range recs {
		if r.Collect < 0 || r.ExCorePhase < 0 || r.NeoCorePhase < 0 || r.Finalize < 0 {
			t.Fatalf("stride %d: negative phase %+v", r.Stride, r)
		}
		if r.Total != r.Collect+r.ExCorePhase+r.NeoCorePhase+r.Finalize {
			t.Fatalf("stride %d: phases do not partition Total", r.Stride)
		}
		if r.Start.IsZero() || (i > 0 && r.Start.Before(recs[i-1].Start.Add(recs[i-1].Total))) {
			t.Fatalf("stride %d starts at %v, inside the previous stride", r.Stride, r.Start)
		}
		collect += r.Collect
		total += r.Total
	}
	if collect <= 0 || total <= 0 {
		t.Fatalf("timings not accumulated: collect %v total %v", collect, total)
	}
	eng.ResetStats()
	if eng.Stats() != (model.Stats{}) || eng.PhaseAllocs() != (PhaseAllocs{}) {
		t.Fatal("ResetStats did not clear the accumulators")
	}
}
