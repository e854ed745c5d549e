package core

import (
	"bytes"
	"math/rand"
	"testing"

	"disc/internal/datasets"
	"disc/internal/geom"
	"disc/internal/metrics"
	"disc/internal/model"
	"disc/internal/window"
)

// This file holds the differential tests for the connectivity strategies:
// the maintained dyncon forest (WithConnectivity(ConnDynamic)) must produce
// bit-identical snapshots, event streams, and statistics to the per-stride
// MS-BFS reference for every dataset, worker count, and stride — across
// checkpoint restores and forest-desync rebuilds included.

// diffStrategies advances an MS-BFS reference engine and a dynamic-forest
// engine over the same steps and fails on the first stride where snapshots,
// event streams, or stats diverge. refOpts lets callers pin the reference to
// an ablation variant (sequential BFS, no epoch probing).
func diffStrategies(t *testing.T, cfg model.Config, steps []window.Step, workers int, refOpts ...Option) {
	t.Helper()
	var refEvents, dynEvents []string
	ref := New(cfg, append([]Option{recordEvents(&refEvents)}, refOpts...)...)
	dyn := New(cfg, recordEvents(&dynEvents), WithConnectivity(ConnDynamic), WithWorkers(workers))
	for i, st := range steps {
		ref.Advance(st.In, st.Out)
		dyn.Advance(st.In, st.Out)
		compareEngines(t, ref, dyn, refEvents, dynEvents, i, workers)
	}
	if err := dyn.CheckInvariants(); err != nil {
		t.Fatalf("invariants (workers=%d): %v", workers, err)
	}
	if got := dyn.forestRebuilds; got != 0 {
		t.Fatalf("incremental run fell back to %d full forest rebuilds", got)
	}
}

// compareEngines fails on any observable difference between the two engines
// after one stride: snapshot, event stream, stats.
func compareEngines(t *testing.T, ref, dyn *Engine, refEvents, dynEvents []string, step, workers int) {
	t.Helper()
	want, got := ref.Snapshot(), dyn.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("step %d (workers=%d): %d points vs %d reference", step, workers, len(got), len(want))
	}
	for id, w := range want {
		if g := got[id]; g != w {
			t.Fatalf("step %d (workers=%d): point %d: dynamic %+v, reference %+v",
				step, workers, id, g, w)
		}
	}
	if len(dynEvents) != len(refEvents) {
		t.Fatalf("step %d (workers=%d): %d events vs %d reference\ndyn: %v\nref: %v",
			step, workers, len(dynEvents), len(refEvents), dynEvents, refEvents)
	}
	for k := range refEvents {
		if dynEvents[k] != refEvents[k] {
			t.Fatalf("step %d (workers=%d): event %d diverged:\ndyn: %s\nref: %s",
				step, workers, k, dynEvents[k], refEvents[k])
		}
	}
	if ref.Stats() != dyn.Stats() {
		t.Fatalf("step %d (workers=%d): stats diverged:\nref %+v\ndyn %+v",
			step, workers, ref.Stats(), dyn.Stats())
	}
}

// TestConnectivityStrategyDatasets runs the MS-BFS-vs-dynamic differential
// over every bundled dataset generator, serial and fanned out.
func TestConnectivityStrategyDatasets(t *testing.T) {
	for _, name := range datasets.Names() {
		dc, ok := diffCorpus[name]
		if !ok {
			t.Fatalf("dataset %q has no differential config; add one", name)
		}
		t.Run(name, func(t *testing.T) {
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
				diffStrategies(t, dc.cfg, steps, workers)
			}
		})
	}
}

// TestConnectivityStrategyVsAblations pins that the dynamic forest is also
// bit-identical to the sequential-BFS and no-epoch-probing reference
// variants — the canonical component order is strategy-independent across
// all four implementations.
func TestConnectivityStrategyVsAblations(t *testing.T) {
	ds, err := datasets.ByName("maze", 1800, 9)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := window.Steps(ds.Points, 1200, 300)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.Config{Dims: 2, Eps: 0.6, MinPts: 4}
	diffStrategies(t, cfg, steps, 4, WithMSBFS(false))
	diffStrategies(t, cfg, steps, 4, WithEpochProbing(false))
}

// TestConnectivityCheckpointRoundTrip is the restore differential: a dynamic
// engine is checkpointed mid-run, restored (which must rebuild the forest —
// it is never serialized), and the restored engine must stay bit-identical
// to an MS-BFS reference over 20 subsequent strides.
func TestConnectivityCheckpointRoundTrip(t *testing.T) {
	ds, err := datasets.ByName("maze", 1200+100*26, 7)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := window.Steps(ds.Points, 1200, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) < 26 {
		t.Fatalf("only %d steps generated", len(steps))
	}
	cfg := model.Config{Dims: 2, Eps: 0.6, MinPts: 4}

	var refEvents, dynEvents []string
	ref := New(cfg)
	dyn := New(cfg, WithConnectivity(ConnDynamic), WithWorkers(4))
	mid := len(steps) - 20
	for _, st := range steps[:mid] {
		ref.Advance(st.In, st.Out)
		dyn.Advance(st.In, st.Out)
	}

	// Round-trip BOTH engines: a restored engine's R-tree is rebuilt with
	// one STR bulk load, so its node layout — and with it per-search
	// NodeAccesses — legitimately differs from a continuously grown tree.
	// Comparing two restored engines keeps the strategy the only variable.
	var refBuf, buf bytes.Buffer
	if err := ref.SaveSnapshot(&refBuf); err != nil {
		t.Fatal(err)
	}
	ref, err = LoadEngine(&refBuf, recordEvents(&refEvents))
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEngine(&buf, recordEvents(&dynEvents), WithWorkers(4), WithConnectivity(ConnDynamic))
	if err != nil {
		t.Fatal(err)
	}
	if restored.forestRebuilds != 1 {
		t.Fatalf("restore rebuilt the forest %d times, want exactly 1", restored.forestRebuilds)
	}
	if restored.forest.NumVertices() == 0 {
		t.Fatal("restored forest is empty; rebuild did not run against the window")
	}

	for i, st := range steps[mid:] {
		ref.Advance(st.In, st.Out)
		restored.Advance(st.In, st.Out)
		compareEngines(t, ref, restored, refEvents, dynEvents, mid+i, 4)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConnectivityRestoreOverride pins where a restored engine's strategy
// comes from: LoadEngine's options, never the snapshot. Whatever strategy
// saved it, the engine runs MS-BFS with no forest unless WithConnectivity
// asks for the forest, which is then rebuilt exactly once.
func TestConnectivityRestoreOverride(t *testing.T) {
	cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 2}
	strategies := []struct {
		name string
		opts []Option
		want ConnStrategy
	}{
		{"default", nil, ConnMSBFS},
		{"msbfs", []Option{WithConnectivity(ConnMSBFS)}, ConnMSBFS},
		{"dynamic", []Option{WithConnectivity(ConnDynamic)}, ConnDynamic},
	}
	for _, from := range strategies {
		for _, to := range strategies {
			t.Run(from.name+"->"+to.name, func(t *testing.T) {
				eng := New(cfg, from.opts...)
				eng.Advance(line(0, 0, 40, 0.9), nil)
				var buf bytes.Buffer
				if err := eng.SaveSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				restored, err := LoadEngine(&buf, to.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if restored.connStrategy != to.want {
					t.Fatalf("strategy = %v, want %v", restored.connStrategy, to.want)
				}
				wantRebuilds, wantForest := int64(0), false
				if to.want == ConnDynamic {
					wantRebuilds, wantForest = 1, true
				}
				if restored.forestRebuilds != wantRebuilds || (restored.forest != nil) != wantForest {
					t.Fatalf("forest present=%v rebuilt %d times, want present=%v rebuilt %d times",
						restored.forest != nil, restored.forestRebuilds, wantForest, wantRebuilds)
				}
				// The restored engine must work under its strategy: remove a
				// middle core, forcing a split decision.
				restored.Advance(nil, []model.Point{{ID: 20}})
				if err := restored.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				snap := restored.Snapshot()
				if a, b := snap[0], snap[39]; a.ClusterID == b.ClusterID {
					t.Fatalf("severed chain halves share cluster %d", a.ClusterID)
				}
			})
		}
	}
}

// TestForestDesyncRebuild sabotages the maintained forest mid-run and checks
// that the engine detects the desync on the next stride's delta, falls back
// to a full rebuild, and keeps producing bit-identical output.
func TestForestDesyncRebuild(t *testing.T) {
	ds, err := datasets.ByName("maze", 2400, 11)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := window.Steps(ds.Points, 1200, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.Config{Dims: 2, Eps: 0.6, MinPts: 4}
	var refEvents, dynEvents []string
	ref := New(cfg, recordEvents(&refEvents))
	dyn := New(cfg, recordEvents(&dynEvents), WithConnectivity(ConnDynamic))
	for i, st := range steps {
		if i == len(steps)/2 {
			dyn.forest.Reset() // sabotage: drop every vertex and edge
		}
		ref.Advance(st.In, st.Out)
		dyn.Advance(st.In, st.Out)
		compareEngines(t, ref, dyn, refEvents, dynEvents, i, 1)
	}
	if got := dyn.forestRebuilds; got < 1 {
		t.Fatalf("forest rebuilds = %d, want >= 1 after sabotage", got)
	}
	if err := dyn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FuzzConnectivityEquivalence is the differential fuzz target for the
// connectivity strategies, on the same split-heavy churn geometry as
// FuzzParallelCluster: an MS-BFS reference against a dynamic-forest engine,
// with a checkpoint round-trip of both engines halfway through. Run
// with `go test -fuzz=FuzzConnectivityEquivalence ./internal/core`.
func FuzzConnectivityEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(100), uint8(20), uint8(10), uint8(3), uint8(4))
	f.Add(int64(2), uint8(60), uint8(60), uint8(4), uint8(1), uint8(8))
	f.Add(int64(3), uint8(140), uint8(3), uint8(24), uint8(6), uint8(2))
	f.Add(int64(4), uint8(80), uint8(10), uint8(1), uint8(2), uint8(3))
	f.Add(int64(5), uint8(120), uint8(40), uint8(30), uint8(5), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, winRaw, strideRaw, epsRaw, minPtsRaw, workersRaw uint8) {
		win := int(winRaw)%150 + 30
		stride := int(strideRaw)%win + 1
		eps := 0.3 + float64(epsRaw%40)*0.05
		minPts := int(minPtsRaw)%8 + 1
		workers := int(workersRaw)%16 + 2
		rng := rand.New(rand.NewSource(seed))
		n := win + stride*6
		data := make([]model.Point, n)
		for i := range data {
			var x, y float64
			switch rng.Intn(4) {
			case 0: // left blob
				x, y = rng.NormFloat64()*1.2, rng.NormFloat64()*1.2
			case 1: // right blob
				x, y = 10+rng.NormFloat64()*1.2, rng.NormFloat64()*1.2
			case 2: // bridge between the blobs — churn here causes splits/mergers
				x, y = rng.Float64()*10, rng.NormFloat64()*0.3
			default: // background noise
				x, y = rng.Float64()*20-5, rng.Float64()*20-10
			}
			data[i] = model.Point{ID: int64(i), Pos: geom.NewVec(x, y)}
		}
		cfg := model.Config{Dims: 2, Eps: eps, MinPts: minPts}
		steps, err := window.Steps(data, win, stride)
		if err != nil {
			t.Fatal(err)
		}
		var refEvents, dynEvents []string
		ref := New(cfg, recordEvents(&refEvents))
		dyn := New(cfg, recordEvents(&dynEvents), WithConnectivity(ConnDynamic), WithWorkers(workers))
		for i, st := range steps {
			if i == len(steps)/2 {
				// Round-trip BOTH engines through a checkpoint (each must
				// pick up exactly where it left off; restoring both keeps
				// the bulk-loaded tree layout — which NodeAccesses depends
				// on — identical between them).
				var refBuf, dynBuf bytes.Buffer
				if err := ref.SaveSnapshot(&refBuf); err != nil {
					t.Fatal(err)
				}
				ref, err = LoadEngine(&refBuf, recordEvents(&refEvents))
				if err != nil {
					t.Fatal(err)
				}
				if err := dyn.SaveSnapshot(&dynBuf); err != nil {
					t.Fatal(err)
				}
				dyn, err = LoadEngine(&dynBuf, recordEvents(&dynEvents), WithConnectivity(ConnDynamic), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
			}
			ref.Advance(st.In, st.Out)
			dyn.Advance(st.In, st.Out)
			want, got := ref.Snapshot(), dyn.Snapshot()
			if len(got) != len(want) {
				t.Fatalf("step %d: %d points vs %d reference", i, len(got), len(want))
			}
			for id, w := range want {
				if g := got[id]; g != w {
					t.Fatalf("step %d: point %d: dynamic %+v, reference %+v", i, id, g, w)
				}
			}
			if err := metrics.SameClustering(got, want, st.Window, cfg); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if len(dynEvents) != len(refEvents) {
				t.Fatalf("step %d: %d events vs %d reference\ndyn: %v\nref: %v",
					i, len(dynEvents), len(refEvents), dynEvents, refEvents)
			}
			for k := range refEvents {
				if dynEvents[k] != refEvents[k] {
					t.Fatalf("step %d: event %d diverged:\ndyn: %s\nref: %s", i, k, dynEvents[k], refEvents[k])
				}
			}
			if ref.Stats() != dyn.Stats() {
				t.Fatalf("step %d: stats diverged:\nref %+v\ndyn %+v", i, ref.Stats(), dyn.Stats())
			}
		}
		if err := dyn.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
