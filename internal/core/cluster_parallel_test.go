package core

import (
	"math/rand"
	"testing"

	"disc/internal/datasets"
	"disc/internal/geom"
	"disc/internal/metrics"
	"disc/internal/model"
	"disc/internal/window"
)

// This file holds the differential tests for the parallel CLUSTER phase: for
// any worker count the engine must produce bit-identical snapshots, the same
// cluster-evolution event stream (same order, same ids, same absorbed lists),
// and identical Stats as the sequential engine — and the steady-state
// connectivity machinery must not allocate.

// recordEvents returns an option capturing every emitted event's rendered
// form. Event.String covers type, stride, cluster id, absorbed list and
// new-cluster list, so string equality is event equality.
func recordEvents(buf *[]string) Option {
	return WithEventHandler(func(ev Event) { *buf = append(*buf, ev.String()) })
}

// diffEngines advances seq (workers=1) and par over the same steps and fails
// on the first stride where snapshots, event streams, or stats diverge.
func diffEngines(t *testing.T, cfg model.Config, steps []window.Step, workers int, opts ...Option) {
	t.Helper()
	var seqEvents, parEvents []string
	seq := New(cfg, append([]Option{recordEvents(&seqEvents)}, opts...)...)
	par := New(cfg, append([]Option{recordEvents(&parEvents), WithWorkers(workers)}, opts...)...)
	for i, st := range steps {
		seq.Advance(st.In, st.Out)
		par.Advance(st.In, st.Out)
		want, got := seq.Snapshot(), par.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("step %d (workers=%d): %d points vs %d sequential", i, workers, len(got), len(want))
		}
		for id, w := range want {
			if g := got[id]; g != w {
				t.Fatalf("step %d (workers=%d): point %d: parallel %+v, sequential %+v",
					i, workers, id, g, w)
			}
		}
		if len(parEvents) != len(seqEvents) {
			t.Fatalf("step %d (workers=%d): %d events vs %d sequential\npar: %v\nseq: %v",
				i, workers, len(parEvents), len(seqEvents), parEvents, seqEvents)
		}
		for k := range seqEvents {
			if parEvents[k] != seqEvents[k] {
				t.Fatalf("step %d (workers=%d): event %d diverged:\npar: %s\nseq: %s",
					i, workers, k, parEvents[k], seqEvents[k])
			}
		}
	}
	if err := par.CheckInvariants(); err != nil {
		t.Fatalf("invariants (workers=%d): %v", workers, err)
	}
	if seq.Stats() != par.Stats() {
		t.Fatalf("stats diverged (workers=%d): sequential %+v, parallel %+v",
			workers, seq.Stats(), par.Stats())
	}
}

// TestParallelClusterDatasets runs the serial-vs-parallel differential over
// every bundled dataset generator with scaled-down Table II parameters, for
// worker counts beyond the fan-out chunk size and beyond typical core
// counts.
func TestParallelClusterDatasets(t *testing.T) {
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
			for _, workers := range []int{2, 4, 8} {
				diffEngines(t, dc.cfg, steps, workers)
			}
		})
	}
}

// TestParallelClusterSequentialBFS repeats the differential with MS-BFS and
// epoch-stamped scratch reuse disabled, covering the sequential-BFS fold and
// the fresh-visited-state ablation under parallel capture.
func TestParallelClusterSequentialBFS(t *testing.T) {
	ds, err := datasets.ByName("maze", 1800, 9)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := window.Steps(ds.Points, 1200, 300)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.Config{Dims: 2, Eps: 0.6, MinPts: 4}
	diffEngines(t, cfg, steps, 4, WithMSBFS(false))
	diffEngines(t, cfg, steps, 4, WithEpochProbing(false))
}

// FuzzParallelCluster is the differential fuzz target for the parallel
// CLUSTER phase. The geometry is split-heavy by construction: two dense
// blobs joined by a thin bridge whose points churn as the window slides, so
// strides routinely produce splits, mergers, shrinks and dissipations —
// exactly the paths where capture/fold ordering could diverge. Run with
// `go test -fuzz=FuzzParallelCluster ./internal/core` to explore further.
func FuzzParallelCluster(f *testing.F) {
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
		var seqEvents, parEvents []string
		seq := New(cfg, recordEvents(&seqEvents))
		par := New(cfg, recordEvents(&parEvents), WithWorkers(workers))
		for i, st := range steps {
			seq.Advance(st.In, st.Out)
			par.Advance(st.In, st.Out)
			want, got := seq.Snapshot(), par.Snapshot()
			if len(got) != len(want) {
				t.Fatalf("step %d (workers=%d): %d points vs %d sequential", i, workers, len(got), len(want))
			}
			for id, w := range want {
				if g := got[id]; g != w {
					t.Fatalf("step %d (workers=%d): point %d: parallel %+v, sequential %+v",
						i, workers, id, g, w)
				}
			}
			if err := metrics.SameClustering(got, want, st.Window, cfg); err != nil {
				t.Fatalf("step %d (workers=%d): %v", i, workers, err)
			}
			if len(parEvents) != len(seqEvents) {
				t.Fatalf("step %d (workers=%d): %d events vs %d sequential",
					i, workers, len(parEvents), len(seqEvents))
			}
			for k := range seqEvents {
				if parEvents[k] != seqEvents[k] {
					t.Fatalf("step %d (workers=%d): event %d diverged:\npar: %s\nseq: %s",
						i, workers, k, parEvents[k], seqEvents[k])
				}
			}
		}
		if err := par.CheckInvariants(); err != nil {
			t.Fatalf("invariants (workers=%d): %v", workers, err)
		}
		if seq.Stats() != par.Stats() {
			t.Fatalf("stats diverged: sequential %+v, parallel %+v", seq.Stats(), par.Stats())
		}
	})
}

// TestConnectivityZeroAlloc verifies the connectivity scratch-pool
// contract: once warmed up, a connectivity check — connected or split,
// pooled MS-BFS, sequential-BFS, or a dynamic-forest query — performs zero
// heap allocations.
func TestConnectivityZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"msbfs", nil},
		{"seq", []Option{WithMSBFS(false)}},
		{"dynamic", []Option{WithConnectivity(ConnDynamic)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 2}
			a := line(0, 0, 200, 0.9)    // ids 0..199, one component
			b := line(500, 400, 50, 0.9) // ids 500..549, far away
			eng := buildEngine(t, cfg, append(a, b...), tc.opts...)
			eng.ensureScratches(1)
			s := eng.scratches[0]
			res := new(connResult)
			connected := eng.slotsOf(0, 100, 199)
			split := eng.slotsOf(0, 199, 500)
			for i := 0; i < 3; i++ { // warm the pools past their high-water mark
				eng.connectivityInto(connected, s, res)
				eng.connectivityInto(split, s, res)
			}
			for name, bonding := range map[string][]int32{"connected": connected, "split": split} {
				allocs := testing.AllocsPerRun(100, func() {
					eng.connectivityInto(bonding, s, res)
				})
				if allocs != 0 {
					t.Errorf("%s: %v allocs/op, want 0", name, allocs)
				}
			}
		})
	}
}
