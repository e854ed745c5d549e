package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"disc/internal/datasets"
	"disc/internal/geom"
	"disc/internal/model"
	"disc/internal/window"
)

// benchAdvance measures one stride of a DISC variant over a synthetic
// evolving stream (window 4000, stride 5%).
func benchAdvance(b *testing.B, opts ...Option) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	const win, stride = 4000, 200
	data := clustered2D(rng, win+stride*64)
	steps, err := window.Steps(data, win, stride)
	if err != nil {
		b.Fatal(err)
	}
	newEng := func() *Engine {
		eng := New(cfg2(2.5, 5), opts...)
		eng.Advance(steps[0].In, steps[0].Out)
		return eng
	}
	eng := newEng()
	idx := 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx >= len(steps) {
			b.StopTimer()
			eng = newEng()
			idx = 1
			b.StartTimer()
		}
		st := steps[idx]
		eng.Advance(st.In, st.Out)
		idx++
	}
}

// BenchmarkAdvanceDense is one stride of the end-to-end benchmark's
// dtg_stride5 workload: the DTG generator at ε 0.002, τ 40, window 20 000,
// stride 1000 — 40-neighbour balls, where what a search does per hit (not the
// index) is the stride. BenchmarkAdvance's window 4000 / τ 5 never sees it.
func BenchmarkAdvanceDense(b *testing.B) {
	const win, stride = 20000, 1000
	steps, err := window.Steps(datasets.DTG(win+stride*40, 1).Points, win, stride)
	if err != nil {
		b.Fatal(err)
	}
	cfg := model.Config{Dims: 2, Eps: 0.002, MinPts: 40}
	var eng *Engine
	idx := len(steps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx >= len(steps) {
			b.StopTimer()
			eng = New(cfg)
			eng.Advance(steps[0].In, steps[0].Out)
			idx = 1
			b.StartTimer()
		}
		eng.Advance(steps[idx].In, steps[idx].Out)
		idx++
	}
}

func BenchmarkAdvance(b *testing.B)        { benchAdvance(b) }
func BenchmarkAdvanceNoMSBFS(b *testing.B) { benchAdvance(b, WithMSBFS(false)) }
func BenchmarkAdvanceNoEpoch(b *testing.B) { benchAdvance(b, WithEpochProbing(false)) }
func BenchmarkAdvanceRTree(b *testing.B)   { benchAdvance(b, WithRTreeIndex()) }

// BenchmarkAdvanceWorkers measures the parallel COLLECT across worker counts
// on a large-stride (25%) workload where COLLECT dominates; speedups are
// bounded by GOMAXPROCS.
func BenchmarkAdvanceWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchAdvanceStride(b, 1000, WithWorkers(w))
		})
	}
}

// benchAdvanceStride is benchAdvance with a configurable stride (window 4000).
func benchAdvanceStride(b *testing.B, stride int, opts ...Option) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	const win = 4000
	data := clustered2D(rng, win+stride*16)
	steps, err := window.Steps(data, win, stride)
	if err != nil {
		b.Fatal(err)
	}
	newEng := func() *Engine {
		eng := New(cfg2(2.5, 5), opts...)
		eng.Advance(steps[0].In, steps[0].Out)
		return eng
	}
	eng := newEng()
	idx := 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx >= len(steps) {
			b.StopTimer()
			eng = newEng()
			idx = 1
			b.StartTimer()
		}
		st := steps[idx]
		eng.Advance(st.In, st.Out)
		idx++
	}
}

// bridged2D generates a CLUSTER-heavy stream: dense blobs joined by thin
// bridges whose points churn as the window slides, so strides carry many
// ex-/neo-core components, splits and mergers.
func bridged2D(rng *rand.Rand, n int) []model.Point {
	pts := make([]model.Point, n)
	for i := range pts {
		var x, y float64
		switch rng.Intn(5) {
		case 0, 1: // blobs at (0,0), (20,0), (10,17)
			c := rng.Intn(3)
			cx := []float64{0, 20, 10}[c]
			cy := []float64{0, 0, 17}[c]
			x, y = cx+rng.NormFloat64()*2, cy+rng.NormFloat64()*2
		case 2: // bridge between blob 0 and 1
			x, y = rng.Float64()*20, rng.NormFloat64()*0.5
		case 3: // bridge between blob 0 and 2
			f := rng.Float64()
			x, y = f*10+rng.NormFloat64()*0.5, f*17+rng.NormFloat64()*0.5
		default: // background
			x, y = rng.Float64()*40-10, rng.Float64()*40-10
		}
		pts[i] = model.Point{ID: int64(i), Pos: geom.NewVec(x, y)}
	}
	return pts
}

// BenchmarkClusterWorkers measures the parallel CLUSTER phase across worker
// counts on a bridge-churn workload where ex-/neo-core processing dominates;
// speedups are bounded by GOMAXPROCS.
func BenchmarkClusterWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			const win, stride = 4000, 1000
			data := bridged2D(rng, win+stride*16)
			steps, err := window.Steps(data, win, stride)
			if err != nil {
				b.Fatal(err)
			}
			newEng := func() *Engine {
				eng := New(cfg2(1.2, 4), WithWorkers(w))
				eng.Advance(steps[0].In, steps[0].Out)
				return eng
			}
			eng := newEng()
			idx := 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if idx >= len(steps) {
					b.StopTimer()
					eng = newEng()
					idx = 1
					b.StartTimer()
				}
				st := steps[idx]
				eng.Advance(st.In, st.Out)
				idx++
			}
		})
	}
}

// BenchmarkConnectivitySteady measures a warmed-up connectivity check
// through the pooled scratch path — the allocs/op column is the
// steady-state zero-allocation claim.
func BenchmarkConnectivitySteady(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts []Option
	}{
		{"msbfs", nil},
		{"seq", []Option{WithMSBFS(false)}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 2}
			eng := New(cfg, variant.opts...)
			a := line(0, 0, 500, 0.9)
			c := line(1000, 600, 100, 0.9)
			eng.Advance(append(a, c...), nil)
			eng.ensureScratches(1)
			s := eng.scratches[0]
			bonding := eng.slotsOf(0, 250, 499, 1000)
			res := new(connResult)
			eng.connectivityInto(bonding, s, res) // warm the pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.connectivityInto(bonding, s, res)
			}
		})
	}
}

// BenchmarkConnectivity measures one MS-BFS/sequential connectivity check
// over a chain of cores with starters at both ends (worst case for the
// early-exit: threads must traverse half the chain each to meet).
func BenchmarkConnectivity(b *testing.B) {
	for _, n := range []int{100, 1000} {
		for _, variant := range []struct {
			name string
			opts []Option
		}{
			{"msbfs+epoch", nil},
			{"msbfs", []Option{WithEpochProbing(false)}},
			{"seq", []Option{WithMSBFS(false), WithEpochProbing(false)}},
		} {
			b.Run(fmt.Sprintf("chain=%d/%s", n, variant.name), func(b *testing.B) {
				cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 2}
				eng := New(cfg, variant.opts...)
				pts := line(0, 0, n, 0.9)
				eng.Advance(pts, nil)
				starters := []int64{0, int64(n - 1)}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.connectivity(starters)
				}
			})
		}
	}
}

// ringPoints lays n points on a circle with ~spacing chord length between
// ring neighbors, so with Eps just above spacing every point is adjacent to
// exactly its two ring neighbors — a single cluster shaped like one giant
// cycle.
func ringPoints(idBase int64, n int, spacing float64) []model.Point {
	r := float64(n) * spacing / (2 * math.Pi)
	pts := make([]model.Point, n)
	for i := range pts {
		th := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = model.Point{ID: idBase + int64(i), Pos: geom.NewVec(r*math.Cos(th), r*math.Sin(th))}
	}
	return pts
}

// BenchmarkConnectivityStrategy is the churn-heavy workload the dynamic
// forest exists for: a ring of ~1k cores where each iteration removes a
// small interior block (forcing a connectivity check whose bonding cores are
// only connected the long way around) and re-adds it under fresh ids. The
// MS-BFS strategy re-traverses O(window) cores on every removal stride; the
// maintained forest answers the same query from a handful of root walks plus
// a polylog replacement-edge search per cut.
func BenchmarkConnectivityStrategy(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts []Option
	}{
		{"msbfs", nil},
		{"dynamic", []Option{WithConnectivity(ConnDynamic)}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			const n, blockStart, blockLen = 1024, 100, 8
			cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 2}
			eng := New(cfg, variant.opts...)
			ring := ringPoints(0, n, 0.9)
			eng.Advance(ring, nil)
			cur := make([]model.Point, blockLen)
			copy(cur, ring[blockStart:blockStart+blockLen])
			out := make([]model.Point, blockLen)
			in := make([]model.Point, blockLen)
			nextID := int64(n)
			churn := func() {
				for j := range out {
					out[j] = model.Point{ID: cur[j].ID}
				}
				eng.Advance(nil, out) // shrink: M⁻ connected only the long way
				for j := range in {
					in[j] = model.Point{ID: nextID, Pos: cur[j].Pos}
					cur[j] = in[j]
					nextID++
				}
				eng.Advance(in, nil) // expansion: the block returns, fresh ids
			}
			churn() // warm the pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn()
			}
		})
	}
}

// BenchmarkSnapshot measures full labeling extraction.
func BenchmarkSnapshot(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	eng := New(cfg2(2.5, 5))
	eng.Advance(clustered2D(rng, 10000), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(eng.Snapshot()) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkCheckpoint measures SaveSnapshot+LoadEngine round trips.
func BenchmarkCheckpoint(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	eng := New(cfg2(2.5, 5))
	eng.Advance(clustered2D(rng, 10000), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := eng.SaveSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := LoadEngine(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
