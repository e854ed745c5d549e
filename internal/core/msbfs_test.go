package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"disc/internal/geom"
	"disc/internal/model"
)

// buildEngine loads a static point set and returns the engine (bootstrap via
// one Advance).
func buildEngine(t *testing.T, cfg model.Config, pts []model.Point, opts ...Option) *Engine {
	t.Helper()
	eng := New(cfg, opts...)
	eng.Advance(pts, nil)
	return eng
}

// line builds n core points spaced just under ε apart along the x axis,
// starting at x0. With MinPts <= 3 every interior point is a core.
func line(idBase int64, x0 float64, n int, spacing float64) []model.Point {
	pts := make([]model.Point, n)
	for i := range pts {
		pts[i] = model.Point{ID: idBase + int64(i), Pos: geom.NewVec(x0+float64(i)*spacing, 0)}
	}
	return pts
}

// slotsOf resolves point ids to their arena slots, the currency
// connectivityInto deals in.
func (e *Engine) slotsOf(ids ...int64) []int32 {
	slots := make([]int32, len(ids))
	for i, id := range ids {
		slots[i] = e.slotOf[id]
	}
	return slots
}

// connectivity runs one sequential check between strides, the way the
// CLUSTER pipeline runs them in its fan-out (connectivityInto on a worker
// scratch), and returns materialized components, as point ids. Not safe for
// concurrent use: the scratch is the engine's first worker slot.
func (e *Engine) connectivity(bonding []int64) (closed [][]int64, ncc int) {
	if len(bonding) == 0 {
		return nil, 0
	}
	e.ensureScratches(1)
	var res connResult
	e.connectivityInto(e.slotsOf(bonding...), e.scratches[0], &res)
	for i := 0; i < res.components(); i++ {
		var comp []int64
		for _, s := range res.component(i) {
			comp = append(comp, e.ids[s])
		}
		closed = append(closed, comp)
	}
	return closed, res.ncc
}

// connectivityIDs collects the core ids of a component list, sorted.
func connectivityIDs(comps [][]int64) [][]int64 {
	out := make([][]int64, len(comps))
	for i, c := range comps {
		cc := append([]int64(nil), c...)
		sort.Slice(cc, func(a, b int) bool { return cc[a] < cc[b] })
		out[i] = cc
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

func TestConnectivityConnectedLine(t *testing.T) {
	for _, variant := range []struct {
		name string
		opts []Option
	}{
		{"msbfs+epoch", nil},
		{"msbfs", []Option{WithEpochProbing(false)}},
		{"seq+epoch", []Option{WithMSBFS(false)}},
		{"seq", []Option{WithMSBFS(false), WithEpochProbing(false)}},
	} {
		t.Run(variant.name, func(t *testing.T) {
			cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 2}
			pts := line(0, 0, 20, 0.9)
			eng := buildEngine(t, cfg, pts, variant.opts...)
			// Starters: the two endpoints — connected through the line.
			closed, ncc := eng.connectivity([]int64{0, 19})
			if ncc != 1 {
				t.Fatalf("ncc = %d, want 1", ncc)
			}
			// With MS-BFS a connected set exits early with nothing closed;
			// sequential traverses and reports the single component. Either
			// way the caller relabels nothing when ncc == 1.
			if eng.useMSBFS && len(closed) != 0 {
				t.Fatalf("connected set reported %d closed components", len(closed))
			}
			if !eng.useMSBFS && len(closed) != 1 {
				t.Fatalf("sequential reported %d components, want 1", len(closed))
			}
		})
	}
}

func TestConnectivityTwoComponents(t *testing.T) {
	for _, variant := range []struct {
		name string
		opts []Option
	}{
		{"msbfs+epoch", nil},
		{"msbfs", []Option{WithEpochProbing(false)}},
		{"seq+epoch", []Option{WithMSBFS(false)}},
		{"seq", []Option{WithMSBFS(false), WithEpochProbing(false)}},
	} {
		t.Run(variant.name, func(t *testing.T) {
			cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 2}
			a := line(0, 0, 6, 0.9)    // ids 0..5
			b := line(100, 50, 6, 0.9) // ids 100..105, far away
			eng := buildEngine(t, cfg, append(a, b...), variant.opts...)
			closed, ncc := eng.connectivity([]int64{0, 100})
			if ncc != 2 {
				t.Fatalf("ncc = %d, want 2", ncc)
			}
			if len(closed) != 2 {
				t.Fatalf("closed components = %d, want 2 (every component relabels on split)", len(closed))
			}
			// Both components must be complete lines of 6 cores each.
			comps := connectivityIDs(closed)
			if len(comps[0]) != 6 || len(comps[1]) != 6 {
				t.Fatalf("component sizes %d/%d, want 6/6", len(comps[0]), len(comps[1]))
			}
			if comps[0][0] != 0 || comps[0][5] != 5 || comps[1][0] != 100 || comps[1][5] != 105 {
				t.Fatalf("components mix lines: %v", comps)
			}
		})
	}
}

func TestConnectivityManyStartersOneComponent(t *testing.T) {
	cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 2}
	pts := line(0, 0, 50, 0.5)
	eng := buildEngine(t, cfg, pts)
	// Every 5th core is a starter: they must all merge into one thread.
	var starters []int64
	for i := int64(0); i < 50; i += 5 {
		starters = append(starters, i)
	}
	_, ncc := eng.connectivity(starters)
	if ncc != 1 {
		t.Fatalf("ncc = %d, want 1", ncc)
	}
}

// TestConnectivityRandomGraphsAllVariants cross-checks all four
// implementation variants against a brute-force component count on random
// geometric graphs.
func TestConnectivityRandomGraphsAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 25; trial++ {
		n := 30 + rng.Intn(120)
		pts := make([]model.Point, n)
		for i := range pts {
			pts[i] = model.Point{ID: int64(i), Pos: geom.NewVec(rng.Float64()*20, rng.Float64()*20)}
		}
		cfg := model.Config{Dims: 2, Eps: 1.2, MinPts: 1} // every point is a core
		// Brute-force components over the ε-graph.
		comp := make([]int, n)
		for i := range comp {
			comp[i] = -1
		}
		nBrute := 0
		for i := 0; i < n; i++ {
			if comp[i] != -1 {
				continue
			}
			stack := []int{i}
			comp[i] = nBrute
			for len(stack) > 0 {
				c := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for j := 0; j < n; j++ {
					if comp[j] == -1 && geom.WithinEps(pts[c].Pos, pts[j].Pos, 2, cfg.Eps) {
						comp[j] = nBrute
						stack = append(stack, j)
					}
				}
			}
			nBrute++
		}
		// Starters: one random core from every brute component plus extras.
		var starters []int64
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			if !seen[comp[i]] {
				seen[comp[i]] = true
				starters = append(starters, int64(i))
			}
		}
		for k := 0; k < 5 && k < n; k++ {
			c := int64(rng.Intn(n))
			dup := false
			for _, s := range starters {
				if s == c {
					dup = true
				}
			}
			if !dup {
				starters = append(starters, c)
			}
		}
		for _, variant := range []struct {
			name string
			opts []Option
		}{
			{"msbfs+epoch", nil},
			{"msbfs", []Option{WithEpochProbing(false)}},
			{"seq+epoch", []Option{WithMSBFS(false)}},
			{"seq", []Option{WithMSBFS(false), WithEpochProbing(false)}},
		} {
			eng := buildEngine(t, cfg, pts, variant.opts...)
			_, ncc := eng.connectivity(starters)
			if ncc != nBrute {
				t.Fatalf("trial %d %s: ncc=%d, brute=%d (starters=%v)",
					trial, variant.name, ncc, nBrute, starters)
			}
		}
	}
}

// TestExpandIsSideEffectFree: a connectivity expansion must leave engine
// state untouched — hints, affected set, and model.Stats included — because
// the dyncon forest strategy answers the identical query with no traversal
// at all (see the msbfs.go header contract). Its traversal work lands in the
// per-stride telemetry counters instead.
func TestExpandIsSideEffectFree(t *testing.T) {
	cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 3}
	pts := []model.Point{
		{ID: 1, Pos: geom.NewVec(0, 0)},
		{ID: 2, Pos: geom.NewVec(0.5, 0)},
		{ID: 3, Pos: geom.NewVec(1.0, 0)},
		{ID: 4, Pos: geom.NewVec(1.8, 0)}, // border: only neighbor 3
	}
	eng := buildEngine(t, cfg, pts)
	st := &eng.hot[eng.slotOf[4]]
	st.hint = noSlot // a traversal touching 4 must NOT repair this
	statsBefore := eng.Stats()
	eng.affected = eng.affected[:0]
	eng.ensureScratches(1)
	s := eng.scratches[0]
	res := new(connResult)
	res.reset()
	s.begin(eng.useEpoch)
	eng.expand(eng.slotOf[3], s, res)
	eng.applyConnResult(res)
	if st.hint != noSlot {
		t.Fatalf("expansion wrote a border hint (slot %d); traversal must be side-effect-free", st.hint)
	}
	if len(eng.affected) != 0 {
		t.Fatalf("expansion marked %d points affected", len(eng.affected))
	}
	if got := eng.Stats(); got != statsBefore {
		t.Fatalf("expansion changed model.Stats:\nbefore %+v\nafter  %+v", statsBefore, got)
	}
	if res.searches != 1 || res.nodes == 0 {
		t.Fatalf("traversal work not recorded in the result: searches=%d nodes=%d", res.searches, res.nodes)
	}
	if eng.strideConnSearches != 1 || eng.strideConnNodes != res.nodes {
		t.Fatalf("applyConnResult must fold work into telemetry: searches=%d nodes=%d",
			eng.strideConnSearches, eng.strideConnNodes)
	}
}

// TestFinalizeHealsInvalidHint: the border-hint repair that used to ride on
// connectivity traversals is owned by finalize — an invalidated hint is
// re-acquired there via a targeted range search.
func TestFinalizeHealsInvalidHint(t *testing.T) {
	cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 3}
	pts := []model.Point{
		{ID: 1, Pos: geom.NewVec(0, 0)},
		{ID: 2, Pos: geom.NewVec(0.5, 0)},
		{ID: 3, Pos: geom.NewVec(1.0, 0)},
		{ID: 4, Pos: geom.NewVec(1.8, 0)}, // border: only neighbor 3
	}
	eng := buildEngine(t, cfg, pts)
	s4 := eng.slotOf[4]
	st := &eng.hot[s4]
	st.hint = noSlot // sabotage
	eng.affected = eng.affected[:0]
	eng.markAffected(s4)
	eng.finalize()
	if st.hint != eng.slotOf[3] {
		t.Fatalf("finalize left hint = slot %d, want point 3's slot %d", st.hint, eng.slotOf[3])
	}
	if st.label != model.Border {
		t.Fatalf("finalize left label = %v, want Border", st.label)
	}
}

func TestConnectivityEmptyAndSingleton(t *testing.T) {
	cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 1}
	eng := buildEngine(t, cfg, line(0, 0, 3, 0.5))
	if closed, ncc := eng.connectivity(nil); ncc != 0 || closed != nil {
		t.Fatal("empty bonding set must report zero components")
	}
	if _, ncc := eng.connectivity([]int64{1}); ncc != 1 {
		t.Fatal("singleton bonding set must report one component")
	}
}

func ExampleEventType_String() {
	fmt.Println(Split, Merger, Emergence)
	// Output: split merger emergence
}
