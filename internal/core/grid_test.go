package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"disc/internal/datasets"
	"disc/internal/geom"
	"disc/internal/window"
)

// bruteBall is the reference the grid is held to: a scan of every point with
// the engine's own float predicate.
func bruteBall(ids []int32, pos []geom.Vec, dims int, c geom.Vec, eps float64) []int32 {
	var out []int32
	for i, p := range pos {
		if geom.Dist2Slab(p[:dims], c, dims) <= eps*eps {
			out = append(out, ids[i])
		}
	}
	slices.Sort(out)
	return out
}

// footprint is the memory the grid retains, from slab capacities: the two
// point slabs; the cell records with their free list and repack's scratch;
// and the hash table.
func (g *epsGrid) footprint() (slab, records, table int) {
	return slabBytes(g.slots) + slabBytes(g.coords),
		slabBytes(g.cells) + slabBytes(g.free) + slabBytes(g.order),
		slabBytes(g.table)
}

// visitOrder returns the ids a search reports, in the order it reports them,
// and the number of cells it probed.
func visitOrder(g *epsGrid, c geom.Vec, eps float64) (ids []int32, cells int64) {
	cells = g.SearchBallRO(c, eps, func(id int32) bool {
		ids = append(ids, id)
		return true
	})
	return ids, cells
}

// checkRanges verifies the slab bookkeeping: every live cell holds at least
// one point, its range lies inside the slabs without overlapping another's,
// and the ranges' points add up to Len.
func (g *epsGrid) checkRanges() error {
	type span struct{ lo, hi uint32 }
	var spans []span
	n := 0
	for _, e := range g.table {
		if e.ref == 0 {
			continue
		}
		c := g.cells[e.ref-1]
		if c.len == 0 || c.len > c.cap || int(c.off+c.cap) > len(g.slots) {
			return fmt.Errorf("cell %v: range off %d len %d cap %d in a slab of %d", c.key[:g.dims], c.off, c.len, c.cap, len(g.slots))
		}
		spans = append(spans, span{c.off, c.off + c.cap})
		n += int(c.len)
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("ranges %v and %v overlap", spans[i-1], spans[i])
		}
	}
	if n != g.size || len(g.coords) != len(g.slots)*g.dims {
		return fmt.Errorf("ranges hold %d points, Len %d; slabs %d slots, %d coordinates", n, g.size, len(g.slots), len(g.coords))
	}
	return nil
}

// fuzzEps are the ε values FuzzGridVsBrute draws from: ordinary ones, one
// that is not a binary fraction, and the regimes where ε² underflows or
// overflows and the float predicate stops meaning "within ε".
var fuzzEps = []float64{1, 0.15, 0.002, 0.1, 3, 1e-160, 5e-324, 1e200, math.MaxFloat64}

// fuzzCoord turns two fuzz bytes into a coordinate chosen to sit where a
// grid can go wrong: exact multiples of ε, one ulp either side of them,
// negatives, cell coordinates around the prune limit (2^31), around the
// float integer limit (2^53) and around the clamp (2^62), and magnitudes up
// to the largest finite float — the ingest validators admit them all.
func fuzzCoord(kind, k byte, eps float64) float64 {
	m := float64(int8(k))
	switch kind % 10 {
	case 0:
		return m * eps
	case 1:
		return math.Nextafter(m*eps, math.Inf(1))
	case 2:
		return math.Nextafter(m*eps, math.Inf(-1))
	case 3:
		return m * eps / 4
	case 4:
		return (0x1p31 + m) * eps
	case 5:
		return -(0x1p31 + m) * eps
	case 6:
		return (0x1p53 + m*2) * eps
	case 7:
		return math.Copysign(0x1p62*(1+m/256), m) * eps
	case 8:
		return math.Copysign(math.MaxFloat64/(1+math.Abs(m)), m)
	default:
		return math.Ldexp(1+m/300, int(k)*8-1000)
	}
}

func finite(x float64) float64 {
	switch {
	case x > math.MaxFloat64:
		return math.MaxFloat64
	case x < -math.MaxFloat64:
		return -math.MaxFloat64
	}
	return x
}

// FuzzGridVsBrute interleaves Insert, Delete, BulkInsert and BulkLoad with
// searches, in 1 to 4 dimensions, and after every step holds the grid to a
// brute-force scan: same visit set, Len and Delete results. Two more grids
// are fed the same history, one through a pre-grown table and one repacked
// after every step; each must report every search in the same order and
// probe the same number of cells — neither the table's layout nor where the
// cells' ranges sit in the slabs may show in the output.
func FuzzGridVsBrute(f *testing.F) {
	f.Add(uint8(2), uint8(0), []byte("\x00\x00\x01\x00\x02\x05\x00\x00\x02\x00\x00\x05\x00\x01\x00\x01"))
	f.Add(uint8(1), uint8(1), []byte("\x00\x04\x01\x00\x04\x02\x05\x04\x01\x00\x05\x7f\x05\x05\x81"))
	f.Add(uint8(3), uint8(5), []byte("\x03\x08\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x05\x00\x00\x00\x00\x04\x05\x09\x09\x09\x09"))
	f.Add(uint8(4), uint8(7), []byte("\x00\x08\x01\x08\xff\x08\x02\x08\xfe\x00\x08\x01\x08\xff\x08\x02\x08\xfd\x05\x08\x01\x08\xff\x08\x02\x08\xfe"))
	f.Add(uint8(2), uint8(8), []byte("\x00\x08\x7f\x08\x81\x00\x00\x00\x00\x00\x05\x08\x81\x08\x7f\x01\x00\x05\x00\x00\x00\x00"))
	f.Add(uint8(2), uint8(2), []byte("\x03\x20\x00\x00\x00\x01\x00\x02\x00\x03\x00\x04\x02\x01\x02\x03\x05\x00\x02\x00\x02\x04\x05\x00\x01\x00\x01\x01\x03\x01\x00"))
	f.Fuzz(func(t *testing.T, dimSel, epsSel uint8, prog []byte) {
		dims := int(dimSel)%geom.MaxDims + 1
		eps := fuzzEps[int(epsSel)%len(fuzzEps)]
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		vec := func() (v geom.Vec) {
			for i := 0; i < dims; i++ {
				v[i] = finite(fuzzCoord(next(), next(), eps))
			}
			return v
		}

		g, grown, packed := newEpsGrid(dims, eps), newEpsGrid(dims, eps), newEpsGrid(dims, eps)
		grown.rehash(1 << 10)
		grids := []*epsGrid{g, grown, packed}
		var ids []int32
		var pos []geom.Vec
		nextID := int32(-3) // slots are opaque to the index, negative ones included
		check := func(c geom.Vec, r float64) {
			t.Helper()
			got, cells := visitOrder(g, c, r)
			for _, o := range grids[1:] {
				if other, oc := visitOrder(o, c, r); !slices.Equal(got, other) || oc != cells {
					t.Fatalf("search depends on table layout or slab placement:\n%v (%d cells)\n%v (%d cells)", got, cells, other, oc)
				}
			}
			slices.Sort(got)
			if want := bruteBall(ids, pos, dims, c, r); !slices.Equal(got, want) {
				t.Fatalf("dims=%d eps=%g search(%v, %g): visited %v, brute force %v", dims, eps, c[:dims], r, got, want)
			}
		}
		for steps := 0; len(prog) > 0 && steps < 400; steps++ {
			switch op := next(); op % 6 {
			case 0: // Insert
				p := vec()
				for _, o := range grids {
					o.Insert(nextID, p)
				}
				ids, pos = append(ids, nextID), append(pos, p)
				nextID++
				check(p, eps)
			case 1: // Delete a resident point
				if len(ids) == 0 {
					continue
				}
				i := int(next()) % len(ids)
				for _, o := range grids {
					if !o.Delete(ids[i], pos[i]) {
						t.Fatalf("Delete(%d, %v) = false for a resident point", ids[i], pos[i][:dims])
					}
				}
				c := pos[i]
				ids, pos = slices.Delete(ids, i, i+1), slices.Delete(pos, i, i+1)
				check(c, eps)
			case 2: // Delete something that is not there
				p := vec()
				if g.Delete(nextID, p) {
					t.Fatalf("Delete of absent id %d succeeded", nextID)
				}
				if len(ids) > 0 {
					// A resident id at a position in some other cell.
					far := pos[0]
					far[0] = finite(far[0] + 8*reachOf(eps))
					if g.keyOf(far) != g.keyOf(pos[0]) && g.Delete(ids[0], far) {
						t.Fatalf("Delete(%d) found the point through the wrong cell", ids[0])
					}
				}
			case 3: // BulkInsert
				n := int(next()) % 40
				bi, bp := make([]int32, n), make([]geom.Vec, n)
				for i := range bi {
					bi[i], bp[i] = nextID, vec()
					nextID++
				}
				for _, o := range grids {
					o.BulkInsert(bi, bp)
				}
				ids, pos = append(ids, bi...), append(pos, bp...)
			case 4: // BulkLoad a subset of the residents
				keep := int(next())%4 + 1
				var li []int32
				var lp []geom.Vec
				for i := range ids {
					if i%keep == 0 {
						li, lp = append(li, ids[i]), append(lp, pos[i])
					}
				}
				for _, o := range grids {
					o.BulkLoad(li, lp)
				}
				ids, pos = li, lp
			case 5: // Search somewhere, at ε and at another radius
				c := vec()
				check(c, eps)
				check(c, eps*float64(next()%5+1)/2)
			}
			packed.repack()
			for _, o := range grids {
				if o.Len() != len(ids) {
					t.Fatalf("Len = %d, want %d", o.Len(), len(ids))
				}
				if err := o.checkRanges(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := range pos {
			check(pos[i], eps)
		}
	})
}

// TestGridBoundaryPairs pins the cases the exactness argument is about, by
// name: points on exact multiples of ε, pairs exactly ε apart (which must be
// found), pairs one ulp further (which must not), negative coordinates, cell
// coordinates beyond int32 (internal/grid's KeyOf would wrap them) and beyond
// int64, and the ε regimes where ε² is not a usable number.
func TestGridBoundaryPairs(t *testing.T) {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	for _, tc := range []struct {
		name string
		eps  float64
		a, b float64 // coordinates on axis 0; the other axes are equal
		want bool
	}{
		{"on multiples, ε apart", 0.15, 3 * 0.15, 4 * 0.15, true},
		{"dyadic ε: exactly ε apart across a cell edge", 0.25, 1.75, 2.0, true},
		{"dyadic ε: one ulp more than ε", 0.25, 1.75, up(2.0), false},
		{"two cells apart by index, ε apart by distance", 1, up(-1), up(-1) + 1, true},
		{"negative side of zero", 1, -1, 0, true},
		{"straddling zero", 1, -0.5, 0.5, true},
		{"true gap ε+2^-53 rounds to ε, so the predicate accepts it", 1, -0.5, up(0.5), true},
		{"straddling zero, too far", 1, -0.5, up(up(0.5)), false},
		{"cell coordinate 2^40", 0.5, 0x1p39, 0x1p39 + 0.5, true},
		{"cell coordinate 2^40, too far", 0.5, 0x1p39, up(0x1p39 + 0.5), false},
		{"cell coordinate beyond the prune limit, corner", 1, 0x1p33 + 0.5, 0x1p33 + 1.5, true},
		{"cell coordinate beyond float integers", 1, 0x1p60, 0x1p60, true},
		{"neighbouring floats at 2^60", 1, 0x1p60, up(0x1p60), false},
		{"largest finite coordinate", 1, math.MaxFloat64, math.MaxFloat64, true},
		{"opposite ends of the float range", 1, -math.MaxFloat64, math.MaxFloat64, false},
		{"ε² underflows: predicate accepts any squared gap that underflows too", 1e-200, 0, 1e-170, true},
		{"ε² underflows, gap does not", 1e-200, 0, 1e-150, false},
		{"ε² overflows: predicate accepts everything", 1e200, -math.MaxFloat64, math.MaxFloat64, true},
	} {
		for dims := 1; dims <= geom.MaxDims; dims++ {
			g := newEpsGrid(dims, tc.eps)
			var pa, pb geom.Vec
			pa[0], pb[0] = tc.a, tc.b
			for i := 1; i < dims; i++ {
				pa[i], pb[i] = -7*tc.eps, -7*tc.eps
			}
			g.Insert(1, pa)
			g.Insert(2, pb)
			if brute := len(bruteBall([]int32{2}, []geom.Vec{pb}, dims, pa, tc.eps)) == 1; brute != tc.want {
				t.Fatalf("%s: test case is wrong: the float predicate says %v", tc.name, brute)
			}
			for _, q := range []struct {
				from  geom.Vec
				other int32
			}{{pa, 2}, {pb, 1}} {
				ids, _ := visitOrder(g, q.from, tc.eps)
				if got := slices.Contains(ids, q.other); got != tc.want {
					t.Errorf("%s (dims %d): search from %v finds point %d = %v, want %v",
						tc.name, dims, q.from[:dims], q.other, got, tc.want)
				}
			}
		}
	}
}

// TestGridTableChurn drives the table through growth, wrap-around probe runs
// and thousands of backward-shift removals, checking every resident point
// stays findable and every removed one is gone.
func TestGridTableChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := newEpsGrid(2, 1)
	type pt struct {
		id int32
		p  geom.Vec
	}
	var live []pt
	for round := 0; round < 20000; round++ {
		if len(live) < 300 || rng.Intn(2) == 0 {
			// One point per cell mostly, so cells open and close all the time.
			p := pt{int32(round), geom.NewVec(float64(rng.Intn(200))+0.5, float64(rng.Intn(200))+0.5)}
			g.Insert(p.id, p.p)
			live = append(live, p)
		} else {
			i := rng.Intn(len(live))
			if !g.Delete(live[i].id, live[i].p) {
				t.Fatalf("round %d: resident point %d not found", round, live[i].id)
			}
			if g.Delete(live[i].id, live[i].p) {
				t.Fatalf("round %d: point %d deleted twice", round, live[i].id)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if round%500 == 0 {
			for _, p := range live {
				if ids, _ := visitOrder(g, p.p, 0.25); !slices.Contains(ids, p.id) {
					t.Fatalf("round %d: point %d lost", round, p.id)
				}
			}
		}
	}
	if g.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(live))
	}
	occupied := 0
	for _, s := range g.table {
		if s.ref != 0 {
			occupied++
		}
	}
	if occupied != g.live || g.live+len(g.free) != len(g.cells) {
		t.Fatalf("table accounting: %d occupied entries, live %d, %d free of %d records",
			occupied, g.live, len(g.free), len(g.cells))
	}
	if err := g.checkRanges(); err != nil {
		t.Fatal(err)
	}
}

// TestGridSearchZeroAlloc: an ε-search keeps all its state on the stack.
func TestGridSearchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := newEpsGrid(3, 1.5)
	for i := 0; i < 5000; i++ {
		g.Insert(int32(i), geom.NewVec(rng.Float64()*30, rng.Float64()*30, rng.Float64()*30))
	}
	n := 0
	visit := func(int32) bool { n++; return true }
	c := geom.NewVec(15, 15, 15)
	if a := testing.AllocsPerRun(100, func() { g.SearchBallRO(c, 1.5, visit) }); a != 0 {
		t.Fatalf("SearchBallRO allocates %.0f times per search", a)
	}
	if n == 0 {
		t.Fatal("search visited nothing")
	}
}

// TestGridMemoryBoundedByWindow: what the grid retains follows the window,
// not the stream's age. Bytes are slab capacities (footprint), so the figures
// are exact. A bare grid plays each stream's strides: the arrivals, then the
// departures, which is the engine's order for departing cores and the most
// room a stride can ask for. When cells kept their slabs at peak capacity,
// the DTG stream read 76 B of point slabs per resident point at stride 100
// and 176 B at stride 400, against 20 B used.
func TestGridMemoryBoundedByWindow(t *testing.T) {
	play := func(t *testing.T, g *epsGrid, steps []window.Step, sample func(stride int)) {
		t.Helper()
		for i, st := range steps {
			for _, p := range st.In {
				g.Insert(int32(p.ID), p.Pos)
			}
			for _, p := range st.Out {
				if !g.Delete(int32(p.ID), p.Pos) {
					t.Fatalf("stride %d: point %d not found", i, p.ID)
				}
			}
			sample(i)
		}
	}
	// perPoint logs and returns the grid's bytes per indexed point: its
	// point slabs, and everything.
	perPoint := func(t *testing.T, g *epsGrid, stride int) (slab, total float64) {
		s, r, tb := g.footprint()
		n := float64(g.Len())
		t.Logf("stride %4d: %5.1f B per point: point slabs %.1f, cell records %.1f, table %.1f",
			stride, float64(s+r+tb)/n, float64(s)/n, float64(r)/n, float64(tb)/n)
		return float64(s) / n, float64(s+r+tb) / n
	}

	t.Run("dtg", func(t *testing.T) {
		const win, stride, strides = 20000, 1000, 400
		steps, err := window.Steps(datasets.DTG(win+stride*strides, 1).Points, win, stride)
		if err != nil {
			t.Fatal(err)
		}
		g := newEpsGrid(2, 0.002)
		used := float64(4 + 8*g.dims) // one slot and one coordinate row
		var at100 float64
		play(t, g, steps, func(i int) {
			if i%50 != 0 && i != 10 {
				return
			}
			slab, total := perPoint(t, g, i)
			if slab > 2.5*used {
				t.Errorf("stride %d: point slabs hold %.1f B per point, %.2fx the %.0f B used", i, slab, slab/used, used)
			}
			switch i {
			case 100:
				at100 = total
			case strides:
				if total > 1.25*at100 {
					t.Errorf("grid grew with stream age: %.1f B per point at stride %d, %.1f at stride 100", total, i, at100)
				}
			}
		})
	})

	t.Run("hires", func(t *testing.T) {
		const strides = 2400
		_, steps := hiresStream(t, strides)
		g := newEpsGrid(2, 0.15)
		play(t, g, steps, func(i int) {
			if i != strides {
				return
			}
			if _, total := perPoint(t, g, i); total > 114 {
				t.Errorf("stride %d: grid holds %.1f B per point, want at most 114", i, total)
			}
		})
	})
}
