package core

import (
	"math"

	"disc/internal/geom"
)

// epsGrid is the engine's default spatial index: a uniform grid whose cell
// side is derived from the stream's ε, kept in an open-addressing hash table
// keyed by int64 cell coordinates. ε is fixed per stream, so an ε-search is
// a walk over the (generically 3^d) cells the ball's bounding box touches —
// no hierarchy to descend, nothing to rebalance, and nothing that ages: the
// cost of a search depends on the points near the query, not on how many
// strides the index has lived through (DESIGN §11).
//
// Two properties are load-bearing; DESIGN §11 carries the full arguments.
//
// Exact. cellOf is monotone non-decreasing in the coordinate, and a search
// walks every cell between cellOf(c−r) and cellOf(c+r) on each axis, where
// r (reachOf) is no smaller than any per-axis separation the float predicate
// Σdᵢ² ≤ ε² can accept. So every accepted point lies in a walked cell
// whatever the magnitudes involved; the cell-box prune only skips cells it
// can prove — with the rounding slack subtracted — lie wholly outside the
// ball. The distance test itself is geom.Dist2Slab, the R-tree leaf kernel,
// so both indexes accept bit-for-bit the same pairs.
//
// Deterministic. The visit order is axis-0-major over the cell range and
// slab order within a cell, and slab order is a function of the sequence of
// Insert/Delete calls alone. The table's layout (growth, probe order) never
// influences what a search reports, and no Go map is involved.
type epsGrid struct {
	dims int
	side float64 // cell side: reachOf(ε), finite

	// table is the open-addressing table (linear probing, power-of-two
	// size, at most half full). An entry holds a cell's 32-bit hash and its
	// index+1 in cells; ref 0 marks an empty entry. Removal shifts the
	// following run back, so there are no tombstones.
	table []gridEntry
	cells []gridCell // slab of cell records, addressed by entry refs
	free  []uint32   // emptied cell records (slabs kept) awaiting reuse
	live  int        // occupied entries
	size  int        // indexed points
}

type gridEntry struct {
	hash uint32
	ref  uint32
}

// gridCell is one occupied cell in struct-of-arrays form, the same layout as
// an R-tree leaf: the i-th point's arena slot is slots[i] and its coordinates
// are coords[i*dims : (i+1)*dims].
type gridCell struct {
	key    [geom.MaxDims]int64
	slots  []int32
	coords []float64
}

const (
	// cellLimit bounds cell coordinates so that they convert to int64 and
	// step through a search range without overflow. Coordinates whose
	// quotient lies beyond it share the boundary cell, which keeps cellOf
	// monotone; the distance test sorts them out.
	cellLimit = 1 << 62

	// pruneLimit is the largest cell-coordinate magnitude for which the
	// cell-box prune is applied on an axis: below it the rounding error of
	// c/side is under 2^-22 cell sides, well inside pruneSlack.
	pruneLimit = 1 << 31
	pruneSlack = 0x1p-19

	gridMinSlots = 16
)

func newEpsGrid(dims int, eps float64) *epsGrid {
	side := reachOf(eps)
	if math.IsInf(side, 1) {
		side = math.MaxFloat64
	}
	return &epsGrid{dims: dims, side: side, table: make([]gridEntry, gridMinSlots)}
}

// reachOf returns a radius r such that two coordinates further than r apart
// on any one axis cannot satisfy the float predicate Σdᵢ² ≤ eps*eps — and,
// when r is finite, neither can two points further than r apart.
func reachOf(eps float64) float64 {
	e2 := eps * eps
	switch {
	case math.IsInf(e2, 1):
		// ε² overflowed: the predicate accepts every pair.
		return math.Inf(1)
	case e2 < 0x1p-1022:
		// ε² is subnormal or zero, so a pair passes whenever its squared
		// separations underflow beneath it: any |d| up to 2^-511.
		return 0x1p-510
	}
	// Rounding in d = a−b, d² and the sum lets through true separations up
	// to ε(1+2^-50); 2^-20 is generous and costs nothing.
	return eps * (1 + 0x1p-20)
}

// cellOf returns the cell coordinate of x on any axis. Division by a
// positive constant, Floor and the clamp are each monotone, so cellOf is.
func (g *epsGrid) cellOf(x float64) int64 {
	q := math.Floor(x / g.side)
	if q >= cellLimit {
		return cellLimit
	}
	if q <= -cellLimit {
		return -cellLimit
	}
	return int64(q)
}

func (g *epsGrid) keyOf(p geom.Vec) (k [geom.MaxDims]int64) {
	for i := 0; i < g.dims; i++ {
		k[i] = g.cellOf(p[i])
	}
	return k
}

func (g *epsGrid) hashOf(k *[geom.MaxDims]int64) uint32 {
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < g.dims; i++ {
		h = (h ^ uint64(k[i])) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return uint32(h)
}

// findEntry returns the index of the entry holding the cell with key k, or -1.
func (g *epsGrid) findEntry(k *[geom.MaxDims]int64, h uint32) int {
	mask := uint32(len(g.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := g.table[i]
		if s.ref == 0 {
			return -1
		}
		if s.hash == h && g.cells[s.ref-1].key == *k {
			return int(i)
		}
	}
}

// cellFor returns the cell with key k, creating it if absent.
func (g *epsGrid) cellFor(k *[geom.MaxDims]int64) *gridCell {
	h := g.hashOf(k)
	if i := g.findEntry(k, h); i >= 0 {
		return &g.cells[g.table[i].ref-1]
	}
	if 2*(g.live+1) > len(g.table) {
		g.rehash(2 * len(g.table))
	}
	var ref uint32
	if n := len(g.free); n > 0 {
		ref = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		g.cells = append(g.cells, gridCell{})
		ref = uint32(len(g.cells))
	}
	g.place(gridEntry{hash: h, ref: ref})
	g.live++
	c := &g.cells[ref-1]
	c.key = *k
	return c
}

// place stores s in the first empty entry of its probe run.
func (g *epsGrid) place(s gridEntry) {
	mask := uint32(len(g.table) - 1)
	i := s.hash & mask
	for g.table[i].ref != 0 {
		i = (i + 1) & mask
	}
	g.table[i] = s
}

// rehash moves every occupied entry into a table of n entries. Entries carry
// their hash, so no cell record is touched.
func (g *epsGrid) rehash(n int) {
	old := g.table
	g.table = make([]gridEntry, n)
	for _, s := range old {
		if s.ref != 0 {
			g.place(s)
		}
	}
}

// dropEntry empties entry i, whose cell holds no points any more, and queues
// the cell record (slabs included) for reuse. The run of entries after the
// hole is shifted back wherever that keeps each entry reachable from its
// home entry, so the table never carries tombstones.
func (g *epsGrid) dropEntry(i uint32) {
	g.free = append(g.free, g.table[i].ref)
	g.live--
	mask := uint32(len(g.table) - 1)
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := g.table[j]
		if s.ref == 0 {
			break
		}
		// s may move into the hole at i only if its home entry does not lie
		// cyclically in (i, j].
		if home := s.hash & mask; (j-home)&mask >= (j-i)&mask {
			g.table[i] = s
			i = j
		}
	}
	g.table[i] = gridEntry{}
}

func (g *epsGrid) Len() int { return g.size }

func (g *epsGrid) Insert(slot int32, p geom.Vec) {
	k := g.keyOf(p)
	c := g.cellFor(&k)
	c.slots = append(c.slots, slot)
	c.coords = append(c.coords, p[:g.dims]...)
	g.size++
}

// Delete removes the point in the given slot from the cell holding p,
// swapping the cell's last point into its place.
func (g *epsGrid) Delete(slot int32, p geom.Vec) bool {
	k := g.keyOf(p)
	ti := g.findEntry(&k, g.hashOf(&k))
	if ti < 0 {
		return false
	}
	c := &g.cells[g.table[ti].ref-1]
	d := g.dims
	last := len(c.slots) - 1
	for i, cs := range c.slots {
		if cs != slot {
			continue
		}
		c.slots[i] = c.slots[last]
		copy(c.coords[i*d:(i+1)*d], c.coords[last*d:])
		c.slots = c.slots[:last]
		c.coords = c.coords[:last*d]
		g.size--
		if last == 0 {
			g.dropEntry(uint32(ti))
		}
		return true
	}
	return false
}

// BulkInsert is Insert over a batch: a grid has no layout a batch could
// improve, and the table grows by doubling as cells open.
func (g *epsGrid) BulkInsert(slots []int32, pos []geom.Vec) {
	for i := range slots {
		g.Insert(slots[i], pos[i])
	}
}

// BulkLoad replaces the contents with the given points. Cell records and
// their slabs are recycled; the table keeps its size.
func (g *epsGrid) BulkLoad(slots []int32, pos []geom.Vec) {
	clear(g.table)
	g.free = g.free[:0]
	for i := len(g.cells); i > 0; i-- {
		c := &g.cells[i-1]
		c.slots, c.coords = c.slots[:0], c.coords[:0]
		g.free = append(g.free, uint32(i))
	}
	g.live, g.size = 0, 0
	g.BulkInsert(slots, pos)
}

// SearchBallRO calls fn with the slot of every point within eps of c, until
// fn returns false: an odometer over the cells the ball's bounding box
// touches, axis 0 slowest, each cell scanned in slab order. All state lives
// on the stack and nothing in the grid is written, so any number of calls may
// run concurrently while no mutation is in flight. It returns the number of
// non-empty cells the search probed.
func (g *epsGrid) SearchBallRO(c geom.Vec, eps float64, fn func(slot int32) bool) (cells int64) {
	d := g.dims
	eps2 := eps * eps
	r := reachOf(eps)
	// A point within reach is within r/side cell sides of c.
	lim2 := (r / g.side) * (r / g.side)

	var lo, hi, cur, home [geom.MaxDims]int64
	var frac [geom.MaxDims]float64 // position of c within its cell; <0: axis not pruned
	for i := 0; i < d; i++ {
		a, b := c[i]-r, c[i]+r
		if a < -math.MaxFloat64 {
			a = -math.MaxFloat64
		}
		if b > math.MaxFloat64 {
			b = math.MaxFloat64
		}
		lo[i], hi[i] = g.cellOf(a), g.cellOf(b)
		cur[i] = lo[i]
		frac[i] = -1
		if q := c[i] / g.side; q > -pruneLimit && q < pruneLimit {
			f := math.Floor(q)
			home[i], frac[i] = int64(f), q-f
		}
	}
	for {
		// Cell-box prune: gap is a lower bound, in cell sides, on the
		// distance from c to any point of cell cur.
		var gap2 float64
		for i := 0; i < d; i++ {
			if frac[i] < 0 {
				continue
			}
			var gap float64
			switch k := cur[i] - home[i]; {
			case k < 0:
				gap = frac[i] + float64(-k-1) - pruneSlack
			case k > 0:
				gap = 1 - frac[i] + float64(k-1) - pruneSlack
			}
			if gap > 0 {
				gap2 += gap * gap
			}
		}
		if gap2 <= lim2 {
			if ti := g.findEntry(&cur, g.hashOf(&cur)); ti >= 0 {
				cl := &g.cells[g.table[ti].ref-1]
				cells++
				for j, base := 0, 0; j < len(cl.slots); j, base = j+1, base+d {
					if geom.Dist2Slab(cl.coords[base:base+d], c, d) <= eps2 && !fn(cl.slots[j]) {
						return cells
					}
				}
			}
		}
		i := d - 1
		for ; i >= 0; i-- {
			if cur[i] < hi[i] {
				cur[i]++
				break
			}
			cur[i] = lo[i]
		}
		if i < 0 {
			return cells
		}
	}
}
