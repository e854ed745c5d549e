package core

import (
	"cmp"
	"math"
	"slices"

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
// Insert/Delete calls alone. The table's layout (growth, probe order) and
// where in the slabs a cell's range sits (moves, repacks) never influence
// what a search reports, and no Go map is involved.
//
// Bounded by the window. Every cell's points live in one range of two
// grid-wide slabs. A cell that fills moves its range to the slabs' end with
// room to double, leaving a hole; once holes and unused room exceed the
// indexed points, one pass repacks every range. So the slabs hold about
// twice the indexed points at most, however old the stream.
type epsGrid struct {
	dims int
	side float64 // cell side: reachOf(ε), finite

	// table is the open-addressing table (linear probing, power-of-two
	// size, at most half full). An entry holds a cell's 32-bit hash and its
	// index+1 in cells; ref 0 marks an empty entry. Removal shifts the
	// following run back, so there are no tombstones.
	table []gridEntry
	cells []gridCell // slab of cell records, addressed by entry refs
	free  []uint32   // emptied cell records awaiting reuse
	live  int        // occupied entries
	size  int        // indexed points

	// slots and coords hold every cell's points in struct-of-arrays form,
	// the same layout as an R-tree leaf: the point at slab position i has
	// arena slot slots[i] and coordinates coords[i*dims : (i+1)*dims].
	// Positions below len(slots) that no cell's range covers are holes.
	// Both are only ever allocated by resize, so cap(coords) is always
	// dims*cap(slots).
	slots  []int32
	coords []float64
	order  []uint32 // repack's scratch: live cell refs in slab order
}

type gridEntry struct {
	hash uint32
	ref  uint32
}

// gridCell is one occupied cell: its points are slab positions
// [off, off+len), and the range reaches on to off+cap.
type gridCell struct {
	key           [geom.MaxDims]int64
	off, len, cap uint32
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

// cellFor returns the ref of the cell with key k, creating it if absent.
func (g *epsGrid) cellFor(k *[geom.MaxDims]int64) uint32 {
	h := g.hashOf(k)
	if i := g.findEntry(k, h); i >= 0 {
		return g.table[i].ref
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
	g.cells[ref-1] = gridCell{key: *k}
	return ref
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
// the cell record for reuse; its range becomes a hole. The run of entries
// after the emptied entry is shifted back wherever that keeps each entry
// reachable from its home entry, so the table never carries tombstones.
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
	c := &g.cells[g.cellFor(&k)-1]
	if c.len == c.cap {
		g.move(c)
	}
	i := int(c.off + c.len)
	g.slots[i] = slot
	copy(g.coords[i*g.dims:], p[:g.dims])
	c.len++
	g.size++
}

// move gives the full cell c a range at the slabs' end with room for twice
// its points, copying them in order; the range it leaves is a hole. First,
// if holes and unused room exceed the indexed points, it repacks.
func (g *epsGrid) move(c *gridCell) {
	if len(g.slots)-g.size > g.size {
		g.repack()
	}
	d, end := g.dims, len(g.slots)
	room := max(2*int(c.len), 1)
	if end+room > cap(g.slots) {
		// The repack rule keeps the slabs' end within twice the indexed
		// points plus one move's room: grow to that, and by at least an
		// eighth, so that a fill grows the slabs geometrically.
		n := max(2*g.size+room, cap(g.slots)+cap(g.slots)/8)
		g.slots, g.coords = resize(g.slots, n), resize(g.coords, n*d)
	}
	g.slots, g.coords = g.slots[:end+room], g.coords[:(end+room)*d]
	copy(g.slots[end:], g.slots[c.off:c.off+c.len])
	copy(g.coords[end*d:], g.coords[int(c.off)*d:int(c.off+c.len)*d])
	c.off, c.cap = uint32(end), uint32(room)
}

// resize returns s's contents in a new array of capacity n.
func resize[T any](s []T, n int) []T {
	t := make([]T, len(s), n)
	copy(t, s)
	return t
}

// repack slides every cell's range down over the holes before it, in slab
// order, and trims its unused room to at most a quarter of its points. A
// range never grows and only ever moves towards the slabs' start, so one
// in-place pass suffices, and a cell's points keep their order. Afterwards
// holes and room come to at most a quarter of the indexed points, so at
// least three quarters' worth of deletes and moves, each of which paid for
// the waste it made, come before the next repack: amortised O(1) per
// operation.
func (g *epsGrid) repack() {
	g.order = g.order[:0]
	for _, e := range g.table {
		if e.ref != 0 {
			g.order = append(g.order, e.ref)
		}
	}
	slices.SortFunc(g.order, func(a, b uint32) int { return cmp.Compare(g.cells[a-1].off, g.cells[b-1].off) })
	d, end := g.dims, uint32(0)
	for _, ref := range g.order {
		c := &g.cells[ref-1]
		copy(g.slots[end:], g.slots[c.off:c.off+c.len])
		copy(g.coords[int(end)*d:], g.coords[int(c.off)*d:int(c.off+c.len)*d])
		c.off, c.cap = end, min(c.cap, c.len+c.len/4)
		end += c.cap
	}
	g.slots, g.coords = g.slots[:end], g.coords[:int(end)*d]
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
	last := int(c.off + c.len - 1)
	for i := int(c.off); i <= last; i++ {
		if g.slots[i] != slot {
			continue
		}
		g.slots[i] = g.slots[last]
		copy(g.coords[i*d:(i+1)*d], g.coords[last*d:])
		c.len--
		g.size--
		if c.len == 0 {
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

// BulkLoad replaces the contents with the given points in three passes: open
// the cells and count their points, give each cell a range of exactly that
// size, and copy the points into the ranges in input order. A cell's points
// are then in input order, as an Insert loop would leave them. Cell records
// and slabs are reused; the table keeps its size.
func (g *epsGrid) BulkLoad(slots []int32, pos []geom.Vec) {
	clear(g.table)
	g.cells, g.free = g.cells[:0], g.free[:0]
	g.live = 0
	refs := make([]uint32, len(slots))
	for i := range slots {
		k := g.keyOf(pos[i])
		refs[i] = g.cellFor(&k)
		g.cells[refs[i]-1].len++
	}
	off := uint32(0)
	for i := range g.cells {
		c := &g.cells[i]
		c.off, c.cap, c.len = off, c.len, 0
		off += c.cap
	}
	d, n := g.dims, len(slots)
	if n > cap(g.slots) {
		g.slots, g.coords = resize(g.slots[:0], n), resize(g.coords[:0], n*d)
	}
	g.slots, g.coords = g.slots[:n], g.coords[:n*d]
	for i, r := range refs {
		c := &g.cells[r-1]
		j := int(c.off + c.len)
		g.slots[j] = slots[i]
		copy(g.coords[j*d:], pos[i][:d])
		c.len++
	}
	g.size = n
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
				gap2 += float64(gap * gap) // rounded: no fused multiply-add
			}
		}
		if gap2 <= lim2 {
			if ti := g.findEntry(&cur, g.hashOf(&cur)); ti >= 0 {
				cl := &g.cells[g.table[ti].ref-1]
				cells++
				for j := int(cl.off); j < int(cl.off+cl.len); j++ {
					if geom.Dist2Slab(g.coords[j*d:(j+1)*d], c, d) <= eps2 && !fn(g.slots[j]) {
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
