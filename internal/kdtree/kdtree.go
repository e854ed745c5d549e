// Package kdtree implements a bucket k-d tree over low-dimensional points:
// internal nodes split space on one axis at a median, leaves hold small
// point buckets — the textbook alternative to an R-tree or a hash grid for
// low-dimensional range search. No engine runs on it: it is kept as a
// standalone index the end-to-end benchmark replays each stride's inserts,
// searches and deletes against (kdtree.search_ball_us), beside internal/rtree
// and internal/grid.
//
// Deletions remove points from leaf buckets in place; the structure above
// is untouched, so heavy churn skews the tree relative to the live data.
// The tree therefore tracks a modification counter and rebuilds itself —
// a balanced bulk construction over the live points — once modifications
// since the last build exceed the current size. This amortized O(n log n)
// maintenance is the standard remedy for dynamic k-d trees.
package kdtree

import (
	"fmt"
	"sort"

	"disc/internal/geom"
)

const bucketSize = 32

type item struct {
	id  int64
	pos geom.Vec
}

type node struct {
	// Leaf fields.
	items []item
	// Internal fields.
	axis        int
	split       float64
	left, right *node
}

func (n *node) leaf() bool { return n.left == nil && n.right == nil }

// T is a bucket k-d tree. The zero value is unusable; construct with New.
// Not safe for concurrent use.
type T struct {
	dims int
	root *node
	size int
	mods int // inserts+deletes since the last rebuild
}

// New returns an empty tree for the given dimensionality.
func New(dims int) *T {
	if dims < 1 || dims > geom.MaxDims {
		panic(fmt.Sprintf("kdtree: invalid dims %d", dims))
	}
	return &T{dims: dims, root: &node{}}
}

// Insert adds a point; duplicates are allowed.
func (t *T) Insert(id int64, p geom.Vec) {
	t.insert(t.root, item{id, p}, 0)
	t.size++
	t.maybeRebuild()
}

func (t *T) insert(n *node, it item, depth int) {
	for !n.leaf() {
		if it.pos[n.axis] < n.split {
			n = n.left
		} else {
			n = n.right
		}
		depth++
	}
	n.items = append(n.items, it)
	if len(n.items) > bucketSize {
		t.splitLeaf(n, depth)
	}
}

// splitLeaf turns an overfull leaf into an internal node with two leaves,
// splitting at the median of the widest axis.
func (t *T) splitLeaf(n *node, depth int) {
	axis := t.widestAxis(n.items)
	sort.Slice(n.items, func(i, j int) bool { return n.items[i].pos[axis] < n.items[j].pos[axis] })
	mid := len(n.items) / 2
	split := n.items[mid].pos[axis]
	// All coordinates equal on this axis: no useful split; allow the
	// oversized bucket (duplicate-heavy data) rather than recursing forever.
	if n.items[0].pos[axis] == n.items[len(n.items)-1].pos[axis] {
		return
	}
	// Ensure the left side is strictly below the split value.
	for mid > 0 && n.items[mid-1].pos[axis] == split {
		mid--
	}
	if mid == 0 {
		// Degenerate distribution; move the boundary up instead.
		for mid < len(n.items) && n.items[mid].pos[axis] == split {
			mid++
		}
		if mid == len(n.items) {
			return
		}
		split = n.items[mid].pos[axis]
	}
	left := &node{items: append([]item(nil), n.items[:mid]...)}
	right := &node{items: append([]item(nil), n.items[mid:]...)}
	n.items = nil
	n.axis = axis
	n.split = split
	n.left = left
	n.right = right
}

func (t *T) widestAxis(items []item) int {
	var lo, hi geom.Vec
	lo, hi = items[0].pos, items[0].pos
	for _, it := range items[1:] {
		for d := 0; d < t.dims; d++ {
			if it.pos[d] < lo[d] {
				lo[d] = it.pos[d]
			}
			if it.pos[d] > hi[d] {
				hi[d] = it.pos[d]
			}
		}
	}
	axis := 0
	best := hi[0] - lo[0]
	for d := 1; d < t.dims; d++ {
		if w := hi[d] - lo[d]; w > best {
			axis, best = d, w
		}
	}
	return axis
}

// Delete removes one point with the given id at p, reporting success.
func (t *T) Delete(id int64, p geom.Vec) bool {
	n := t.root
	for !n.leaf() {
		if p[n.axis] < n.split {
			n = n.left
		} else {
			n = n.right
		}
	}
	for i := range n.items {
		if n.items[i].id == id && n.items[i].pos == p {
			n.items[i] = n.items[len(n.items)-1]
			n.items = n.items[:len(n.items)-1]
			t.size--
			t.maybeRebuild()
			return true
		}
	}
	return false
}

// maybeRebuild rebalances once churn since the last build exceeds the live
// size (amortized O(log n) structure quality).
func (t *T) maybeRebuild() {
	t.mods++
	if t.mods < 64 || t.mods < t.size {
		return
	}
	items := make([]item, 0, t.size)
	collect(t.root, &items)
	t.root = t.build(items)
	t.mods = 0
}

func collect(n *node, out *[]item) {
	if n.leaf() {
		*out = append(*out, n.items...)
		return
	}
	collect(n.left, out)
	collect(n.right, out)
}

// build constructs a balanced subtree over items (which it may reorder).
func (t *T) build(items []item) *node {
	if len(items) <= bucketSize {
		return &node{items: items}
	}
	axis := t.widestAxis(items)
	sort.Slice(items, func(i, j int) bool { return items[i].pos[axis] < items[j].pos[axis] })
	mid := len(items) / 2
	split := items[mid].pos[axis]
	if items[0].pos[axis] == items[len(items)-1].pos[axis] {
		return &node{items: items} // all equal on the widest axis: one bucket
	}
	for mid > 0 && items[mid-1].pos[axis] == split {
		mid--
	}
	if mid == 0 {
		for mid < len(items) && items[mid].pos[axis] == split {
			mid++
		}
		if mid == len(items) {
			return &node{items: items}
		}
		split = items[mid].pos[axis]
	}
	return &node{
		axis:  axis,
		split: split,
		left:  t.build(items[:mid:mid]),
		right: t.build(items[mid:]),
	}
}

// SearchBall visits every point within eps of c; fn returns false to stop.
// It reports whether the traversal ran to completion.
func (t *T) SearchBall(c geom.Vec, eps float64, fn func(id int64, p geom.Vec) bool) bool {
	return t.search(t.root, c, eps, fn)
}

func (t *T) search(n *node, c geom.Vec, eps float64, fn func(int64, geom.Vec) bool) bool {
	if n.leaf() {
		for i := range n.items {
			if geom.WithinEps(n.items[i].pos, c, t.dims, eps) {
				if !fn(n.items[i].id, n.items[i].pos) {
					return false
				}
			}
		}
		return true
	}
	// Visit the side containing c first; the far side only if the slab
	// distance allows.
	d := c[n.axis] - n.split
	near, far := n.left, n.right
	if d >= 0 {
		near, far = n.right, n.left
	}
	if !t.search(near, c, eps, fn) {
		return false
	}
	if d*d <= eps*eps {
		return t.search(far, c, eps, fn)
	}
	return true
}
