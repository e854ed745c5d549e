package core

import (
	"disc/internal/geom"
	"disc/internal/rtree"
)

// spatialIndex abstracts the ε-search substrate DISC runs on. New builds
// the ε-grid (grid.go): ε is fixed per stream, so a grid answers a ball
// search from a handful of cells at a cost that does not depend on how long
// the stream has run. The paper's DISC is R-tree based; WithRTreeIndex keeps
// that substrate for reproducing its figures. Which index an engine runs on
// is a construction choice: it is not part of a checkpoint.
//
// An index stores arena slots (arena.go), never point ids, and hands them to
// the search callback.
type spatialIndex interface {
	Delete(slot int32, p geom.Vec) bool
	Len() int
	// SearchBallRO calls fn with the slot of every point within eps of c
	// until fn returns false. It is a pure read of the index, safe for any
	// number of concurrent callers while no mutation runs, and returns the
	// node (or cell) accesses the traversal performed; callers add them, and
	// the search itself, to their own counters.
	SearchBallRO(c geom.Vec, eps float64, fn func(slot int32) bool) int64
	BulkLoad(slots []int32, pos []geom.Vec)
	// BulkInsert adds a batch of points to the existing index contents. The
	// result is observationally identical to inserting the batch point by
	// point; backends may exploit the batch for better layout (the R-tree
	// STR-packs it into full leaves grafted in one descent each).
	BulkInsert(slots []int32, pos []geom.Vec)
	// Name identifies the backend in telemetry ("grid" or "rtree").
	Name() string
}

func (g *epsGrid) Name() string { return "grid" }

// rtreeIndex adapts the R-tree to the spatialIndex interface: the tree's
// int64 point id is the slot. It is the paper-figure path and is not held to
// the grid's allocation budget — each search wraps its callback.
type rtreeIndex struct {
	*rtree.T
	ids []int64 // BulkLoad/BulkInsert conversion buffer
}

func (ri *rtreeIndex) Name() string { return "rtree" }

func (ri *rtreeIndex) Delete(slot int32, p geom.Vec) bool { return ri.T.Delete(int64(slot), p) }

func (ri *rtreeIndex) SearchBallRO(c geom.Vec, eps float64, fn func(slot int32) bool) int64 {
	return ri.T.SearchBallRO(c, eps, func(id int64, _ geom.Vec) bool { return fn(int32(id)) })
}

func (ri *rtreeIndex) widen(slots []int32) []int64 {
	ri.ids = ri.ids[:0]
	for _, s := range slots {
		ri.ids = append(ri.ids, int64(s))
	}
	return ri.ids
}

func (ri *rtreeIndex) BulkLoad(slots []int32, pos []geom.Vec) { ri.T.BulkLoad(ri.widen(slots), pos) }

func (ri *rtreeIndex) BulkInsert(slots []int32, pos []geom.Vec) {
	ri.T.BulkInsert(ri.widen(slots), pos)
}

// WithRTreeIndex runs the engine on the paper's substrate, a Guttman R-tree
// with STR-packed batch inserts, instead of the ε-grid. It exists for the
// paper-figure reproductions and as the differential reference; on long
// streams the tree's search cost grows with stream age (EXPERIMENTS.md,
// "Index-choice ablation").
func WithRTreeIndex() Option {
	return func(e *Engine) { e.tree = &rtreeIndex{T: rtree.New(e.cfg.Dims)} }
}

// IndexName names the spatial index the engine runs on: "grid" (the
// default) or "rtree". Telemetry consumers stamp it next to node
// access counts, whose unit depends on it.
func (e *Engine) IndexName() string { return e.tree.Name() }
