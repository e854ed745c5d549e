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
type spatialIndex interface {
	Delete(id int64, p geom.Vec) bool
	Len() int
	SearchBall(c geom.Vec, eps float64, fn func(id int64, p geom.Vec) bool) bool
	// SearchBallRO is SearchBall minus the statistics accounting: a pure
	// read of the index, safe for any number of concurrent callers while no
	// mutation runs. It returns the node (or cell) accesses the traversal
	// performed so callers can merge the work into their own counters —
	// the parallel COLLECT fan-out depends on this method.
	SearchBallRO(c geom.Vec, eps float64, fn func(id int64, p geom.Vec) bool) int64
	Stats() indexStats
	BulkLoad(ids []int64, pos []geom.Vec)
	// BulkInsert adds a batch of points to the existing index contents. The
	// result is observationally identical to inserting the batch point by
	// point; backends may exploit the batch for better layout (the R-tree
	// STR-packs it into full leaves grafted in one descent each).
	BulkInsert(ids []int64, pos []geom.Vec)
	// Name identifies the backend in telemetry ("grid" or "rtree").
	Name() string
}

// indexStats counts the work SearchBall calls performed. What one access is
// depends on the backend: a tree node visited, or a non-empty grid cell
// probed.
type indexStats struct {
	RangeSearches int64
	NodeAccesses  int64
}

func (g *epsGrid) Name() string { return "grid" }

// rtreeIndex adapts the R-tree to the spatialIndex interface.
type rtreeIndex struct{ *rtree.T }

func (ri rtreeIndex) Name() string { return "rtree" }

func (ri rtreeIndex) Stats() indexStats {
	st := ri.T.Stats()
	return indexStats{RangeSearches: st.RangeSearches, NodeAccesses: st.NodeAccesses}
}

// WithRTreeIndex runs the engine on the paper's substrate, a Guttman R-tree
// with STR-packed batch inserts, instead of the ε-grid. It exists for the
// paper-figure reproductions and as the differential reference; on long
// streams the tree's search cost grows with stream age (EXPERIMENTS.md,
// "Index-choice ablation").
func WithRTreeIndex() Option {
	return func(e *Engine) { e.tree = rtreeIndex{rtree.New(e.cfg.Dims)} }
}

// IndexName names the spatial index the engine runs on: "grid" (the
// default) or "rtree". Telemetry consumers stamp it next to node
// access counts, whose unit depends on it.
func (e *Engine) IndexName() string { return e.tree.Name() }
