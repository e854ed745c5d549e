// Package benchapi pins the API the end-to-end benchmark compiles against.
// benchmarks/e2e is a module of its own, so this module's `go vet ./...` and
// `go test ./...` never build it: a renamed function or a changed signature
// lands green here and fails in the benchmark pipeline. Every identifier
// benchmarks/e2e/{harness,layers,oracle,run,workloads}.go import from this
// module is referenced below with the signature they use it under, so the move
// fails here first. When the benchmark starts using something new, add it.
package benchapi

import (
	"io"
	"net/http"
	"testing"
	"time"

	"disc/internal/ckpt"
	"disc/internal/core"
	"disc/internal/datasets"
	"disc/internal/dbscan"
	"disc/internal/geom"
	"disc/internal/grid"
	"disc/internal/kdtree"
	"disc/internal/model"
	"disc/internal/rtree"
	"disc/internal/server"
	"disc/internal/window"
)

type visit = func(id int64, p geom.Vec) bool

// Functions, methods (as method expressions) and constants, each assigned to
// the type the benchmark relies on.
var (
	_ func(server.MultiConfig) (*server.Multi, error) = server.NewMulti
	_ func(*server.Multi) http.Handler                = (*server.Multi).Handler
	_ func(*server.Multi, string) *server.Server      = (*server.Multi).Stream
	_ func(*server.Server, io.Writer) error           = (*server.Server).WriteCheckpoint
	_ string                                          = server.DefaultStream
	_                                                 = server.MultiConfig{Default: server.Config{Cluster: model.Config{}, Window: 0, Stride: 0}, WALDir: ""}

	_ func(model.Config, ...core.Option) *core.Engine             = core.New
	_ func(io.Reader, ...core.Option) (*core.Engine, error)       = core.LoadEngine
	_ func(core.Observer) core.Option                             = core.WithObserver
	_ core.Observer                                               = core.ObserverFunc(func(core.StrideRecord) {})
	_ func(core.ConnStrategy) core.Option                         = core.WithConnectivity
	_ core.ConnStrategy                                           = core.ConnDynamic
	_ func(*core.Engine, []model.Point, []model.Point)            = (*core.Engine).Advance
	_ func(*core.Engine) map[int64]model.Assignment               = (*core.Engine).Snapshot
	_ func(*core.Engine) (clusters []core.ClusterInfo, noise int) = (*core.Engine).Clusters
	_ func(*core.Engine, io.Writer) error                         = (*core.Engine).SaveSnapshot

	_ func(string, ...ckpt.WALOption) (*ckpt.WAL, error)        = ckpt.OpenWAL
	_ func(string, uint64, int64) *ckpt.WALReader               = ckpt.OpenWALReader
	_ func(string, ...ckpt.StoreOption) (*ckpt.Store, error)    = ckpt.Open
	_ int                                                       = ckpt.HeaderSize
	_ error                                                     = ckpt.ErrWALWait
	_ func(*ckpt.WAL, uint64, []byte) error                     = (*ckpt.WAL).Append
	_ func(*ckpt.WAL) error                                     = (*ckpt.WAL).Sync
	_ func(*ckpt.WALReader) (uint64, []byte, error)             = (*ckpt.WALReader).Next
	_ func(*ckpt.WALReader) error                               = (*ckpt.WALReader).Close
	_ func(*ckpt.Store, []byte) (uint64, error)                 = (*ckpt.Store).Save
	_ func(*ckpt.Store) (payload []byte, gen uint64, err error) = (*ckpt.Store).Recover

	_ func(int, int) (*window.CountSlider, error)         = window.NewCountSlider
	_ func(*window.CountSlider, model.Point) *window.Step = (*window.CountSlider).Push
	_ func(*window.CountSlider) []model.Point             = (*window.CountSlider).Window

	_ func(int) *rtree.T                              = rtree.New
	_ func(*rtree.T, []int64, []geom.Vec)             = (*rtree.T).BulkInsert
	_ func(*rtree.T, int64, geom.Vec) bool            = (*rtree.T).Delete
	_ func(*rtree.T, geom.Vec, float64, visit) bool   = (*rtree.T).SearchBall
	_ func(int, float64) *grid.Grid                   = grid.New
	_ func(*grid.Grid, int64, geom.Vec)               = (*grid.Grid).Insert
	_ func(*grid.Grid, int64, geom.Vec) bool          = (*grid.Grid).Delete
	_ func(*grid.Grid, geom.Vec, float64, visit) bool = (*grid.Grid).SearchBall
	_ func(int) *kdtree.T                             = kdtree.New
	_ func(*kdtree.T, int64, geom.Vec)                = (*kdtree.T).Insert
	_ func(*kdtree.T, int64, geom.Vec) bool           = (*kdtree.T).Delete
	_ func(*kdtree.T, geom.Vec, float64, visit) bool  = (*kdtree.T).SearchBall

	_ func([]model.Point, model.Config) map[int64]model.Assignment = dbscan.Run
	_ func(int, int64) datasets.Dataset                            = datasets.DTG
	_ func(int, int64) datasets.Dataset                            = datasets.Maze
	_ func(int, int64) datasets.Dataset                            = datasets.COVID
	_ func(...float64) geom.Vec                                    = geom.NewVec
)

// TestFields references the struct fields the benchmark reads, under the types
// it reads them as.
func TestFields(t *testing.T) {
	var r core.StrideRecord
	for _, d := range []time.Duration{r.Collect, r.ExCorePhase, r.NeoCorePhase, r.Finalize, r.Connectivity, r.ForestUpdate} {
		_ = d
	}
	for _, n := range []int64{r.RangeSearches, r.NodeAccesses, int64(r.ConnChecks), r.ForestOps} {
		_ = n
	}
	var st window.Step
	for _, pts := range [][]model.Point{st.In, st.Out, st.Window, datasets.Dataset{}.Points} {
		_ = pts
	}
	before := rtree.New(2).Stats()
	_, _ = before.RangeSearches-0, before.NodeAccesses-0
	p := model.Point{ID: int64(0), Time: int64(0), Pos: geom.Vec{}}
	a := model.Assignment{Label: model.Core, ClusterID: model.NoCluster}
	_, _, _, _ = p, a.Label.String(), model.Border, model.Noise
}
