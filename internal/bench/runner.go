package bench

import (
	"fmt"
	"time"

	"disc/internal/core"
	"disc/internal/dbscan"
	"disc/internal/dbstream"
	"disc/internal/denstream"
	"disc/internal/dstream"
	"disc/internal/edmstream"
	"disc/internal/extran"
	"disc/internal/incdbscan"
	"disc/internal/metrics"
	"disc/internal/model"
	"disc/internal/rhodbscan"
	"disc/internal/trace"
	"disc/internal/window"
)

// EngineKinds lists the engine identifiers accepted by NewEngine. "disc" is
// the engine as the server runs it (ε-grid index); "disc-rtree" is the
// paper's substrate, which the paper-figure drivers (Figs. 4-12) pin, and
// the Fig. 8 ablation kinds (-nomsbfs, -noepoch, -plain) are variants of it.
func EngineKinds() []string {
	return []string{
		"disc", "disc-rtree", "disc-nomsbfs", "disc-noepoch", "disc-plain", "disc-par", "disc-dyncon",
		"dbscan", "incdbscan", "extran",
		"dbstream", "edmstream", "denstream", "dstream", "rho2-0.1", "rho2-0.001",
	}
}

// NewEngine constructs an engine by kind. EXTRA-N additionally needs the
// window and stride of the workload (its predicted views depend on them).
func NewEngine(kind string, cfg model.Config, win, stride int) (model.Engine, error) {
	switch kind {
	case "disc":
		return core.New(cfg), nil
	case "disc-rtree":
		return core.New(cfg, core.WithRTreeIndex()), nil
	case "disc-nomsbfs":
		return core.New(cfg, core.WithRTreeIndex(), core.WithMSBFS(false)), nil
	case "disc-noepoch":
		return core.New(cfg, core.WithRTreeIndex(), core.WithEpochProbing(false)), nil
	case "disc-plain":
		return core.New(cfg, core.WithRTreeIndex(), core.WithMSBFS(false), core.WithEpochProbing(false)), nil
	case "disc-par":
		return core.New(cfg, core.WithWorkers(0)), nil // 0 = all available cores
	case "disc-dyncon":
		return core.New(cfg, core.WithConnectivity(core.ConnDynamic)), nil
	case "dbscan":
		return dbscan.New(cfg), nil
	case "incdbscan":
		return incdbscan.New(cfg), nil
	case "extran":
		return extran.New(cfg, win, stride)
	case "dbstream":
		return dbstream.New(cfg, dbstream.Options{})
	case "edmstream":
		return edmstream.New(cfg, edmstream.Options{})
	case "denstream":
		return denstream.New(cfg, denstream.Options{})
	case "dstream":
		return dstream.New(cfg, dstream.Options{})
	case "rho2-0.1":
		return rhodbscan.New(cfg, 0.1)
	case "rho2-0.001":
		return rhodbscan.New(cfg, 0.001)
	default:
		return nil, fmt.Errorf("bench: unknown engine kind %q (have %v)", kind, EngineKinds())
	}
}

// RunOpts bounds one engine run.
type RunOpts struct {
	// Timeout aborts the run (marking it DNF) once total Advance time
	// exceeds it; zero means no limit. The paper terminated EXTRA-N runs
	// after ten hours — this is the scaled-down equivalent.
	Timeout time.Duration
	// MemoryCap marks the run DNF when the engine's resident bookkeeping
	// (Stats().MemoryItems) exceeds it; zero means no limit. The paper's
	// EXTRA-N runs exceeded 64 GB of RAM on large windows.
	MemoryCap int64
	// Snapshot, when non-nil, is invoked after every measured stride with
	// the stride index and the engine (for ARI-style quality probes).
	Snapshot func(strideIdx int, eng model.Engine)
	// Observer, when non-nil, is attached to engines that support one (the
	// DISC variants) for the measured strides only — the bootstrap fill is
	// deliberately excluded so it cannot skew latency percentiles — and
	// detached again before Run returns.
	Observer core.Observer
	// Tracer, when non-nil, is attached alongside the observer under the
	// same bootstrap-excluded window: every measured stride records a span
	// tree, and strides beyond the tracer's slow threshold are retained in
	// its slow ring for post-run inspection.
	Tracer *trace.Tracer
}

// observable is implemented by engines whose per-stride telemetry can be
// tapped (currently the DISC core engine).
type observable interface {
	SetObserver(core.Observer)
}

// indexed is implemented by engines that run on a selectable spatial index
// (currently the DISC core engine).
type indexed interface {
	IndexName() string
}

// indexOf names the spatial index behind eng, "" for engines without a
// selectable one.
func indexOf(eng model.Engine) string {
	if ix, ok := eng.(indexed); ok {
		return ix.IndexName()
	}
	return ""
}

// traceable is implemented by engines that can record per-stride span
// trees (currently the DISC core engine).
type traceable interface {
	SetTracer(*trace.Tracer)
}

// RunResult summarizes one engine over one windowed workload.
type RunResult struct {
	Engine      string
	Index       string        // spatial index of a DISC engine ("grid" or "rtree"); "" otherwise
	Strides     int           // measured strides (bootstrap excluded)
	PerStride   time.Duration // mean Advance time per measured stride
	PerPoint    time.Duration // mean Advance time per arriving point
	Searches    float64       // mean range searches per measured stride
	TotalStats  model.Stats
	DNF         bool
	DNFReason   string
	BootstrapMS float64
}

// Run drives eng through the steps, timing every stride after the bootstrap
// fill. It returns aggregate results; on DNF the partial averages of the
// completed strides are retained.
func Run(eng model.Engine, steps []window.Step, opts RunOpts) RunResult {
	res := RunResult{Engine: eng.Name(), Index: indexOf(eng)}
	if len(steps) == 0 {
		return res
	}
	start := time.Now()
	eng.Advance(steps[0].In, steps[0].Out)
	res.BootstrapMS = float64(time.Since(start).Microseconds()) / 1000
	eng.ResetStats()
	if opts.Observer != nil {
		if ob, ok := eng.(observable); ok {
			ob.SetObserver(opts.Observer)
			defer ob.SetObserver(nil)
		}
	}
	if opts.Tracer != nil {
		if tb, ok := eng.(traceable); ok {
			tb.SetTracer(opts.Tracer)
			defer tb.SetTracer(nil)
		}
	}

	var elapsed time.Duration
	var points int
	for i, st := range steps[1:] {
		t0 := time.Now()
		eng.Advance(st.In, st.Out)
		elapsed += time.Since(t0)
		points += len(st.In)
		res.Strides++
		if opts.Snapshot != nil {
			opts.Snapshot(i, eng)
		}
		if opts.Timeout > 0 && elapsed > opts.Timeout {
			res.DNF = true
			res.DNFReason = fmt.Sprintf("timeout after %d strides (> %v)", res.Strides, opts.Timeout)
			break
		}
		if opts.MemoryCap > 0 && eng.Stats().MemoryItems > opts.MemoryCap {
			res.DNF = true
			res.DNFReason = fmt.Sprintf("memory cap exceeded: %d items > %d", eng.Stats().MemoryItems, opts.MemoryCap)
			break
		}
	}
	res.TotalStats = eng.Stats()
	if res.Strides > 0 {
		res.PerStride = elapsed / time.Duration(res.Strides)
		res.Searches = float64(res.TotalStats.RangeSearches) / float64(res.Strides)
	}
	if points > 0 {
		res.PerPoint = elapsed / time.Duration(points)
	}
	return res
}

// Quality probes clustering quality against a truth labeling: it returns the
// mean ARI over the sampled strides. truthOf must return the ground-truth
// label map restricted to the stride's window.
func Quality(eng model.Engine, steps []window.Step, sampleEvery int,
	truthOf func(strideIdx int, win []model.Point) map[int64]int) (meanARI float64, samples int) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	eng.Advance(steps[0].In, steps[0].Out)
	var sum float64
	for i, st := range steps[1:] {
		eng.Advance(st.In, st.Out)
		if i%sampleEvery != 0 {
			continue
		}
		truth := truthOf(i, st.Window)
		if truth == nil {
			continue
		}
		pred := predLabels(eng, st.Window)
		sum += metrics.ARI(truth, pred)
		samples++
	}
	if samples == 0 {
		return 0, 0
	}
	return sum / float64(samples), samples
}

func predLabels(eng model.Engine, win []model.Point) map[int64]int {
	out := make(map[int64]int, len(win))
	for _, p := range win {
		if a, ok := eng.Assignment(p.ID); ok {
			out[p.ID] = a.ClusterID
		} else {
			out[p.ID] = model.NoCluster
		}
	}
	return out
}
