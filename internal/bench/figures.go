package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"disc/internal/core"
	"disc/internal/dbscan"
	"disc/internal/dbstream"
	"disc/internal/denstream"
	"disc/internal/dstream"
	"disc/internal/edmstream"
	"disc/internal/metrics"
	"disc/internal/model"
	"disc/internal/trace"
	"disc/internal/window"
)

// Options configures a figure run.
type Options struct {
	Out       io.Writer     // table destination; default os.Stdout
	Scale     float64       // multiplies Table II windows; default 1
	Strides   int           // measured strides per engine run; default 10
	Timeout   time.Duration // per engine run; default 2m
	MemoryCap int64         // EXTRA-N bookkeeping budget; default 5M items
	OutDir    string        // Fig. 12 artifact directory; default "out"
	Seed      int64         // dataset seed override; 0 keeps defaults
	// StrideLog, when non-nil, is attached as the stride observer of every
	// engine that supports one (the DISC variants), producing one JSONL
	// record per measured stride plus exact latency percentiles.
	StrideLog *StrideLogger
	// Tracer, when non-nil, is attached alongside StrideLog to every
	// engine that supports tracing: each measured stride records a span
	// tree, slow strides are retained in the tracer's slow ring, and their
	// trace ids are stamped into the stride log.
	Tracer *trace.Tracer
}

func (o *Options) fill() {
	if o.Out == nil {
		o.Out = os.Stdout
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Strides <= 0 {
		o.Strides = 10
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.MemoryCap <= 0 {
		o.MemoryCap = 5_000_000
	}
	if o.OutDir == "" {
		o.OutDir = "out"
	}
}

// Row is one data point of a regenerated figure.
type Row struct {
	Figure  string `json:"figure"`
	Dataset string `json:"dataset"`
	Param   string `json:"param"` // x-axis value ("stride=5%", "window=2x", "eps=0.004", ...)
	Engine  string `json:"engine"`
	// Index names the spatial index a DISC row ran on ("grid" or "rtree").
	// Elapsed times and node-access counts taken under different indexes
	// are different quantities; rows without the field predate it and ran
	// on the R-tree.
	Index string             `json:"index,omitempty"`
	Value float64            `json:"value"` // primary metric (speedup, ms, searches, ARI, µs/point)
	Unit  string             `json:"unit"`
	Extra map[string]float64 `json:"extra,omitempty"`
	DNF   bool               `json:"dnf,omitempty"`
	Note  string             `json:"note,omitempty"`
}

// paperDISC is the engine kind the paper-reproduction figures (Figs. 4-12)
// run DISC as: the paper's R-tree substrate, so the regenerated curves —
// node accesses included — stay comparable with the paper's and with
// figures_output.txt. The ext figures run the default kind, "disc".
const paperDISC = "disc-rtree"

func (o Options) config(name string) (DataConfig, error) {
	dc, err := Defaults(name)
	if err != nil {
		return dc, err
	}
	dc = dc.Scaled(o.Scale)
	if o.Seed != 0 {
		dc.Seed = o.Seed
	}
	return dc, nil
}

// ratioStride returns a stride approximating ratio*window that divides the
// window evenly (EXTRA-N requires it; it also keeps strides comparable).
func ratioStride(win int, ratio float64) int {
	k := int(math.Round(1 / ratio))
	if k < 1 {
		k = 1
	}
	for win%k != 0 && k > 1 {
		k--
	}
	s := win / k
	if s < 1 {
		s = 1
	}
	return s
}

func (o Options) steps(dc DataConfig, stride int) ([]window.Step, error) {
	n := o.Strides
	// Tiny strides are cheap and individually noisy: measure more of them.
	if extra := dc.Window / (20 * stride); extra > n {
		n = extra
		if n > 64 {
			n = 64
		}
	}
	ds, err := dc.Stream(stride, n)
	if err != nil {
		return nil, err
	}
	return window.Steps(ds.Points, dc.Window, stride)
}

func (o Options) runKind(kind string, cfg model.Config, win, stride int, steps []window.Step, opts RunOpts) (RunResult, error) {
	eng, err := NewEngine(kind, cfg, win, stride)
	if err != nil {
		return RunResult{}, err
	}
	opts = o.observed(kind, opts)
	if opts.Timeout == 0 {
		opts.Timeout = o.Timeout
	}
	if kind == "extran" && opts.MemoryCap == 0 {
		opts.MemoryCap = o.MemoryCap
	}
	return Run(eng, steps, opts), nil
}

// observed attaches the stride logger (when one is configured) to a run,
// labeling its records with the engine under test. Figures that build
// engines outside runKind use this directly.
func (o Options) observed(engine string, opts RunOpts) RunOpts {
	if o.StrideLog != nil {
		o.StrideLog.SetEngine(engine)
		opts.Observer = o.StrideLog
	}
	if o.Tracer != nil {
		opts.Tracer = o.Tracer
	}
	return opts
}

// Table2 prints the Table II analog: thresholds and (scaled) window sizes.
func Table2(o Options) error {
	o.fill()
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tdims\tdensity (τ)\tdistance (ε)\twindow (scaled)\tpaper window")
	paper := map[string]string{"dtg": "2M (~10 min)", "geolife": "200K (~fortnight)", "covid": "15K (~fortnight)", "iris": "200K (~decade)"}
	for _, name := range EvalDatasets() {
		dc, err := o.config(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%g\t%d\t%s\n",
			dc.Label, dc.Cfg.Dims, dc.Cfg.MinPts, dc.Cfg.Eps, dc.Window, paper[name])
	}
	return tw.Flush()
}

// Fig4 regenerates Figure 4: relative speedup over DBSCAN with a varying
// stride size (as a fraction of the window), for all four dataset analogs.
func Fig4(o Options) ([]Row, error) {
	o.fill()
	ratios := []float64{0.001, 0.01, 0.05, 0.10, 0.25}
	engines := []string{paperDISC, "incdbscan", "extran"}
	var rows []Row
	for _, name := range EvalDatasets() {
		dc, err := o.config(name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(o.Out, "\n[Fig 4] %s: speedup over DBSCAN vs stride (window=%d, eps=%g, minPts=%d)\n",
			dc.Label, dc.Window, dc.Cfg.Eps, dc.Cfg.MinPts)
		tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "stride\tDBSCAN ms\tDISC\tIncDBSCAN\tEXTRA-N")
		for _, ratio := range ratios {
			stride := ratioStride(dc.Window, ratio)
			steps, err := o.steps(dc, stride)
			if err != nil {
				return nil, err
			}
			base, err := o.runKind("dbscan", dc.Cfg, dc.Window, stride, steps, RunOpts{})
			if err != nil {
				return nil, err
			}
			line := fmt.Sprintf("%.1f%%\t%.1f", ratio*100, msOf(base.PerStride))
			for _, kind := range engines {
				res, err := o.runKind(kind, dc.Cfg, dc.Window, stride, steps, RunOpts{})
				if err != nil {
					return nil, err
				}
				speedup := speedupOf(base, res)
				rows = append(rows, Row{
					Figure: "4", Dataset: dc.Label,
					Param: fmt.Sprintf("stride=%.1f%%", ratio*100), Engine: res.Engine, Index: res.Index,
					Value: speedup, Unit: "x", DNF: res.DNF, Note: res.DNFReason,
					Extra: map[string]float64{"range_searches": res.Searches, "dbscan_range_searches": base.Searches},
				})
				if res.DNF {
					line += "\tDNF"
				} else {
					line += fmt.Sprintf("\t%.2fx", speedup)
				}
			}
			fmt.Fprintln(tw, line)
		}
		tw.Flush()
	}
	return rows, nil
}

// Fig5 regenerates Figure 5: relative speedup over DBSCAN with a varying
// window size at a fixed 5% stride. EXTRA-N runs under the scaled memory
// budget and may DNF, as in the paper.
func Fig5(o Options) ([]Row, error) {
	o.fill()
	factors := []float64{0.5, 1, 2, 4}
	engines := []string{paperDISC, "incdbscan", "extran"}
	var rows []Row
	for _, name := range EvalDatasets() {
		base0, err := o.config(name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(o.Out, "\n[Fig 5] %s: speedup over DBSCAN vs window (stride=5%%)\n", base0.Label)
		tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "window\tDBSCAN ms\tDISC\tIncDBSCAN\tEXTRA-N")
		for _, f := range factors {
			dc := base0.Scaled(f)
			stride := ratioStride(dc.Window, 0.05)
			steps, err := o.steps(dc, stride)
			if err != nil {
				return nil, err
			}
			base, err := o.runKind("dbscan", dc.Cfg, dc.Window, stride, steps, RunOpts{})
			if err != nil {
				return nil, err
			}
			line := fmt.Sprintf("%d\t%.1f", dc.Window, msOf(base.PerStride))
			for _, kind := range engines {
				res, err := o.runKind(kind, dc.Cfg, dc.Window, stride, steps, RunOpts{})
				if err != nil {
					return nil, err
				}
				speedup := speedupOf(base, res)
				rows = append(rows, Row{
					Figure: "5", Dataset: dc.Label,
					Param: fmt.Sprintf("window=%d", dc.Window), Engine: res.Engine, Index: res.Index,
					Value: speedup, Unit: "x", DNF: res.DNF, Note: res.DNFReason,
				})
				if res.DNF {
					line += "\tDNF"
				} else {
					line += fmt.Sprintf("\t%.2fx", speedup)
				}
			}
			fmt.Fprintln(tw, line)
		}
		tw.Flush()
	}
	return rows, nil
}

// Fig6 regenerates Figure 6: elapsed time of the incremental methods on the
// DTG analog with varying distance (a) and density (b) thresholds; stride 5%.
func Fig6(o Options) ([]Row, error) {
	o.fill()
	dc, err := o.config("dtg")
	if err != nil {
		return nil, err
	}
	engines := []string{paperDISC, "incdbscan", "extran"}
	var rows []Row

	run := func(sub, param string, cfg model.Config) error {
		stride := ratioStride(dc.Window, 0.05)
		dcv := dc
		dcv.Cfg = cfg
		steps, err := o.steps(dcv, stride)
		if err != nil {
			return err
		}
		line := param
		for _, kind := range engines {
			res, err := o.runKind(kind, cfg, dc.Window, stride, steps, RunOpts{})
			if err != nil {
				return err
			}
			rows = append(rows, Row{
				Figure: "6" + sub, Dataset: dc.Label, Param: param, Engine: res.Engine, Index: res.Index,
				Value: msOf(res.PerStride), Unit: "ms", DNF: res.DNF, Note: res.DNFReason,
			})
			if res.DNF {
				line += "\tDNF"
			} else {
				line += fmt.Sprintf("\t%.1f", msOf(res.PerStride))
			}
		}
		fmt.Fprintln(o.Out, line)
		return nil
	}

	fmt.Fprintf(o.Out, "\n[Fig 6a] DTG: elapsed ms per stride vs distance threshold (τ=%d)\n", dc.Cfg.MinPts)
	fmt.Fprintln(o.Out, "eps\tDISC\tIncDBSCAN\tEXTRA-N")
	for _, f := range []float64{0.5, 1, 2, 4} {
		cfg := dc.Cfg
		cfg.Eps = dc.Cfg.Eps * f
		if err := run("a", fmt.Sprintf("eps=%g", cfg.Eps), cfg); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(o.Out, "\n[Fig 6b] DTG: elapsed ms per stride vs density threshold (eps=%g)\n", dc.Cfg.Eps)
	fmt.Fprintln(o.Out, "tau\tDISC\tIncDBSCAN\tEXTRA-N")
	for _, f := range []float64{0.25, 0.5, 1, 2} {
		cfg := dc.Cfg
		cfg.MinPts = int(float64(dc.Cfg.MinPts) * f)
		if cfg.MinPts < 2 {
			cfg.MinPts = 2
		}
		if err := run("b", fmt.Sprintf("tau=%d", cfg.MinPts), cfg); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Fig7 regenerates Figure 7: range searches executed per stride. (a) all
// datasets at 5% stride; (b) DTG across stride ratios, relative to DBSCAN.
func Fig7(o Options) ([]Row, error) {
	o.fill()
	var rows []Row
	fmt.Fprintln(o.Out, "\n[Fig 7a] range searches per stride (stride=5%)")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tDBSCAN\tIncDBSCAN\tDISC")
	for _, name := range EvalDatasets() {
		dc, err := o.config(name)
		if err != nil {
			return nil, err
		}
		stride := ratioStride(dc.Window, 0.05)
		steps, err := o.steps(dc, stride)
		if err != nil {
			return nil, err
		}
		line := dc.Label
		for _, kind := range []string{"dbscan", "incdbscan", paperDISC} {
			res, err := o.runKind(kind, dc.Cfg, dc.Window, stride, steps, RunOpts{})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{
				Figure: "7a", Dataset: dc.Label, Param: "stride=5%", Engine: res.Engine, Index: res.Index,
				Value: res.Searches, Unit: "searches/stride",
			})
			line += fmt.Sprintf("\t%.0f", res.Searches)
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()

	dc, err := o.config("dtg")
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(o.Out, "\n[Fig 7b] DTG: range searches relative to DBSCAN vs stride")
	tw = tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stride\tIncDBSCAN\tDISC")
	for _, ratio := range []float64{0.01, 0.05, 0.10, 0.25} {
		stride := ratioStride(dc.Window, ratio)
		steps, err := o.steps(dc, stride)
		if err != nil {
			return nil, err
		}
		base, err := o.runKind("dbscan", dc.Cfg, dc.Window, stride, steps, RunOpts{})
		if err != nil {
			return nil, err
		}
		line := fmt.Sprintf("%.0f%%", ratio*100)
		for _, kind := range []string{"incdbscan", paperDISC} {
			res, err := o.runKind(kind, dc.Cfg, dc.Window, stride, steps, RunOpts{})
			if err != nil {
				return nil, err
			}
			rel := res.Searches / base.Searches
			rows = append(rows, Row{
				Figure: "7b", Dataset: dc.Label,
				Param: fmt.Sprintf("stride=%.0f%%", ratio*100), Engine: res.Engine, Index: res.Index,
				Value: rel, Unit: "rel. to DBSCAN",
			})
			line += fmt.Sprintf("\t%.3f", rel)
		}
		fmt.Fprintln(tw, line)
	}
	return rows, tw.Flush()
}

// Fig8 regenerates Figure 8: the ablation of MS-BFS and epoch-based probing;
// elapsed per stride for the four DISC variants at 5% stride.
func Fig8(o Options) ([]Row, error) {
	o.fill()
	variants := []struct{ kind, label string }{
		{"disc-plain", "neither"},
		{"disc-nomsbfs", "epoch only"},
		{"disc-noepoch", "MS-BFS only"},
		{paperDISC, "both"},
	}
	var rows []Row
	fmt.Fprintln(o.Out, "\n[Fig 8] DISC optimizations: elapsed ms per stride (stride=5%)")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tneither\tepoch only\tMS-BFS only\tboth")
	for _, name := range EvalDatasets() {
		dc, err := o.config(name)
		if err != nil {
			return nil, err
		}
		stride := ratioStride(dc.Window, 0.05)
		steps, err := o.steps(dc, stride)
		if err != nil {
			return nil, err
		}
		line := dc.Label
		for _, v := range variants {
			eng, err := NewEngine(v.kind, dc.Cfg, dc.Window, stride)
			if err != nil {
				return nil, err
			}
			// Count the connectivity work MS-BFS shares, passing each
			// record on to the stride logger when one is configured.
			opts := o.observed(v.kind, RunOpts{Timeout: o.Timeout})
			var searches, nodes int64
			next := opts.Observer
			opts.Observer = core.ObserverFunc(func(rec core.StrideRecord) {
				searches, nodes = searches+rec.ConnSearches, nodes+rec.ConnNodes
				if next != nil {
					next.ObserveStride(rec)
				}
			})
			res := Run(eng, steps, opts)
			n := float64(max(res.Strides, 1))
			rows = append(rows, Row{
				Figure: "8", Dataset: dc.Label, Param: v.label, Engine: "DISC", Index: res.Index,
				Value: msOf(res.PerStride), Unit: "ms",
				Extra: map[string]float64{"conn_searches": float64(searches) / n, "conn_nodes": float64(nodes) / n},
			})
			line += fmt.Sprintf("\t%.1f", msOf(res.PerStride))
		}
		fmt.Fprintln(tw, line)
	}
	return rows, tw.Flush()
}

// qualityEngines is the engine line-up of the quality/latency comparison
// (Figs. 9 and 10) — exactly the methods the paper compares, DISC running as
// the given kind — followed by any extra baselines.
func qualityEngines(disc string, extra ...string) []string {
	return append([]string{disc, "rho2-0.1", "rho2-0.001", "dbstream", "edmstream"}, extra...)
}

// FigExt1 is an extension experiment (not in the paper): the Fig. 9 Maze
// quality/latency sweep over the full summarization family, adding
// DenStream (Cao et al. 2006) and D-Stream (Chen & Tu 2007).
func FigExt1(o Options) ([]Row, error) {
	o.fill()
	// The default engine kind, plus the two summarization baselines this
	// repository implements beyond the paper's line-up.
	return o.qualityFigureWith("ext1", "maze", []float64{0.5, 1, 2, 4}, qualityEngines("disc", "denstream", "dstream"))
}

// newQualityEngine constructs engines for the quality figures. Following the
// paper — the summarization-based methods "were evaluated with parameter
// settings that helped them achieve the best ARI" — DBSTREAM and EDMStream
// get a decay half-life matched to the window span, so their forgetting
// horizon approximates the hard window as well as decay can.
func newQualityEngine(kind string, cfg model.Config, win, stride int) (model.Engine, error) {
	lambda := math.Ln2 / float64(win)
	switch kind {
	case "dbstream":
		return dbstream.New(cfg, dbstream.Options{
			Lambda: lambda, GapTime: int64(stride), WeightMin: 1.2, Alpha: 0.05,
		})
	case "edmstream":
		return edmstream.New(cfg, edmstream.Options{Lambda: lambda, OutlierW: 1})
	case "denstream":
		return denstream.New(cfg, denstream.Options{Lambda: lambda})
	case "dstream":
		return dstream.New(cfg, dstream.Options{Lambda: lambda})
	default:
		return NewEngine(kind, cfg, win, stride)
	}
}

// Fig9 regenerates Figure 9: ARI and per-point update latency on Maze with a
// varying window size; stride 5%.
func Fig9(o Options) ([]Row, error) {
	o.fill()
	return o.qualityFigure("9", "maze", []float64{0.5, 1, 2, 4})
}

// Fig10 regenerates Figure 10: ARI (truth = DBSCAN labels) and per-point
// update latency on the DTG analog with a varying window size; stride 5%.
func Fig10(o Options) ([]Row, error) {
	o.fill()
	return o.qualityFigure("10", "dtg", []float64{0.25, 0.5, 1, 2})
}

// qualityFigure runs the paper's quality/latency comparison on one dataset
// over a sweep of window factors.
func (o Options) qualityFigure(fig, dataset string, factors []float64) ([]Row, error) {
	return o.qualityFigureWith(fig, dataset, factors, qualityEngines(paperDISC))
}

// qualityFigureWith runs the quality/latency comparison with an explicit
// engine line-up.
func (o Options) qualityFigureWith(fig, dataset string, factors []float64, engines []string) ([]Row, error) {
	base0, err := o.config(dataset)
	if err != nil {
		return nil, err
	}
	var rows []Row
	fmt.Fprintf(o.Out, "\n[Fig %s] %s: ARI and per-point latency vs window (stride=5%%)\n", fig, base0.Label)
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "window\tengine\tARI\tlatency µs/point")
	for _, f := range factors {
		dc := base0.Scaled(f)
		stride := ratioStride(dc.Window, 0.05)
		ds, err := dc.Stream(stride, o.Strides)
		if err != nil {
			return nil, err
		}
		steps, err := window.Steps(ds.Points, dc.Window, stride)
		if err != nil {
			return nil, err
		}
		// Ground truth per sampled stride: the generator's labels for Maze,
		// a from-scratch DBSCAN run for DTG (as in the paper).
		sampleEvery := 3
		truthOf := func(_ int, win []model.Point) map[int64]int {
			if ds.Truth != nil {
				t := make(map[int64]int, len(win))
				for _, p := range win {
					t[p.ID] = ds.Truth[p.ID]
				}
				return t
			}
			return metrics.Labels(dbscan.Run(win, dc.Cfg))
		}
		for _, kind := range engines {
			// Timing pass.
			teng, err := newQualityEngine(kind, dc.Cfg, dc.Window, stride)
			if err != nil {
				return nil, err
			}
			res := Run(teng, steps, RunOpts{Timeout: o.Timeout})
			// Quality pass on a fresh engine (snapshots kept off the timed path).
			qeng, err := newQualityEngine(kind, dc.Cfg, dc.Window, stride)
			if err != nil {
				return nil, err
			}
			ari, _ := Quality(qeng, steps, sampleEvery, truthOf)
			rows = append(rows, Row{
				Figure: fig, Dataset: dc.Label,
				Param: fmt.Sprintf("window=%d", dc.Window), Engine: res.Engine, Index: res.Index,
				Value: ari, Unit: "ARI",
				Extra: map[string]float64{"latency_us": usOf(res.PerPoint)},
				DNF:   res.DNF, Note: res.DNFReason,
			})
			fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.1f\n", dc.Window, res.Engine, ari, usOf(res.PerPoint))
		}
	}
	return rows, tw.Flush()
}

// FigExt2 is an extension experiment (not in the paper): the per-phase
// wall-clock breakdown of DISC (COLLECT / ex-core / neo-core / finalize) on
// every dataset analog at a 5% stride — the drill-down behind §VI-D.
func FigExt2(o Options) ([]Row, error) {
	o.fill()
	var rows []Row
	fmt.Fprintln(o.Out, "\n[Fig ext2] DISC phase breakdown: ms per stride (stride=5%)")
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tCOLLECT\tex-cores\tneo-cores\tfinalize\ttotal")
	for _, name := range EvalDatasets() {
		dc, err := o.config(name)
		if err != nil {
			return nil, err
		}
		stride := ratioStride(dc.Window, 0.05)
		steps, err := o.steps(dc, stride)
		if err != nil {
			return nil, err
		}
		eng := core.New(dc.Cfg)
		res := Run(eng, steps, o.observed("disc", RunOpts{Timeout: o.Timeout}))
		pt := eng.PhaseTimings()
		n := float64(res.Strides)
		if n == 0 {
			n = 1
		}
		phases := []struct {
			name string
			ms   float64
		}{
			{"collect", msOf(pt.Collect) / n},
			{"excores", msOf(pt.ExCores) / n},
			{"neocores", msOf(pt.NeoCores) / n},
			{"finalize", msOf(pt.Finalize) / n},
		}
		line := dc.Label
		for _, ph := range phases {
			rows = append(rows, Row{
				Figure: "ext2", Dataset: dc.Label, Param: ph.name, Engine: "DISC", Index: res.Index,
				Value: ph.ms, Unit: "ms",
			})
			line += fmt.Sprintf("\t%.1f", ph.ms)
		}
		line += fmt.Sprintf("\t%.1f", msOf(pt.Total())/n)
		fmt.Fprintln(tw, line)
	}
	return rows, tw.Flush()
}

// FigExt3 is an extension experiment (not in the paper): scaling of the
// parallel COLLECT phase with the worker count, on the DTG analog at a 25%
// stride (arrival-heavy, so COLLECT dominates the per-stride cost). The merge
// is exactness-preserving, so every worker count produces the identical
// clustering; only the wall clock changes. Speedups are bounded by
// GOMAXPROCS — on a single-core host every worker count degenerates to ~1x.
func FigExt3(o Options) ([]Row, error) {
	o.fill()
	dc, err := o.config("dtg")
	if err != nil {
		return nil, err
	}
	stride := ratioStride(dc.Window, 0.25)
	steps, err := o.steps(dc, stride)
	if err != nil {
		return nil, err
	}
	var rows []Row
	gmp := runtime.GOMAXPROCS(0)
	fmt.Fprintf(o.Out, "\n[Fig ext3] %s: parallel COLLECT scaling (stride=25%%, GOMAXPROCS=%d)\n",
		dc.Label, gmp)
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workers\tCOLLECT ms\tstride ms\tCOLLECT speedup\tpoints/s\tCOLLECT allocs/stride")
	var baseCollect float64
	for _, w := range []int{1, 2, 4, 8} {
		eng := core.New(dc.Cfg, core.WithWorkers(w), core.WithAllocTracking(true))
		res := Run(eng, steps, o.observed(fmt.Sprintf("disc-w%d", w), RunOpts{Timeout: o.Timeout}))
		n := float64(res.Strides)
		if n == 0 {
			n = 1
		}
		collectMS := msOf(eng.PhaseTimings().Collect) / n
		if w == 1 {
			baseCollect = collectMS
		}
		var speedup float64
		if collectMS > 0 {
			speedup = baseCollect / collectMS
		}
		var pps float64
		if res.PerPoint > 0 {
			pps = float64(time.Second) / float64(res.PerPoint)
		}
		al := eng.PhaseAllocs()
		rows = append(rows, Row{
			Figure: "ext3", Dataset: dc.Label,
			Param: fmt.Sprintf("workers=%d", w), Engine: "DISC", Index: res.Index,
			Value: collectMS, Unit: "ms",
			Extra: map[string]float64{
				"speedup":           speedup,
				"points_per_sec":    pps,
				"stride_ms":         msOf(res.PerStride),
				"gomaxprocs":        float64(gmp),
				"effective_workers": float64(minInt(w, gmp)),
				"collect_allocs_op": float64(al.CollectObjs) / n,
				"collect_bytes_op":  float64(al.CollectBytes) / n,
			},
			DNF: res.DNF, Note: parallelismNote(res.DNFReason, w, gmp),
		})
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.2fx\t%.0f\t%.0f\n",
			w, collectMS, msOf(res.PerStride), speedup, pps, float64(al.CollectObjs)/n)
	}
	warnOversubscribed(o, tw, gmp)
	return rows, tw.Flush()
}

// minInt is the two-arg integer min (the builtin needs Go 1.21 but reads
// poorly next to float conversions).
func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// parallelismNote annotates a worker-scaling row whose configured fan-out
// exceeds the host's scheduler parallelism: its "speedup" measures goroutine
// oversubscription, not parallel capacity, and must not be read as the
// algorithm failing (or succeeding) to scale. The summary header records
// gomaxprocs once per file, but rows are routinely copied out of context
// into plots and diffs — each oversubscribed row carries the caveat itself.
func parallelismNote(base string, workers, gmp int) string {
	if workers <= gmp {
		return base
	}
	note := fmt.Sprintf("oversubscribed: workers=%d > GOMAXPROCS=%d", workers, gmp)
	if base == "" {
		return note
	}
	return base + "; " + note
}

// warnOversubscribed prints the oversubscription caveat under a scaling
// table when any of the standard worker counts exceeds the host's
// parallelism.
func warnOversubscribed(o Options, tw *tabwriter.Writer, gmp int) {
	if gmp >= 8 { // largest standard worker count
		return
	}
	tw.Flush()
	fmt.Fprintf(o.Out, "warning: worker counts above GOMAXPROCS=%d are oversubscribed; their speedups reflect scheduling, not parallel capacity\n", gmp)
}

// FigExt4 is an extension experiment (not in the paper): scaling of the
// parallel CLUSTER phase (ex-core + neo-core processing) with the worker
// count, on the DTG analog at a 25% stride — heavy churn makes every stride
// carry large retro-/nascent-reachable components. The capture/fold split is
// exactness-preserving, so every worker count produces the identical
// clustering and event stream; only the wall clock changes. Speedups are
// bounded by GOMAXPROCS — on a single-core host every worker count
// degenerates to ~1x. Each run also samples per-phase heap allocations
// (WithAllocTracking), recording allocs and bytes per stride for COLLECT and
// CLUSTER next to the timing curve.
func FigExt4(o Options) ([]Row, error) {
	o.fill()
	dc, err := o.config("dtg")
	if err != nil {
		return nil, err
	}
	stride := ratioStride(dc.Window, 0.25)
	steps, err := o.steps(dc, stride)
	if err != nil {
		return nil, err
	}
	var rows []Row
	gmp := runtime.GOMAXPROCS(0)
	fmt.Fprintf(o.Out, "\n[Fig ext4] %s: parallel CLUSTER scaling (stride=25%%, GOMAXPROCS=%d)\n",
		dc.Label, gmp)
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workers\tCLUSTER ms\tstride ms\tCLUSTER speedup\tCLUSTER allocs/stride\tCLUSTER KB/stride")
	var baseCluster float64
	for _, w := range []int{1, 2, 4, 8} {
		eng := core.New(dc.Cfg, core.WithWorkers(w), core.WithAllocTracking(true))
		res := Run(eng, steps, o.observed(fmt.Sprintf("disc-w%d", w), RunOpts{Timeout: o.Timeout}))
		n := float64(res.Strides)
		if n == 0 {
			n = 1
		}
		pt := eng.PhaseTimings()
		clusterMS := (msOf(pt.ExCores) + msOf(pt.NeoCores)) / n
		if w == 1 {
			baseCluster = clusterMS
		}
		var speedup float64
		if clusterMS > 0 {
			speedup = baseCluster / clusterMS
		}
		al := eng.PhaseAllocs()
		rows = append(rows, Row{
			Figure: "ext4", Dataset: dc.Label,
			Param: fmt.Sprintf("workers=%d", w), Engine: "DISC", Index: res.Index,
			Value: clusterMS, Unit: "ms",
			Extra: map[string]float64{
				"speedup":            speedup,
				"stride_ms":          msOf(res.PerStride),
				"collect_ms":         msOf(pt.Collect) / n,
				"gomaxprocs":         float64(gmp),
				"effective_workers":  float64(minInt(w, gmp)),
				"advance_allocs_op":  float64(al.TotalObjs()) / n,
				"advance_bytes_op":   float64(al.TotalBytes()) / n,
				"collect_allocs_op":  float64(al.CollectObjs) / n,
				"collect_bytes_op":   float64(al.CollectBytes) / n,
				"cluster_allocs_op":  float64(al.ClusterObjs) / n,
				"cluster_bytes_op":   float64(al.ClusterBytes) / n,
				"finalize_allocs_op": float64(al.FinalizeObjs) / n,
				"finalize_bytes_op":  float64(al.FinalizeBytes) / n,
			},
			DNF: res.DNF, Note: parallelismNote(res.DNFReason, w, gmp),
		})
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.2fx\t%.0f\t%.1f\n",
			w, clusterMS, msOf(res.PerStride), speedup,
			float64(al.ClusterObjs)/n, float64(al.ClusterBytes)/n/1024)
	}
	warnOversubscribed(o, tw, gmp)
	return rows, tw.Flush()
}

// connAccum is a pass-through core.Observer that accumulates the
// connectivity-strategy cost columns of FigExt5 while forwarding every
// record to the stride logger (an engine holds a single observer).
type connAccum struct {
	next           core.Observer
	connDur        time.Duration
	forestDur      time.Duration
	connSearches   int64
	connNodes      int64
	forestOps      int64
	replSearches   int64
	forestRebuilds int64
}

// ObserveStride implements core.Observer.
func (a *connAccum) ObserveStride(rec core.StrideRecord) {
	a.connDur += rec.Connectivity
	a.forestDur += rec.ForestUpdate
	a.connSearches += rec.ConnSearches
	a.connNodes += rec.ConnNodes
	a.forestOps += rec.ForestOps
	a.replSearches += rec.ForestReplSearches
	a.forestRebuilds += rec.ForestRebuilds
	if a.next != nil {
		a.next.ObserveStride(rec)
	}
}

// FigExt5 is an extension experiment (not in the paper): the cost of the two
// connectivity strategies — per-stride MS-BFS re-traversal vs the maintained
// dyncon forest — on the DTG analog at a 25% stride, where heavy churn makes
// every stride carry split-candidate connectivity checks. Both strategies are
// exactness-preserving (bit-identical labels, events, and stats), so the
// figure compares only what each one pays: traversal time and searches for
// MS-BFS, forest-sync time and mutation counts for the dynamic forest.
func FigExt5(o Options) ([]Row, error) {
	o.fill()
	dc, err := o.config("dtg")
	if err != nil {
		return nil, err
	}
	stride := ratioStride(dc.Window, 0.25)
	steps, err := o.steps(dc, stride)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		kind     string
		strategy core.ConnStrategy
	}{
		{"disc", core.ConnMSBFS},
		{"disc-dyncon", core.ConnDynamic},
	}
	var rows []Row
	fmt.Fprintf(o.Out, "\n[Fig ext5] %s: connectivity strategy cost (stride=25%%)\n", dc.Label)
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tstride ms\tconn ms\tforest ms\tsearches/stride\tforest ops/stride\trebuilds")
	for _, v := range variants {
		eng := core.New(dc.Cfg, core.WithConnectivity(v.strategy))
		acc := &connAccum{}
		runOpts := o.observed(v.kind, RunOpts{Timeout: o.Timeout})
		acc.next = runOpts.Observer
		runOpts.Observer = acc
		res := Run(eng, steps, runOpts)
		n := float64(res.Strides)
		if n == 0 {
			n = 1
		}
		connMS := msOf(acc.connDur) / n
		forestMS := msOf(acc.forestDur) / n
		rows = append(rows, Row{
			Figure: "ext5", Dataset: dc.Label,
			Param: "strategy=" + v.strategy.String(), Engine: "DISC", Index: res.Index,
			Value: connMS, Unit: "ms",
			Extra: map[string]float64{
				"stride_ms":        msOf(res.PerStride),
				"forest_ms":        forestMS,
				"conn_searches_op": float64(acc.connSearches) / n,
				"conn_nodes_op":    float64(acc.connNodes) / n,
				"forest_ops_op":    float64(acc.forestOps) / n,
				"repl_searches_op": float64(acc.replSearches) / n,
				"forest_rebuilds":  float64(acc.forestRebuilds),
			},
			DNF: res.DNF, Note: res.DNFReason,
		})
		fmt.Fprintf(tw, "%s\t%.1f\t%.3f\t%.3f\t%.0f\t%.0f\t%d\n",
			v.strategy, msOf(res.PerStride), connMS, forestMS,
			float64(acc.connSearches)/n, float64(acc.forestOps)/n, acc.forestRebuilds)
	}
	return rows, tw.Flush()
}

// Fig11 regenerates Figure 11: per-point update latency of DISC vs
// ρ²-DBSCAN (ρ=0.001) across distance thresholds, on Maze and DTG; the
// crossover appears only at thresholds too coarse to be useful.
func Fig11(o Options) ([]Row, error) {
	o.fill()
	sweeps := []struct {
		dataset string
		epses   []float64
	}{
		{"maze", []float64{0.2, 0.4, 0.8, 1.6, 3.2}},
		{"dtg", []float64{0.002, 0.008, 0.032, 0.128, 0.512}},
	}
	engines := []string{paperDISC, "rho2-0.001"}
	var rows []Row
	for _, sw := range sweeps {
		dc, err := o.config(sw.dataset)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(o.Out, "\n[Fig 11] %s: per-point latency (µs) vs eps (stride=5%%)\n", dc.Label)
		tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "eps\tDISC\trho2(0.001)\tclusters(DISC)")
		for _, eps := range sw.epses {
			dcv := dc
			dcv.Cfg.Eps = eps
			stride := ratioStride(dcv.Window, 0.05)
			steps, err := o.steps(dcv, stride)
			if err != nil {
				return nil, err
			}
			line := fmt.Sprintf("%g", eps)
			var clusters int
			for _, kind := range engines {
				eng, err := NewEngine(kind, dcv.Cfg, dcv.Window, stride)
				if err != nil {
					return nil, err
				}
				res := Run(eng, steps, RunOpts{Timeout: o.Timeout})
				if kind == paperDISC {
					clusters = countClusters(eng.Snapshot())
				}
				rows = append(rows, Row{
					Figure: "11", Dataset: dcv.Label,
					Param: fmt.Sprintf("eps=%g", eps), Engine: res.Engine, Index: res.Index,
					Value: usOf(res.PerPoint), Unit: "us/point",
					Extra: map[string]float64{"clusters": float64(clusters)},
					DNF:   res.DNF, Note: res.DNFReason,
				})
				if res.DNF {
					line += "\tDNF"
				} else {
					line += fmt.Sprintf("\t%.1f", usOf(res.PerPoint))
				}
			}
			fmt.Fprintf(tw, "%s\t%d\n", line, clusters)
		}
		tw.Flush()
	}
	return rows, nil
}

// Fig12 regenerates Figure 12: the clusters found by DISC, EDMStream and
// DBSTREAM on Maze and DTG, written as CSV dumps (x, y, cluster) and drawn
// as coarse ASCII rasters.
func Fig12(o Options) ([]Row, error) {
	o.fill()
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	engines := []string{paperDISC, "edmstream", "dbstream"}
	var rows []Row
	for _, dataset := range []string{"maze", "dtg"} {
		dc, err := o.config(dataset)
		if err != nil {
			return nil, err
		}
		stride := ratioStride(dc.Window, 0.05)
		steps, err := o.steps(dc, stride)
		if err != nil {
			return nil, err
		}
		for _, kind := range engines {
			eng, err := NewEngine(kind, dc.Cfg, dc.Window, stride)
			if err != nil {
				return nil, err
			}
			for _, st := range steps {
				eng.Advance(st.In, st.Out)
			}
			snap := eng.Snapshot()
			final := steps[len(steps)-1].Window
			path := filepath.Join(o.OutDir, fmt.Sprintf("fig12_%s_%s.csv", dataset, strings.ToLower(eng.Name())))
			if err := dumpCSV(path, final, snap); err != nil {
				return nil, err
			}
			n := countClusters(snap)
			rows = append(rows, Row{
				Figure: "12", Dataset: dc.Label, Param: "final window", Engine: eng.Name(), Index: indexOf(eng),
				Value: float64(n), Unit: "clusters", Note: path,
			})
			fmt.Fprintf(o.Out, "\n[Fig 12] %s / %s: %d clusters -> %s\n", dc.Label, eng.Name(), n, path)
			raster(o.Out, final, snap, 72, 20)
		}
	}
	return rows, nil
}

func dumpCSV(path string, win []model.Point, snap map[int64]model.Assignment) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "x,y,label,cluster"); err != nil {
		return err
	}
	for _, p := range win {
		a := snap[p.ID]
		if _, err := fmt.Fprintf(f, "%g,%g,%s,%d\n", p.Pos[0], p.Pos[1], a.Label, a.ClusterID); err != nil {
			return err
		}
	}
	return nil
}

// raster draws the window as a w×h character grid: digits/letters encode
// distinct clusters, '.' is noise, ' ' is empty.
func raster(out io.Writer, win []model.Point, snap map[int64]model.Assignment, w, h int) {
	if len(win) == 0 {
		return
	}
	minX, maxX := win[0].Pos[0], win[0].Pos[0]
	minY, maxY := win[0].Pos[1], win[0].Pos[1]
	for _, p := range win {
		minX = math.Min(minX, p.Pos[0])
		maxX = math.Max(maxX, p.Pos[0])
		minY = math.Min(minY, p.Pos[1])
		maxY = math.Max(maxY, p.Pos[1])
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	glyphs := "123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	glyphOf := map[int]byte{}
	cells := make([][]byte, h)
	for i := range cells {
		cells[i] = make([]byte, w)
		for j := range cells[i] {
			cells[i][j] = ' '
		}
	}
	for _, p := range win {
		x := int(float64(w-1) * (p.Pos[0] - minX) / (maxX - minX))
		y := int(float64(h-1) * (p.Pos[1] - minY) / (maxY - minY))
		a := snap[p.ID]
		if a.ClusterID == model.NoCluster {
			if cells[y][x] == ' ' {
				cells[y][x] = '.'
			}
			continue
		}
		g, ok := glyphOf[a.ClusterID]
		if !ok {
			g = glyphs[len(glyphOf)%len(glyphs)]
			glyphOf[a.ClusterID] = g
		}
		cells[y][x] = g
	}
	for i := h - 1; i >= 0; i-- {
		fmt.Fprintf(out, "  %s\n", cells[i])
	}
}

func countClusters(snap map[int64]model.Assignment) int {
	set := map[int]bool{}
	for _, a := range snap {
		if a.ClusterID != model.NoCluster {
			set[a.ClusterID] = true
		}
	}
	return len(set)
}

func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

func speedupOf(base, res RunResult) float64 {
	if res.PerStride <= 0 {
		return 0
	}
	return float64(base.PerStride) / float64(res.PerStride)
}

// Figures maps figure ids to their drivers, for cmd/discbench.
func Figures() map[string]func(Options) ([]Row, error) {
	return map[string]func(Options) ([]Row, error){
		"4": Fig4, "5": Fig5, "6": Fig6, "7": Fig7,
		"8": Fig8, "9": Fig9, "10": Fig10, "11": Fig11, "12": Fig12,
		"ext1": FigExt1, "ext2": FigExt2, "ext3": FigExt3, "ext4": FigExt4,
		"ext5": FigExt5,
	}
}

// FigureIDs returns the figure ids in presentation order.
func FigureIDs() []string {
	return []string{"4", "5", "6", "7", "8", "9", "10", "11", "12", "ext1", "ext2", "ext3", "ext4", "ext5"}
}
