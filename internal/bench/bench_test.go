package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"disc/internal/core"
	"disc/internal/metrics"
	"disc/internal/model"
	"disc/internal/trace"
	"disc/internal/window"
)

// small returns Options tuned for fast tests.
func small() Options {
	return Options{
		Out:     &bytes.Buffer{},
		Scale:   0.2,
		Strides: 4,
		Timeout: 30 * time.Second,
	}
}

func TestDefaultsCoverEvalDatasets(t *testing.T) {
	for _, name := range EvalDatasets() {
		dc, err := Defaults(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := dc.Cfg.Validate(); err != nil {
			t.Errorf("%s: invalid config: %v", name, err)
		}
		if dc.Window <= 0 {
			t.Errorf("%s: bad window", name)
		}
	}
	if _, err := Defaults("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestScaled(t *testing.T) {
	dc, _ := Defaults("dtg")
	half := dc.Scaled(0.5)
	if half.Window != dc.Window/2 {
		t.Errorf("window not scaled: %d", half.Window)
	}
	if half.Cfg.MinPts >= dc.Cfg.MinPts {
		t.Errorf("DTG minPts must scale with window: %d", half.Cfg.MinPts)
	}
	tiny := dc.Scaled(0.000001)
	if tiny.Window < 100 || tiny.Cfg.MinPts < 3 {
		t.Errorf("floors not applied: %+v", tiny)
	}
	g, _ := Defaults("geolife")
	if g.Scaled(0.5).Cfg.MinPts != g.Cfg.MinPts {
		t.Error("non-DTG minPts must not scale")
	}
}

func TestNewEngineKinds(t *testing.T) {
	dc, _ := Defaults("covid")
	for _, kind := range EngineKinds() {
		eng, err := NewEngine(kind, dc.Cfg, 1000, 100)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if eng.Name() == "" {
			t.Errorf("%s: empty name", kind)
		}
		// The server's engine runs on the grid; the paper's substrate and
		// its Fig. 8 ablation variants on the R-tree.
		wantIndex := map[string]string{
			"disc": "grid", "disc-par": "grid", "disc-dyncon": "grid",
			"disc-rtree": "rtree", "disc-nomsbfs": "rtree", "disc-noepoch": "rtree", "disc-plain": "rtree",
		}[kind]
		if got := indexOf(eng); got != wantIndex {
			t.Errorf("%s: index %q, want %q", kind, got, wantIndex)
		}
	}
	if _, err := NewEngine("bogus", dc.Cfg, 1000, 100); err == nil {
		t.Error("bogus engine kind accepted")
	}
}

func TestRatioStrideDividesWindow(t *testing.T) {
	for _, win := range []int{100, 4000, 20000, 12345} {
		for _, ratio := range []float64{0.001, 0.01, 0.05, 0.10, 0.25, 1} {
			s := ratioStride(win, ratio)
			if s < 1 || s > win {
				t.Fatalf("ratioStride(%d, %g) = %d out of range", win, ratio, s)
			}
			if win%s != 0 {
				t.Fatalf("ratioStride(%d, %g) = %d does not divide", win, ratio, s)
			}
		}
	}
}

func TestRunTimeoutDNF(t *testing.T) {
	dc, _ := Defaults("covid")
	dc = dc.Scaled(0.2)
	stride := ratioStride(dc.Window, 0.25)
	o := small()
	steps, err := o.steps(dc, stride)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := NewEngine("dbscan", dc.Cfg, dc.Window, stride)
	res := Run(eng, steps, RunOpts{Timeout: 1 * time.Nanosecond})
	if !res.DNF || !strings.Contains(res.DNFReason, "timeout") {
		t.Fatalf("expected timeout DNF, got %+v", res)
	}
}

func TestRunMemoryCapDNF(t *testing.T) {
	dc, _ := Defaults("covid")
	dc = dc.Scaled(0.2)
	stride := ratioStride(dc.Window, 0.25)
	o := small()
	steps, err := o.steps(dc, stride)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := NewEngine("extran", dc.Cfg, dc.Window, stride)
	res := Run(eng, steps, RunOpts{MemoryCap: 1})
	if !res.DNF || !strings.Contains(res.DNFReason, "memory") {
		t.Fatalf("expected memory DNF, got %+v", res)
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	o := small()
	o.Out = &buf
	if err := Table2(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DTG", "GeoLife", "COVID-19", "IRIS"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %s", want)
		}
	}
}

// TestFig7Shape asserts the deterministic search-count ordering the paper
// reports: DISC <= IncDBSCAN <= DBSCAN on every dataset.
func TestFig7Shape(t *testing.T) {
	rows, err := Fig7(small())
	if err != nil {
		t.Fatal(err)
	}
	perDataset := map[string]map[string]float64{}
	for _, r := range rows {
		if r.Figure != "7a" {
			continue
		}
		if perDataset[r.Dataset] == nil {
			perDataset[r.Dataset] = map[string]float64{}
		}
		perDataset[r.Dataset][r.Engine] = r.Value
	}
	if len(perDataset) != 4 {
		t.Fatalf("7a covers %d datasets, want 4", len(perDataset))
	}
	for ds, m := range perDataset {
		if !(m["DISC"] <= m["IncDBSCAN"] && m["IncDBSCAN"] <= m["DBSCAN"]) {
			t.Errorf("%s: search ordering violated: %+v", ds, m)
		}
	}
	// 7b: DISC's relative searches must stay below 1 (it beats DBSCAN).
	for _, r := range rows {
		if r.Figure == "7b" && r.Engine == "DISC" && r.Param != "stride=25%" && r.Value >= 1 {
			t.Errorf("7b: DISC relative searches %.3f >= 1 at %s", r.Value, r.Param)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("Fig8 rows = %d, want 16 (4 datasets x 4 variants)", len(rows))
	}
	for _, r := range rows {
		if r.Index != "rtree" {
			t.Fatalf("paper figure row ran on index %q, want the pinned R-tree: %+v", r.Index, r)
		}
	}
	// Counted work, not time: on every dataset each MS-BFS variant runs
	// fewer connectivity searches, touching fewer index nodes, than the
	// variant that differs from it only by the MS-BFS switch.
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.Param] = r
	}
	for _, ds := range []string{"DTG", "GeoLife", "COVID-19", "IRIS"} {
		for msbfs, plain := range map[string]string{"both": "epoch only", "MS-BFS only": "neither"} {
			with, without := byKey[ds+"/"+msbfs], byKey[ds+"/"+plain]
			for _, k := range []string{"conn_searches", "conn_nodes"} {
				if !(with.Extra[k] < without.Extra[k]) {
					t.Errorf("%s: %s %s = %.1f, not below %s's %.1f", ds, msbfs, k, with.Extra[k], plain, without.Extra[k])
				}
			}
		}
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("quality figure skipped in -short mode")
	}
	o := small()
	o.Strides = 6
	rows, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	// DISC must dominate the summarization engines on ARI at every window.
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Param+"/"+r.Engine] = r.Value
	}
	for _, r := range rows {
		if r.Engine != "DISC" {
			continue
		}
		if r.Value < 0.9 {
			t.Errorf("DISC ARI %.3f < 0.9 at %s", r.Value, r.Param)
		}
		for _, summ := range []string{"DBSTREAM", "EDMStream"} {
			if byKey[r.Param+"/"+summ] > r.Value {
				t.Errorf("%s beats DISC on ARI at %s", summ, r.Param)
			}
		}
	}
}

func TestFig12WritesArtifacts(t *testing.T) {
	o := small()
	o.OutDir = t.TempDir()
	rows, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Fig12 rows = %d, want 6 (2 datasets x 3 engines)", len(rows))
	}
	files, _ := filepath.Glob(filepath.Join(o.OutDir, "fig12_*.csv"))
	if len(files) != 6 {
		t.Fatalf("found %d CSV dumps, want 6", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x,y,label,cluster\n") {
		t.Error("CSV dump missing header")
	}
}

func TestFig4SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("timing figure skipped in -short mode")
	}
	o := small()
	o.Strides = 3
	rows, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	// 4 datasets x 5 ratios x 3 engines.
	if len(rows) != 60 {
		t.Fatalf("Fig4 rows = %d, want 60", len(rows))
	}
	// At the smallest stride, DISC must do less work than from-scratch
	// DBSCAN: counted in range searches per stride, not timed.
	for _, r := range rows {
		if r.Engine == "DISC" && r.Param == "stride=0.1%" && !r.DNF &&
			!(r.Extra["range_searches"] < r.Extra["dbscan_range_searches"]) {
			t.Errorf("%s: DISC %.1f range searches per stride, not below DBSCAN's %.1f at 0.1%% stride",
				r.Dataset, r.Extra["range_searches"], r.Extra["dbscan_range_searches"])
		}
	}
}

func TestQualityHelper(t *testing.T) {
	dc, _ := Defaults("maze")
	dc = dc.Scaled(0.1)
	stride := ratioStride(dc.Window, 0.10)
	ds, err := dc.Stream(stride, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := small()
	steps, err := o.steps(dc, stride)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := NewEngine("disc", dc.Cfg, dc.Window, stride)
	ari, samples := Quality(eng, steps, 1, func(_ int, win []model.Point) map[int64]int {
		t := make(map[int64]int, len(win))
		for _, p := range win {
			t[p.ID] = ds.Truth[p.ID]
		}
		return t
	})
	if samples == 0 {
		t.Fatal("no quality samples")
	}
	if ari < 0.9 {
		t.Errorf("DISC ARI on maze = %.3f", ari)
	}
}

func TestWriteRowsCSV(t *testing.T) {
	rows := []Row{
		{Figure: "4", Dataset: "DTG", Param: "stride=5%", Engine: "DISC", Index: "rtree", Value: 2.5, Unit: "x"},
		{Figure: "9", Dataset: "Maze", Param: "window=8000", Engine: "DBSTREAM", Value: 0.3, Unit: "ARI",
			Extra: map[string]float64{"latency_us": 1.6}, DNF: false},
		{Figure: "5", Dataset: "DTG", Param: "window=80000", Engine: "EXTRA-N", Value: 0, Unit: "x",
			DNF: true, Note: "memory cap exceeded"},
	}
	path := filepath.Join(t.TempDir(), "rows.csv")
	if err := WriteRowsCSV(path, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.HasPrefix(out, "figure,dataset,param,engine,value,unit,dnf,note,index,latency_us\n") {
		t.Fatalf("bad header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	if !strings.Contains(out, "9,Maze,window=8000,DBSTREAM,0.3,ARI,false,,,1.6") {
		t.Fatalf("missing extra column row:\n%s", out)
	}
	if !strings.Contains(out, "memory cap exceeded") {
		t.Fatal("DNF note lost")
	}
	if c := strings.Count(strings.TrimSpace(out), "\n"); c != 3 {
		t.Fatalf("line count %d, want 3 data lines + header", c)
	}
}

// TestWorkersExactOnAllDatasets pins the tentpole acceptance criterion on
// every built-in dataset generator: a WithWorkers(8) engine must produce a
// clustering identical to the sequential engine at every stride — both as an
// exact per-point snapshot and through the SameClustering oracle.
func TestWorkersExactOnAllDatasets(t *testing.T) {
	for _, name := range append(EvalDatasets(), "maze") {
		t.Run(name, func(t *testing.T) {
			dc, err := Defaults(name)
			if err != nil {
				t.Fatal(err)
			}
			dc = dc.Scaled(0.05)
			stride := ratioStride(dc.Window, 0.25)
			ds, err := dc.Stream(stride, 4)
			if err != nil {
				t.Fatal(err)
			}
			steps, err := window.Steps(ds.Points, dc.Window, stride)
			if err != nil {
				t.Fatal(err)
			}
			seq := core.New(dc.Cfg)
			par := core.New(dc.Cfg, core.WithWorkers(8))
			for i, st := range steps {
				seq.Advance(st.In, st.Out)
				par.Advance(st.In, st.Out)
				want, got := seq.Snapshot(), par.Snapshot()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: parallel snapshot differs from sequential", i)
				}
				if err := metrics.SameClustering(got, want, st.Window, dc.Cfg); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
		})
	}
}

func TestStrideLogger(t *testing.T) {
	var jsonl bytes.Buffer
	lg := NewStrideLogger(&jsonl)
	o := small()
	o.StrideLog = lg
	o.fill()
	lg.SetFigure("ext1")
	dc, err := o.config("dtg")
	if err != nil {
		t.Fatal(err)
	}
	stride := dc.Window / 10
	steps, err := o.steps(dc, stride)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.runKind("disc", dc.Cfg, dc.Window, stride, steps, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	if lg.Lines() == 0 {
		t.Fatal("stride logger recorded no strides")
	}
	// Every line is valid JSON with the identifying context and sane timings.
	dec := json.NewDecoder(&jsonl)
	lines := 0
	for dec.More() {
		var rec StrideLogRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
		if rec.Figure != "ext1" || rec.Engine == "" || rec.Index != "grid" {
			t.Fatalf("line %d missing context: %+v", lines, rec)
		}
		if rec.Stride == 0 || rec.TotalMS <= 0 || rec.Window <= 0 {
			t.Fatalf("line %d implausible: %+v", lines, rec)
		}
	}
	if lines != lg.Lines() {
		t.Fatalf("decoded %d lines, logger counted %d", lines, lg.Lines())
	}
	sum := lg.Summary()
	if sum == nil || sum.Strides != lines {
		t.Fatalf("summary %+v, want %d strides", sum, lines)
	}
	if sum.P50MS <= 0 || sum.P50MS > sum.P95MS || sum.P95MS > sum.MaxMS {
		t.Fatalf("percentiles out of order: %+v", sum)
	}
}

// TestStrideLoggerNilWriter covers the percentiles-only mode used when
// -stridelog is absent but a latency summary is still wanted.
func TestStrideLoggerNilWriter(t *testing.T) {
	lg := NewStrideLogger(nil)
	lg.ObserveStride(core.StrideRecord{Stride: 1, Total: 5 * time.Millisecond})
	lg.ObserveStride(core.StrideRecord{Stride: 2, Total: 10 * time.Millisecond})
	if lg.Lines() != 0 {
		t.Fatalf("nil-writer logger wrote %d lines", lg.Lines())
	}
	sum := lg.Summary()
	if sum == nil || sum.Strides != 2 || sum.MaxMS < 9.9 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestStrideLoggerTraceStamping drives a DISC run with a tracer attached
// and checks that stride-log records carry the trace ids of their recorded
// span trees, gated by the logger's latency threshold.
func TestStrideLoggerTraceStamping(t *testing.T) {
	var jsonl bytes.Buffer
	lg := NewStrideLogger(&jsonl)
	o := small()
	o.StrideLog = lg
	o.Tracer = trace.NewTracer(trace.Config{})
	o.fill()
	dc, err := o.config("dtg")
	if err != nil {
		t.Fatal(err)
	}
	stride := dc.Window / 10
	steps, err := o.steps(dc, stride)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.runKind("disc", dc.Cfg, dc.Window, stride, steps, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	// Threshold zero: every traced stride is stamped with a 32-hex id.
	dec := json.NewDecoder(&jsonl)
	for dec.More() {
		var rec StrideLogRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.TraceID) != 32 {
			t.Fatalf("stride %d trace id %q is not 32 hex chars", rec.Stride, rec.TraceID)
		}
	}

	// An unreachable threshold suppresses stamping even when traced.
	lg.SetTraceThreshold(time.Hour)
	jsonl.Reset()
	lg.ObserveStride(core.StrideRecord{Stride: 99, Total: time.Millisecond, TraceID: strings.Repeat("ab", 16)})
	var rec StrideLogRecord
	if err := json.NewDecoder(&jsonl).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.TraceID != "" {
		t.Fatalf("trace id %q stamped below threshold", rec.TraceID)
	}
}
