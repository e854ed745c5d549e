package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"disc/internal/datasets"
	"disc/internal/dbscan"
	"disc/internal/geom"
	"disc/internal/model"
)

// tiny is a workload small enough for the unit tests: it has everything the
// real ones have (two writers, sequenced batches, duplicates) at a size that
// sets up and runs in about a second.
var tiny = &workload{
	name: "tiny", why: "test", gen: datasets.Maze,
	cfg:    model.Config{Dims: 2, Eps: 0.6, MinPts: 4},
	window: 600, stride: 60, batch: 20, writers: 2, withSeq: true, dupShare: 0.05,
	capPointsPerS: 60000, ledgerStrides: 5,
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{xs, 0, 1}, {xs, 50, 3}, {xs, 100, 5}, {xs, 25, 2}, {xs, 90, 4.6},
		{[]float64{7}, 95, 7},
		{[]float64{1, 2}, 50, 1.5},
		{xs, -3, 1}, {xs, 250, 5},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) gives.
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10, 12, 11, 13, 9, 14, 10.5, 11.5, 12.5, 13.5}, 0.23404255319148937},
		{[]float64{5, 5.1, 4.9}, 0.04},
		{[]float64{2, 4}, 1.0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPacer(t *testing.T) {
	start := time.Unix(1000, 0)
	const interval = 10 * time.Millisecond
	for _, c := range []struct {
		name      string
		n         int
		clock     time.Duration // time since start when wait is called
		wantSleep time.Duration
		wantLate  time.Duration
	}{
		{"early: sleeps up to the due instant", 3, 12 * time.Millisecond, 18 * time.Millisecond, 0},
		{"on time", 3, 30 * time.Millisecond, 0, 0},
		{"late: no sleep, lateness reported", 3, 47 * time.Millisecond, 0, 17 * time.Millisecond},
		{"a late send does not shift the schedule", 4, 47 * time.Millisecond, 0, 7 * time.Millisecond},
		{"first send is due at the start", 0, 0, 0, 0},
	} {
		now := start.Add(c.clock)
		var slept time.Duration
		p := pacer{start: start, interval: interval,
			now:   func() time.Time { return now },
			sleep: func(d time.Duration) { slept += d; now = now.Add(d) }}
		due, late := p.wait(c.n)
		if want := start.Add(time.Duration(c.n) * interval); !due.Equal(want) {
			t.Errorf("%s: due %v, want %v", c.name, due, want)
		}
		if slept != c.wantSleep || late != c.wantLate {
			t.Errorf("%s: slept %v late %v, want %v and %v", c.name, slept, late, c.wantSleep, c.wantLate)
		}
	}
}

// oracleFixture is two dense blobs 1.1 apart with one point between them
// that is a border of both, plus one far noise point.
func oracleFixture() ([]model.Point, model.Config) {
	cfg := model.Config{Dims: 2, Eps: 0.5, MinPts: 4}
	var pts []model.Point
	add := func(x, y float64) {
		pts = append(pts, model.Point{ID: int64(len(pts)), Pos: geom.NewVec(x, y)})
	}
	for _, cx := range []float64{0, 1.1} {
		for _, d := range [][2]float64{{0, 0}, {0.1, 0}, {0, 0.1}, {-0.1, 0}, {0, -0.1}} {
			add(cx+d[0], d[1])
		}
	}
	add(0.55, 0) // id 10: within eps of each blob's nearest point only
	add(9, 9)    // id 11: noise
	return pts, cfg
}

func TestVerifyExact(t *testing.T) {
	pts, cfg := oracleFixture()
	ref := dbscan.Run(pts, cfg)
	if ref[10].Label != model.Border || ref[11].Label != model.Noise || ref[0].ClusterID == ref[5].ClusterID {
		t.Fatalf("fixture is not what the cases assume: %v", ref)
	}
	other := func(cid int) int { // the other blob's cluster id
		if cid == ref[0].ClusterID {
			return ref[5].ClusterID
		}
		return ref[0].ClusterID
	}
	for _, c := range []struct {
		name   string
		mutate func(got map[int64]served)
		ok     bool
	}{
		{"identical", func(map[int64]served) {}, true},
		{"clusters renamed", func(got map[int64]served) {
			for id, s := range got {
				if s.Cluster != 0 {
					s.Cluster += 100
					got[id] = s
				}
			}
		}, true},
		{"border attached to its other adjacent cluster", func(got map[int64]served) {
			s := got[10]
			s.Cluster = other(s.Cluster)
			got[10] = s
		}, true},
		{"one label corrupted", func(got map[int64]served) {
			s := got[3]
			s.Label = "border"
			got[3] = s
		}, false},
		{"one core moved to the other cluster", func(got map[int64]served) {
			s := got[3]
			s.Cluster = other(s.Cluster)
			got[3] = s
		}, false},
		{"two clusters served as one", func(got map[int64]served) {
			for id, s := range got {
				if s.Cluster != 0 {
					s.Cluster = 1
					got[id] = s
				}
			}
		}, false},
		{"border in a cluster it does not touch", func(got map[int64]served) {
			s := got[10]
			s.Cluster = 77
			got[10] = s
		}, false},
		{"noise given a cluster", func(got map[int64]served) {
			s := got[11]
			s.Cluster = got[0].Cluster
			got[11] = s
		}, false},
		{"resident point not served", func(got map[int64]served) { delete(got, 4) }, false},
	} {
		got := map[int64]served{}
		for id, a := range ref {
			got[id] = served{Label: a.Label.String(), Cluster: a.ClusterID}
		}
		c.mutate(got)
		bad := verifyExact(pts, got, cfg)
		if (len(bad) == 0) != c.ok {
			t.Errorf("%s: verifyExact reported %v, want ok=%v", c.name, bad, c.ok)
		}
	}
}

func TestUntracedTiny(t *testing.T) {
	res, err := runUntraced(tiny, 1, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || !(m.Value > 0) || m.Unit != d.unit {
			t.Errorf("metric %s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("run reported %d metrics, the table declares %d", len(res.Metrics), len(endToEnd))
	}
}

// The engine's work counts and the log's bytes per batch must be bit-equal
// across two runs of one seed: they are what a later change may cite as a
// count rather than a time.
func TestTracedRepeatsExactly(t *testing.T) {
	a, err := runTraced(tiny, 7, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTraced(tiny, 7, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Correct || !b.Correct {
		t.Fatalf("failures: %v %v", a.Failures, b.Failures)
	}
	if a.StreamHash != b.StreamHash {
		t.Errorf("one seed, two streams: %s and %s", a.StreamHash, b.StreamHash)
	}
	for _, name := range []string{"core.range_searches", "core.node_accesses", "core.conn_checks",
		"dyncon.forest_ops", "ckpt.wal_bytes_per_batch"} {
		if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
			t.Errorf("%s: %v then %v, want equal and non-zero", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	for _, d := range perLayer {
		if m, ok := a.Metrics[d.name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
			t.Errorf("metric %s = %+v (present %v), want a finite value in %s", d.name, m, ok, d.unit)
		}
	}
	if len(a.Metrics) != len(perLayer) {
		t.Errorf("run reported %d metrics, the table declares %d", len(a.Metrics), len(perLayer))
	}
	if other := streamHash(tiny.cfg.Dims, generate(tiny, subSeed(8, 0), time.Second)); other == a.StreamHash {
		t.Error("two seeds, one stream")
	}
}

// corruptOne rewrites the label in the answers for one point id (the first
// core it sees), leaving everything else the server says intact.
type corruptOne struct {
	h      http.Handler
	mu     sync.Mutex
	victim string
}

func (c *corruptOne) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/points/") {
		c.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	c.mu.Lock()
	if rec.Code == http.StatusOK && bytes.Contains(body, []byte(`"label":"core"`)) && (c.victim == "" || c.victim == r.URL.Path) {
		c.victim = r.URL.Path
		body = bytes.Replace(body, []byte(`"label":"core"`), []byte(`"label":"noise"`), 1)
	}
	c.mu.Unlock()
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

func TestCorruptedLabelFailsTheCommand(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the command refuses to run on one core")
	}
	workloads = append(workloads, tiny)
	wrapHandler = func(h http.Handler) http.Handler { return &corruptOne{h: h} }
	defer func() {
		workloads = workloads[:len(workloads)-1]
		wrapHandler = nil
	}()
	stdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	err := run("tiny", 1, 1, 0, 1, t.TempDir())
	os.Stdout = stdout
	if err == nil || !strings.Contains(err.Error(), "not correct") {
		t.Fatalf("run with one corrupted label returned %v, want the not-correct error", err)
	}
}

func TestBenchmarkJSONInSync(t *testing.T) {
	file, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the metric tables: regenerate it with `bash benchmarks/e2e/run.sh -describe > BENCHMARK.json`")
	}
}
