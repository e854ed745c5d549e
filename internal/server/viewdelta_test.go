package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"disc/internal/ckpt"
	"disc/internal/core"
	"disc/internal/datasets"
	"disc/internal/geom"
	"disc/internal/model"
)

// This file checks incremental publication (view.go) against the rebuild it
// replaced. The oracle below is that rebuild, kept verbatim: a fresh engine
// Snapshot, a from-scratch census, a full sort, reflection-encoded bodies.

type clusterSummary struct {
	ID      int `json:"id"`
	Size    int `json:"size"`
	Cores   int `json:"cores"`
	Borders int `json:"borders"`
}

type clustersResponse struct {
	Strides  uint64           `json:"strides"`
	Window   int              `json:"window"`
	Noise    int              `json:"noise"`
	Clusters []clusterSummary `json:"clusters"`
}

// oracleBodies is what every GET endpoint must serve for the server's
// current engine state.
type oracleBodies struct {
	clusters, stats, events []byte
	points                  map[int64][]byte
}

func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rebuildOracle materializes the service state from scratch. The server must
// be quiescent.
func rebuildOracle(t testing.TB, s *Server) oracleBodies {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.eng.Snapshot()
	stats := s.eng.Stats()
	strides := uint64(stats.Strides)
	byID := map[int]*clusterSummary{}
	noise := 0
	for _, a := range snap {
		if a.ClusterID == model.NoCluster {
			noise++
			continue
		}
		cs := byID[a.ClusterID]
		if cs == nil {
			cs = &clusterSummary{ID: a.ClusterID}
			byID[a.ClusterID] = cs
		}
		cs.Size++
		if a.Label == model.Core {
			cs.Cores++
		} else {
			cs.Borders++
		}
	}
	cr := clustersResponse{Strides: strides, Window: len(snap), Noise: noise}
	for _, cs := range byID {
		cr.Clusters = append(cr.Clusters, *cs)
	}
	sort.Slice(cr.Clusters, func(i, j int) bool {
		if cr.Clusters[i].Size != cr.Clusters[j].Size {
			return cr.Clusters[i].Size > cr.Clusters[j].Size
		}
		return cr.Clusters[i].ID < cr.Clusters[j].ID
	})
	events := append([]eventRecord{}, s.events...)
	o := oracleBodies{
		clusters: encodeJSON(t, cr),
		stats: encodeJSON(t, statsResponse{
			Config:    s.cfg.Cluster,
			Window:    s.cfg.Window,
			Stride:    s.cfg.Stride,
			Ingested:  s.ingested - uint64(len(s.slider.Pending())), // as of the stride boundary
			Resident:  len(snap),
			Stats:     stats,
			EventSeq:  s.eventSeq,
			EventKept: len(events),
		}),
		events: encodeJSON(t, events),
		points: make(map[int64][]byte, len(snap)),
	}
	for id, a := range snap {
		o.points[id] = encodeJSON(t, pointResponse{ID: id, Label: a.Label.String(), Cluster: a.ClusterID})
	}
	return o
}

// viewBodies renders the same bodies from one pinned view, through the
// handlers the mux routes to.
type viewBodies struct {
	v *publishedView
	s *Server
}

func (vb viewBodies) get(t testing.TB, h func(*publishedView, http.ResponseWriter, *http.Request), pointID string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	if pointID != "" {
		req.SetPathValue("id", pointID)
	}
	rec := httptest.NewRecorder()
	h(vb.v, rec, req)
	return rec.Code, rec.Body.Bytes()
}

// check requires the view to serve exactly the oracle's bodies: /clusters,
// /stats, /events, every resident point, and 404 for the departed ids.
func (vb viewBodies) check(t testing.TB, want oracleBodies, departed []int64, when string) {
	t.Helper()
	for _, ep := range []struct {
		name string
		h    func(*publishedView, http.ResponseWriter, *http.Request)
		want []byte
	}{
		{"/clusters", vb.s.handleClusters, want.clusters},
		{"/stats", vb.s.handleStats, want.stats},
		{"/events", vb.s.handleEvents, want.events},
	} {
		if code, got := vb.get(t, ep.h, ""); code != http.StatusOK || !bytes.Equal(got, ep.want) {
			t.Fatalf("%s: %s diverged from the rebuild (status %d):\n got %s\nwant %s", when, ep.name, code, got, ep.want)
		}
	}
	for id, w := range want.points {
		if code, got := vb.get(t, vb.s.handlePoint, strconv.FormatInt(id, 10)); code != http.StatusOK || !bytes.Equal(got, w) {
			t.Fatalf("%s: /points/%d diverged from the rebuild (status %d):\n got %s\nwant %s", when, id, code, got, w)
		}
	}
	if got := vb.v.stats.Resident; got != len(want.points) {
		t.Fatalf("%s: view holds %d points, rebuild %d", when, got, len(want.points))
	}
	for _, id := range departed {
		if _, resident := want.points[id]; resident {
			continue
		}
		if code, _ := vb.get(t, vb.s.handlePoint, strconv.FormatInt(id, 10)); code != http.StatusNotFound {
			t.Fatalf("%s: departed point %d answered %d, want 404", when, id, code)
		}
	}
}

func checkView(t testing.TB, s *Server, departed []int64, when string) {
	t.Helper()
	viewBodies{s.view.Load(), s}.check(t, rebuildOracle(t, s), departed, when)
}

// newDeltaServer is New with the engine's worker count set, which Config
// deliberately does not expose. A restore (restoreSelf) puts the server back
// on the engine it builds itself, with one worker.
func newDeltaServer(t testing.TB, cfg Config, workers int) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.eng = core.New(cfg.Cluster, append(s.engineOptions(), core.WithWorkers(workers))...)
	s.publish()
	return s
}

func toIngest(pts []model.Point, dims int) []ingestPoint {
	out := make([]ingestPoint, len(pts))
	for i, p := range pts {
		out[i] = ingestPoint{ID: p.ID, Time: p.Time, Coords: append([]float64(nil), p.Pos[:dims]...)}
	}
	return out
}

func ingest(t testing.TB, h http.Handler, pts []ingestPoint) {
	t.Helper()
	body, _ := json.Marshal(pts)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
	}
}

// driveStream feeds pts one stride per POST and checks the view after every
// stride. after, when set, runs between strides (restore, etc.).
func driveStream(t testing.TB, s *Server, pts []model.Point, after func(stride int)) {
	t.Helper()
	h := s.Handler()
	dims, win, stride := s.cfg.Cluster.Dims, s.cfg.Window, s.cfg.Stride
	for lo, n := 0, 0; lo < len(pts); n++ {
		hi := lo + stride
		if lo == 0 {
			hi = win
		}
		if hi > len(pts) {
			break
		}
		ingest(t, h, toIngest(pts[lo:hi], dims))
		// Departed sample: the ids that just left, two from long ago and one
		// that never existed (check skips any that are still resident).
		departed := []int64{pts[0].ID, pts[lo/2].ID, -7}
		for _, p := range pts[max(0, hi-win-stride):max(0, hi-win)] {
			departed = append(departed, p.ID)
		}
		checkView(t, s, departed, fmt.Sprintf("stride %d", n+1))
		if after != nil {
			after(n + 1)
		}
		lo = hi
	}
}

// restoreSelf round-trips the server through its own checkpoint, the
// POST /checkpoint path.
func restoreSelf(t testing.TB, s *Server) {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
}

// deltaCorpus is the differential corpus of the connectivity-strategy tests
// (internal/core), one entry per bundled dataset generator.
var deltaCorpus = map[string]struct {
	window int
	cfg    model.Config
}{
	"dtg":     {2000, model.Config{Dims: 2, Eps: 0.002, MinPts: 4}},
	"geolife": {800, model.Config{Dims: 3, Eps: 0.01, MinPts: 7}},
	"covid":   {1000, model.Config{Dims: 2, Eps: 1.2, MinPts: 5}},
	"iris":    {1000, model.Config{Dims: 4, Eps: 2, MinPts: 9}},
	"maze":    {1200, model.Config{Dims: 2, Eps: 0.6, MinPts: 4}},
}

// TestViewDeltaMatchesRebuild: after every stride, on every dataset of the
// differential corpus, one and four workers, the incrementally maintained
// view serves byte for byte what a rebuild
// from the engine's Snapshot would — across a mid-stream checkpoint restore,
// a compaction stride, a multi-cut split, WAL replay and a follower.
func TestViewDeltaMatchesRebuild(t *testing.T) {
	setForTest(t, &eventLogCap, 1<<20) // count keeps every event
	seen := map[string]int{}
	count := func(s *Server) {
		for _, ev := range s.events {
			seen[ev.Type]++
		}
	}
	for _, name := range datasets.Names() {
		dc, ok := deltaCorpus[name]
		if !ok {
			t.Fatalf("dataset %q has no differential config; add one", name)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				stride := dc.window / 20
				if testing.Short() {
					stride = dc.window / 4
				}
				ds, err := datasets.ByName(name, dc.window+stride*24, 42)
				if err != nil {
					t.Fatal(err)
				}
				s := newDeltaServer(t, Config{Cluster: dc.cfg, Window: dc.window, Stride: stride}, workers)
				driveStream(t, s, ds.Points, func(n int) {
					if n == 9 {
						count(s) // a restore clears the log
						restoreSelf(t, s)
						checkView(t, s, nil, "after restore")
					}
				})
				count(s)
			})
		}
	}

	// The high-resolution maze of the benchmark's hires workload: thousands
	// of small clusters, so mergers, splits and dissipations every few
	// strides, borders re-homed by both.
	t.Run("hires", func(t *testing.T) {
		cfg := Config{Cluster: model.Config{Dims: 2, Eps: 0.15, MinPts: 4}, Window: 6000, Stride: 40}
		s := newDeltaServer(t, cfg, 1)
		driveStream(t, s, datasets.Maze(cfg.Window+60*cfg.Stride, 7).Points, nil)
		count(s)
	})

	// TestMultiCutSplitRegression's stream (internal/core): a chain severed
	// at two places in one stride. The two cut points arrive first so the
	// count-based window evicts exactly them.
	t.Run("multicut", func(t *testing.T) {
		mk := func(id int64, x float64) model.Point { return model.Point{ID: id, Pos: geom.NewVec(x, 0)} }
		pts := []model.Point{
			mk(2, 0.9), mk(4, 2.7), // e1, e2
			mk(1, 0.0), mk(3, 1.8), mk(5, 3.6), // A, B, C
			mk(6, 50), mk(7, 60),
		}
		s := newDeltaServer(t, Config{Cluster: model.Config{Dims: 2, Eps: 1, MinPts: 1}, Window: 5, Stride: 2}, 1)
		driveStream(t, s, pts, nil)
		var cr clustersResponse
		if err := json.Unmarshal(rebuildOracle(t, s).clusters, &cr); err != nil {
			t.Fatal(err)
		}
		if len(cr.Clusters) != 5 {
			t.Fatalf("%d clusters after the double cut, want 5 singletons", len(cr.Clusters))
		}
		count(s)
	})

	// Across the engine's cid compaction (every 1024th stride rewrites all
	// raw cids and empties the forest) and for a while after it.
	t.Run("compaction", func(t *testing.T) {
		if testing.Short() {
			t.Skip("1100 strides")
		}
		rng := rand.New(rand.NewSource(17))
		pts := make([]model.Point, 200+2*1100)
		for i := range pts {
			c := float64(rng.Intn(6)) * 7
			pts[i] = model.Point{ID: int64(i), Pos: geom.NewVec(c+rng.NormFloat64()*2, c+rng.NormFloat64()*2)}
		}
		s := newDeltaServer(t, Config{Cluster: model.Config{Dims: 2, Eps: 1.2, MinPts: 5}, Window: 200, Stride: 2}, 1)
		driveStream(t, s, pts, nil)
		if got := s.view.Load().strides; got < 1100 {
			t.Fatalf("only %d strides ran; the compaction boundary at 1024 was not crossed", got)
		}
		if len(s.vs.renames) > 40 {
			t.Fatalf("rename map holds %d cids 76 strides after a compaction; it is not being reset", len(s.vs.renames))
		}
	})

	// WAL replay (record by record, the loop replayWAL runs) and a live
	// follower: both publish through applyRecord.
	t.Run("wal-replay", func(t *testing.T) {
		cfg := Config{Cluster: model.Config{Dims: 2, Eps: 0.6, MinPts: 4}, Window: 600, Stride: 30}
		ts, leader, dir := newWALServer(t, cfg)
		f, err := NewFollower(FollowerConfig{Server: cfg, WALDir: dir, Poll: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		runDone := make(chan error, 1)
		go func() { runDone <- f.Run(ctx) }()

		pts := datasets.Maze(cfg.Window+40*cfg.Stride+11, 3).Points
		for lo := 0; lo < len(pts); lo += 47 { // straddles stride boundaries
			body, _ := json.Marshal(toIngest(pts[lo:min(lo+47, len(pts))], 2))
			resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest at %d: status %d", lo, resp.StatusCode)
			}
		}
		checkView(t, leader, nil, "leader")
		want := rebuildOracle(t, leader)

		replayed, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := ckpt.OpenWALReader(dir, 0, replayed.walRecordMaxPayload())
		defer r.Close()
		for n := 0; ; n++ {
			_, payload, err := r.Next()
			if errors.Is(err, ckpt.ErrWALWait) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rec, err := decodeWALRecord(payload, cfg.Cluster.Dims)
			if err != nil {
				t.Fatal(err)
			}
			replayed.mu.Lock()
			err = replayed.applyRecord(rec)
			replayed.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			checkView(t, replayed, nil, fmt.Sprintf("replayed record %d", n))
		}
		viewBodies{replayed.view.Load(), replayed}.check(t, want, nil, "replayed log against the leader")

		deadline := time.Now().Add(10 * time.Second)
		for f.srv.view.Load().strides != leader.view.Load().strides {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at stride %d of %d", f.srv.view.Load().strides, leader.view.Load().strides)
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-runDone; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("follower run: %v", err)
		}
		checkView(t, f.srv, nil, "follower")
		// The follower's pending tail may trail the leader's by a poll, so
		// compare what a stride boundary pins: the census and the points.
		fv := f.srv.view.Load()
		if code, got := (viewBodies{fv, f.srv}).get(t, f.srv.handleClusters, ""); code != http.StatusOK || !bytes.Equal(got, want.clusters) {
			t.Fatalf("follower /clusters diverged from the leader:\n got %s\nwant %s", got, want.clusters)
		}
	})

	if !testing.Short() {
		for _, typ := range []string{"merger", "split", "dissipation", "emergence", "expansion", "shrink"} {
			if seen[typ] == 0 {
				t.Errorf("no %s in any run: the corpus does not exercise it", typ)
			}
		}
	}
}

// TestClustersEncodingMatchesEncodingJSON pins the hand-written /clusters
// writer to encoding/json's rendering of clustersResponse, byte for byte:
// no clusters (null, as a nil slice renders), one cluster, thousands.
func TestClustersEncodingMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 5000} {
		v := &publishedView{strides: uint64(rng.Int63()), noise: rng.Intn(1 << 20)}
		v.stats.Resident = rng.Intn(1 << 30)
		want := clustersResponse{Strides: v.strides, Window: v.stats.Resident, Noise: v.noise}
		for i := 0; i < n; i++ {
			r := censusRow{id: rng.Intn(1 << (1 + rng.Intn(40))), cores: int32(rng.Intn(1 << 20)), borders: int32(rng.Intn(1 << 10))}
			v.census = append(v.census, r)
			want.Clusters = append(want.Clusters, clusterSummary{ID: r.id, Size: int(r.size()), Cores: int(r.cores), Borders: int(r.borders)})
		}
		if got, want := v.appendClusters(nil), encodeJSON(t, want); !bytes.Equal(got, want) {
			t.Fatalf("%d clusters:\n got %.200s\nwant %.200s", n, got, want)
		}
	}
}

// TestPinnedViewImmutable: a view a reader holds never changes, however many
// strides the writer publishes through the structure it shares. Readers keep
// rendering the pinned view while the writer runs, so under -race an
// in-place write to a shared chunk is a reported race as well as a diff.
func TestPinnedViewImmutable(t *testing.T) {
	setForTest(t, &eventLogCap, 16)
	cfg := Config{Cluster: model.Config{Dims: 2, Eps: 0.15, MinPts: 4}, Window: 3000, Stride: 30}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	pts := datasets.Maze(cfg.Window+70*cfg.Stride, 11).Points
	warm := cfg.Window + 20*cfg.Stride
	ingest(t, h, toIngest(pts[:cfg.Window], 2))
	for lo := cfg.Window; lo < warm; lo += cfg.Stride {
		ingest(t, h, toIngest(pts[lo:lo+cfg.Stride], 2))
	}
	pinned := viewBodies{s.view.Load(), s}
	want := rebuildOracle(t, s)
	pinned.check(t, want, nil, "at pin time")
	if len(pinned.v.events) == 0 {
		t.Fatal("no events at pin time; the tail check would be vacuous")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := pts[warm-cfg.Window+i%cfg.Window].ID
				_, got := pinned.get(t, s.handlePoint, strconv.FormatInt(id, 10))
				if !bytes.Equal(got, want.points[id]) {
					t.Errorf("pinned /points/%d changed under the writer: %s", id, got)
					return
				}
				if _, got := pinned.get(t, s.handleClusters, ""); !bytes.Equal(got, want.clusters) {
					t.Error("pinned /clusters changed under the writer")
					return
				}
				if _, got := pinned.get(t, s.handleEvents, ""); !bytes.Equal(got, want.events) {
					t.Error("pinned /events changed under the writer")
					return
				}
			}
		}(r)
	}
	for lo := warm; lo+cfg.Stride <= len(pts); lo += cfg.Stride {
		ingest(t, h, toIngest(pts[lo:lo+cfg.Stride], 2))
	}
	close(stop)
	wg.Wait()
	if got := s.view.Load().strides - pinned.v.strides; got != 50 {
		t.Fatalf("advanced %d strides past the pin, want 50", got)
	}
	if s.eventSeq-pinned.v.stats.EventSeq <= uint64(eventLogCap) {
		t.Fatalf("only %d events since the pin; the %d-record log did not wrap", s.eventSeq-pinned.v.stats.EventSeq, eventLogCap)
	}
	pinned.check(t, want, nil, "50 strides after the pin")
	checkView(t, s, nil, "head view")
}

// FuzzViewDelta: random window, stride, ε and MinPts over a clustered random
// stream with a restore in the middle; the view must match the rebuild after
// every stride.
func FuzzViewDelta(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(7), uint8(20), uint8(3))
	f.Add(int64(2), uint8(200), uint8(1), uint8(8), uint8(1))
	f.Add(int64(3), uint8(25), uint8(25), uint8(40), uint8(6))
	f.Add(int64(4), uint8(120), uint8(50), uint8(12), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, window, stride, eps10, minPts uint8) {
		w := int(window)%250 + 5
		st := int(stride)%w + 1
		cfg := Config{
			Cluster: model.Config{Dims: 2, Eps: float64(eps10%60+1) / 10, MinPts: int(minPts)%8 + 1},
			Window:  w, Stride: st,
		}
		rng := rand.New(rand.NewSource(seed))
		strides := 30
		pts := make([]model.Point, w+strides*st)
		for i := range pts {
			// Clusters drift and thin out so they merge, split and dissolve.
			c := float64(rng.Intn(5))*4 + float64(i)/float64(len(pts))*3
			// Ids run through the negatives, -1 and 0 into the positives: every
			// int64 is a legal point id.
			pts[i] = model.Point{ID: int64(i) - 40, Pos: geom.NewVec(c+rng.NormFloat64(), rng.NormFloat64()*2)}
		}
		s := newDeltaServer(t, cfg, 1+int(seed>>1&1)*3)
		driveStream(t, s, pts, func(n int) {
			if n == strides/2 {
				restoreSelf(t, s)
				checkView(t, s, nil, "after restore")
			}
		})
	})
}
