package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"disc/internal/ckpt"
	"disc/internal/core"
	"disc/internal/dbscan"
	"disc/internal/geom"
	"disc/internal/grid"
	"disc/internal/kdtree"
	"disc/internal/model"
	"disc/internal/rtree"
	"disc/internal/server"
	"disc/internal/window"
)

// The traced run has three segments, all in one process with no network:
//
//	A  the workload's own load model (same writers, pacing and reader as
//	   the untraced run) calling the real server's handler directly, with a
//	   span around every call;
//	B  shadow instances of each layer — slider, engine, dynamic-connectivity
//	   engine, the three spatial indexes, a write-ahead log — fed the same
//	   stream stride by stride through their public functions, with a span
//	   around every call;
//	C  one-off probes on the quiescent server and shadows: per-POST
//	   allocations, each GET endpoint, duplicate replay, /metrics, checkpoint
//	   and snapshot encode/decode, the generation store, log read-back, and
//	   from-scratch DBSCAN.
//
// The program is not instrumented: every time below is the benchmark's own
// span around a public call, except the values read from the engine's
// observer record (phase times and work counts).

// segmentAShare is the part of the measuring time segment A takes; B gets
// the rest (and always completes the workload's ledger prefix).
const segmentAShare = 0.3

// viewSampleEvery is how often (in strides) segment B times the O(window)
// Snapshot and Clusters calls, which would otherwise dominate B.
const viewSampleEvery = 4

// oracleEvery is how often (in strides) segment B checks the shadow engine
// against from-scratch DBSCAN.
const oracleEvery = 50

// tracedVariant returns the workload as the traced run drives it: a stride
// always arrives as at least two POSTs, so that a batch that completes no
// stride exists to subtract from one that does.
func tracedVariant(w *workload) *workload {
	tw := *w
	if tw.batch*2 > tw.stride {
		tw.batch = tw.stride / 2
	}
	return &tw
}

// memCounts reads the process's cumulative allocation counters. It stops
// the world, so it brackets spans from outside, never from within.
func memCounts() (objs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// shadows are the standalone layer instances of segment B.
type shadows struct {
	w      *workload
	rec    *recorder
	parent int // the open shadow.stride span the layer calls hang under
	slider *window.CountSlider
	eng    *core.Engine
	dyn    *core.Engine
	rt     *rtree.T
	gr     *grid.Grid
	kd     *kdtree.T
	wal    *ckpt.WAL
	walPos uint64
	walBuf []byte

	engRecs, dynRecs []core.StrideRecord

	advAllocs, advBytes []float64
	rtNodesPerSearch    []float64
	churn               []float64
	perOp               map[string][]float64 // per-operation µs of the index replays
	bad                 []string
	oracleRuns          int
}

// newShadows builds the shadow layers. They record no spans until rec is
// set, which the caller does once their set-up strides are through.
func newShadows(w *workload, walDir string, recordBytes int) (*shadows, error) {
	slider, err := window.NewCountSlider(w.window, w.stride)
	if err != nil {
		return nil, err
	}
	wal, err := ckpt.OpenWAL(walDir)
	if err != nil {
		return nil, err
	}
	s := &shadows{
		w: w, slider: slider,
		rt: rtree.New(w.cfg.Dims), gr: grid.New(w.cfg.Dims, w.cfg.Eps), kd: kdtree.New(w.cfg.Dims),
		wal: wal, walBuf: make([]byte, recordBytes), perOp: map[string][]float64{},
	}
	s.eng = core.New(w.cfg, core.WithObserver(core.ObserverFunc(func(r core.StrideRecord) { s.engRecs = append(s.engRecs, r) })))
	s.dyn = core.New(w.cfg, core.WithConnectivity(core.ConnDynamic),
		core.WithObserver(core.ObserverFunc(func(r core.StrideRecord) { s.dynRecs = append(s.dynRecs, r) })))
	return s, nil
}

// timed runs fn inside a span and returns its duration in nanoseconds.
func (s *shadows) timed(name string, stride int64, fn func()) int64 {
	sp := s.rec.begin(name, s.parent, stride)
	fn()
	return s.rec.end(sp)
}

// stride feeds one stride's points through every shadow layer. measured
// false (set-up) applies the same state changes without keeping numbers.
func (s *shadows) stride(n int64, pts []model.Point, measured bool) {
	s.parent = s.rec.begin("shadow.stride", -1, n)
	defer s.rec.end(s.parent)
	var step *window.Step
	s.timed("window.push", n, func() {
		for _, p := range pts {
			if st := s.slider.Push(p); st != nil {
				step = st
			}
		}
	})
	if step == nil {
		return
	}
	o0, b0 := memCounts()
	s.timed("core.advance", n, func() { s.eng.Advance(step.In, step.Out) })
	o1, b1 := memCounts()
	s.timed("dyncon.advance", n, func() { s.dyn.Advance(step.In, step.Out) })
	s.replayIndexes(n, step, measured)
	s.timed("ckpt.wal_append", n, func() {
		s.walPos += uint64(len(pts))
		if err := s.wal.Append(s.walPos, s.walBuf); err != nil {
			s.bad = append(s.bad, "shadow wal append: "+err.Error())
		}
	})
	s.timed("ckpt.wal_sync", n, func() {
		if err := s.wal.Sync(); err != nil {
			s.bad = append(s.bad, "shadow wal sync: "+err.Error())
		}
	})
	if !measured {
		return
	}
	s.advAllocs = append(s.advAllocs, float64(o1-o0))
	s.advBytes = append(s.advBytes, float64(b1-b0))
	s.churn = append(s.churn, float64(len(step.In)+len(step.Out))/float64(len(step.Window)))
	if n%viewSampleEvery == 0 {
		s.timed("core.snapshot", n, func() { _ = s.eng.Snapshot() })
		s.timed("core.clusters", n, func() { _, _ = s.eng.Clusters() })
	}
	if n%oracleEvery == 0 {
		s.checkEngine(step.Window)
	}
}

// checkEngine compares the shadow engine's labels with from-scratch DBSCAN
// on the same window.
func (s *shadows) checkEngine(win []model.Point) {
	got := make(map[int64]served, len(win))
	for id, a := range s.eng.Snapshot() {
		got[id] = served{Label: a.Label.String(), Cluster: a.ClusterID}
	}
	s.oracleRuns++
	for _, b := range verifyExact(win, got, s.w.cfg) {
		if len(s.bad) < 8 {
			s.bad = append(s.bad, "shadow engine: "+b)
		}
	}
}

// replayIndexes applies one stride's Δin/Δout to each standalone index and,
// on a measured stride, issues one ε-search per Δ point — the access pattern
// COLLECT has.
func (s *shadows) replayIndexes(n int64, step *window.Step, measured bool) {
	eps := s.w.cfg.Eps
	ids := make([]int64, len(step.In))
	pos := make([]geom.Vec, len(step.In))
	for i, p := range step.In {
		ids[i], pos[i] = p.ID, p.Pos
	}
	nop := func(int64, geom.Vec) bool { return true }
	delta := len(step.In) + len(step.Out)
	perOp := func(name string, ns int64, ops int) {
		if ops > 0 {
			s.perOp[name] = append(s.perOp[name], float64(ns)/1e3/float64(ops))
		}
	}
	searchAll := func(search func(geom.Vec)) {
		if !measured {
			return
		}
		for _, p := range step.In {
			search(p.Pos)
		}
		for _, p := range step.Out {
			search(p.Pos)
		}
	}

	s.timed("rtree.bulk_insert", n, func() { s.rt.BulkInsert(ids, pos) })
	before := s.rt.Stats()
	perOp("rtree.search_ball_us", s.timed("rtree.search_ball", n, func() {
		searchAll(func(c geom.Vec) { s.rt.SearchBall(c, eps, nop) })
	}), delta)
	after := s.rt.Stats()
	if d := after.RangeSearches - before.RangeSearches; d > 0 {
		s.rtNodesPerSearch = append(s.rtNodesPerSearch, float64(after.NodeAccesses-before.NodeAccesses)/float64(d))
	}
	perOp("rtree.delete_us", s.timed("rtree.delete", n, func() {
		for _, p := range step.Out {
			s.rt.Delete(p.ID, p.Pos)
		}
	}), len(step.Out))

	perOp("grid.insert_us", s.timed("grid.insert", n, func() {
		for _, p := range step.In {
			s.gr.Insert(p.ID, p.Pos)
		}
	}), len(step.In))
	perOp("grid.search_ball_us", s.timed("grid.search_ball", n, func() {
		searchAll(func(c geom.Vec) { s.gr.SearchBall(c, eps, nop) })
	}), delta)
	perOp("grid.delete_us", s.timed("grid.delete", n, func() {
		for _, p := range step.Out {
			s.gr.Delete(p.ID, p.Pos)
		}
	}), len(step.Out))

	s.timed("kdtree.insert", n, func() {
		for _, p := range step.In {
			s.kd.Insert(p.ID, p.Pos)
		}
	})
	perOp("kdtree.search_ball_us", s.timed("kdtree.search_ball", n, func() {
		searchAll(func(c geom.Vec) { s.kd.SearchBall(c, eps, nop) })
	}), delta)
	s.timed("kdtree.delete", n, func() {
		for _, p := range step.Out {
			s.kd.Delete(p.ID, p.Pos)
		}
	})
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// ownHistograms reads, from the server's own GET /metrics, the running sum
// and count of the default stream's histograms named in series.
func ownHistograms(h http.Handler, series ...string) (map[string]float64, error) {
	rp, _ := newInprocConn(h).do("GET", "/metrics", nil)
	if rp.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rp.status)
	}
	out := map[string]float64{}
	for _, name := range series {
		for _, part := range []string{"_sum", "_count"} {
			prefix := []byte(name + part + `{stream="default"} `)
			found := false
			for _, line := range bytes.Split(rp.body, []byte("\n")) {
				if bytes.HasPrefix(line, prefix) {
					v, err := strconv.ParseFloat(string(line[len(prefix):]), 64)
					if err != nil {
						return nil, fmt.Errorf("GET /metrics: %s: %w", name+part, err)
					}
					out[name+part], found = v, true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("GET /metrics: no series %s", name+part)
			}
		}
	}
	return out, nil
}

// The server's own histograms the ledger reads over segment A.
const (
	strideSeries  = "disc_stride_duration_seconds"
	walSyncSeries = "disc_wal_sync_duration_seconds"
)

// meanOver returns the mean (in seconds) and count of the observations a
// histogram gained between two scrapes.
func meanOver(before, after map[string]float64, series string) (float64, int) {
	n := after[series+"_count"] - before[series+"_count"]
	if n <= 0 {
		return 0, 0
	}
	return (after[series+"_sum"] - before[series+"_sum"]) / n, int(n)
}

// gcCounts returns completed GC cycles and total pause time so far.
func gcCounts() (cycles uint32, pauseNs uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC, m.PauseTotalNs
}

// runTraced produces one workload's per-layer ledger.
func runTraced(w *workload, seed int64, seconds int, outDir string) (*result, error) {
	res := newResult(w, seed, seconds, true, outDir)
	tmp, err := tempDir(outDir, "wal-"+w.name+"-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	tw := tracedVariant(w)
	total := time.Duration(seconds) * time.Second
	pts := generate(w, subSeed(seed, 0), total)
	res.StreamHash = streamHash(w.cfg.Dims, pts)
	rec := newRecorder()
	began := time.Now()

	// ---- Segment A: the load model against the real handler.
	in, err := openInstance(tw, filepath.Join(tmp, "server"), false)
	if err != nil {
		return nil, err
	}
	strides, err := setUp(tw, in, pts)
	if err != nil {
		return nil, err
	}
	setupBatches := (tw.setupPoints() + tw.batch - 1) / tw.batch
	ld := newLoad(tw, pts, seed, rec)
	aFor := time.Duration(float64(total) * segmentAShare)
	writeFor, readFor := phaseSplit(tw, aFor)
	// The log the set-up wrote is the same for every run of a seed.
	walBytes, err := dirBytes(in.walDir)
	if err != nil {
		return nil, err
	}
	bytesPerBatch := float64(walBytes) / float64(setupBatches)
	own0, err := ownHistograms(in.handler, strideSeries, walSyncSeries)
	if err != nil {
		return nil, err
	}
	gc0, pause0 := gcCounts()
	measureStart := time.Now()
	ld.run(in, strides, writeFor, readFor)
	gc1, pause1 := gcCounts()
	own1, err := ownHistograms(in.handler, strideSeries, walSyncSeries)
	if err != nil {
		return nil, err
	}
	lr := &ld.res
	res.addTally(lr.attempted, lr.failed, lr.failures)
	// ---- Segment B: shadow layers over the same stream.
	recordBytes := int(bytesPerBatch) - ckpt.HeaderSize - 8
	if recordBytes < 1 {
		recordBytes = 1
	}
	sh, err := newShadows(tw, filepath.Join(tmp, "shadow-wal"), recordBytes)
	if err != nil {
		return nil, err
	}
	setupN := tw.setupPoints()
	sh.stride(0, pts[:tw.window], false)
	for i := 0; i < warmStrides; i++ {
		off := tw.window + i*tw.stride
		sh.stride(0, pts[off:off+tw.stride], false)
	}
	// Set-up is over: from here on the shadows record.
	sh.rec, sh.engRecs, sh.dynRecs = rec, sh.engRecs[:0], sh.dynRecs[:0]
	sh.perOp, sh.rtNodesPerSearch = map[string][]float64{}, nil
	bStrides := lr.ackedPoints / tw.stride
	if bStrides < tw.ledgerStrides {
		bStrides = tw.ledgerStrides
	}
	if max := (len(pts) - setupN - probeReserve(tw)) / tw.stride; bStrides > max {
		bStrides = max
	}
	deadline := measureStart.Add(total)
	done := 0
	for n := 1; n <= bStrides; n++ {
		if n > tw.ledgerStrides && !time.Now().Before(deadline) {
			break
		}
		off := setupN + (n-1)*tw.stride
		sh.stride(int64(n), pts[off:off+tw.stride], true)
		done = n
	}
	sh.checkEngine(sh.slider.Window())
	res.addTally(sh.oracleRuns, btoi(len(sh.bad) > 0), sh.bad)

	// ---- Segment C: one-off probes.
	pr, err := probe(tw, in, ld, sh, rec, filepath.Join(tmp, "store"), setupBatches)
	if err != nil {
		return nil, err
	}
	res.addTally(pr.attempted, len(pr.bad), pr.bad)
	resident, bad := checkExact(tw, in.handler, pts, lr.sent)
	res.addTally(1, btoi(len(bad) > 0), bad)

	if len(lr.visNs) == 0 || done == 0 || resident == 0 {
		return res, fmt.Errorf("%s traced: nothing measured (strides A %d, B %d, resident %d): %v",
			w.name, len(lr.visNs), done, resident, res.Failures)
	}

	// ---- The ledger.
	med := func(name string) (float64, int) {
		d := rec.durations(name)
		return median(d), len(d)
	}
	setMs := func(metric, spanName string) float64 {
		v, n := med(spanName)
		res.set(metric, v/1e6, "ms", n)
		return v / 1e6
	}
	setUs := func(metric, spanName string) float64 {
		v, n := med(spanName)
		res.set(metric, v/1e3, "us", n)
		return v / 1e3
	}
	setMs("server.ingest_stride_ms", "server.ingest_stride")
	setMs("server.ingest_nostride_ms", "server.ingest_nostride")
	advMs := setMs("core.advance_ms", "core.advance")
	res.set("core.advance_p95_ms", percentile(rec.durations("core.advance"), 95)/1e6, "ms", done)
	pushMs := setMs("window.push_ms", "window.push")
	appendUs := setUs("ckpt.wal_append_us", "ckpt.wal_append")
	setUs("ckpt.wal_sync_us", "ckpt.wal_sync")
	res.set("ckpt.wal_bytes_per_batch", bytesPerBatch, "B", 0)
	snapMs := setMs("core.snapshot_ms", "core.snapshot")
	setMs("core.clusters_ms", "core.clusters")

	// What the real server's engine and fsync took in segment A, by the
	// server's own account. Subtracting the shadows' times instead would
	// charge the view with the difference between two engines' cache luck.
	srvAdv, advN := meanOver(own0, own1, strideSeries)
	srvSync, syncN := meanOver(own0, own1, walSyncSeries)
	res.set("server.advance_ms", srvAdv*1e3, "ms", advN)
	res.set("server.wal_sync_us", srvSync*1e6, "us", syncN)
	meanMs := func(name string) float64 {
		d := rec.durations(name)
		return sum(d) / float64(len(d)) / 1e6
	}
	// Means, not medians: only means add up across the parts of a call.
	strideMean, nostrideMean := meanMs("server.ingest_stride"), meanMs("server.ingest_nostride")
	res.set("server.publish_est_ms", strideMean-nostrideMean-srvAdv*1e3, "ms", 0)
	pushPerBatch := pushMs * float64(tw.batch) / float64(tw.stride)
	res.set("server.residual_ms", nostrideMean-pushPerBatch-appendUs/1e3-srvSync*1e3, "ms", 0)
	// The share of a stride that is timed directly or by the program's own
	// records rather than obtained by subtraction; the rest is the census
	// and sort inside the view build, which no public function isolates.
	res.set("ledger.measured_pct", 100*(srvAdv*1e3+snapMs+nostrideMean)/strideMean, "%", 0)

	phase := func(metric string, pick func(core.StrideRecord) time.Duration, recs []core.StrideRecord) {
		xs := make([]float64, len(recs))
		for i, r := range recs {
			xs[i] = float64(pick(r)) / 1e6
		}
		res.set(metric, median(xs), "ms", len(xs))
	}
	phase("core.collect_ms", func(r core.StrideRecord) time.Duration { return r.Collect }, sh.engRecs)
	phase("core.excore_ms", func(r core.StrideRecord) time.Duration { return r.ExCorePhase }, sh.engRecs)
	phase("core.neocore_ms", func(r core.StrideRecord) time.Duration { return r.NeoCorePhase }, sh.engRecs)
	phase("core.finalize_ms", func(r core.StrideRecord) time.Duration { return r.Finalize }, sh.engRecs)
	phase("core.conn_ms", func(r core.StrideRecord) time.Duration { return r.Connectivity }, sh.engRecs)
	phase("dyncon.forest_ms", func(r core.StrideRecord) time.Duration { return r.ForestUpdate }, sh.dynRecs)
	// Work counts are totalled over the fixed ledger prefix, so they repeat
	// exactly for a seed whatever the clock allowed beyond it.
	var searches, nodes, checks, forestOps int64
	for i := 0; i < tw.ledgerStrides && i < len(sh.engRecs); i++ {
		searches += sh.engRecs[i].RangeSearches
		nodes += sh.engRecs[i].NodeAccesses
		checks += int64(sh.engRecs[i].ConnChecks)
		forestOps += sh.dynRecs[i].ForestOps
	}
	res.set("core.range_searches", float64(searches), "count", 0)
	res.set("core.node_accesses", float64(nodes), "count", 0)
	res.set("core.conn_checks", float64(checks), "count", 0)
	res.set("dyncon.forest_ops", float64(forestOps), "count", 0)
	res.set("core.advance_allocs", median(sh.advAllocs), "count", len(sh.advAllocs))
	res.set("core.advance_alloc_bytes", median(sh.advBytes), "B", len(sh.advBytes))
	res.set("core.churn_ratio", median(sh.churn), "ratio", len(sh.churn))
	setMs("dyncon.advance_ms", "dyncon.advance")

	setMs("rtree.bulk_insert_ms", "rtree.bulk_insert")
	res.set("rtree.nodes_per_search", median(sh.rtNodesPerSearch), "count", len(sh.rtNodesPerSearch))
	for _, name := range []string{"rtree.search_ball_us", "rtree.delete_us", "grid.insert_us",
		"grid.search_ball_us", "grid.delete_us", "kdtree.search_ball_us"} {
		res.set(name, median(sh.perOp[name]), "us", len(sh.perOp[name]))
	}

	setUs("server.get_point_us", "server.get_point")
	setUs("server.get_clusters_us", "server.get_clusters")
	setUs("server.get_stats_us", "server.get_stats")
	setUs("server.get_events_us", "server.get_events")
	setUs("server.get_304_us", "server.get_304")
	setUs("server.dedup_replay_us", "server.dedup_replay")
	setMs("obs.scrape_ms", "obs.scrape")
	setMs("server.checkpoint_write_ms", "server.checkpoint_write")
	setMs("core.save_snapshot_ms", "core.save_snapshot")
	setMs("core.load_ms", "core.load")
	setMs("ckpt.store_save_ms", "ckpt.store_save")
	setMs("ckpt.store_recover_ms", "ckpt.store_recover")
	dbMs := setMs("dbscan.run_ms", "dbscan.run")
	res.set("core.speedup_vs_dbscan", dbMs/advMs, "ratio", 0)
	res.set("server.get_clusters_bytes", pr.clustersBytes, "B", 0)
	res.set("server.checkpoint_bytes", pr.checkpointBytes, "B", 0)
	res.set("core.snapshot_bytes", pr.snapshotBytes, "B", 0)
	// Means over POSTs that cover whole strides: the stride-completing
	// POST's publication garbage is part of the per-POST bill.
	res.set("server.ingest_allocs", sum(pr.ingestAllocs)/float64(len(pr.ingestAllocs)), "count", len(pr.ingestAllocs))
	res.set("server.ingest_alloc_bytes", sum(pr.ingestBytes)/float64(len(pr.ingestBytes)), "B", len(pr.ingestBytes))
	res.set("ckpt.wal_read_us", pr.walReadUs, "us", pr.walRecords)
	res.set("runtime.gc_cycles", float64(gc1-gc0), "count", 0)
	res.set("runtime.gc_pause_ms", float64(pause1-pause0)/1e6, "ms", 0)
	late := 0.0
	if tw.paced() {
		late = percentile(lr.lateNs, 95) / 1e6
	}
	res.set("loadgen.late_p95_ms", late, "ms", len(lr.lateNs))

	res.Info["ingest_visible_p50_ms"] = percentile(lr.visNs, 50) / 1e6
	res.Info["strides_a"] = float64(lr.strides)
	res.Info["strides_b"] = float64(done)
	res.Info["batch_traced"] = float64(tw.batch)
	res.Info["resident_points"] = float64(resident)
	res.Info["oracle_runs"] = float64(sh.oracleRuns + 1)
	res.Info["elapsed_s"] = time.Since(began).Seconds()
	res.Info["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0

	for name, ns := range rec.selfTimes() {
		res.SelfMs[name] = float64(ns) / 1e6
	}
	if err := rec.dump(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// printLedger summarises where a stride's time goes: per layer, ms per
// stride, its share of the handler time of a stride-completing POST, and
// allocations per stride where measured.
func printLedger(res *result) {
	m := func(name string) float64 { return res.Metrics[name].Value }
	stride := m("server.ingest_stride_ms")
	fmt.Printf("-- ledger %s: per stride, against server.ingest_stride_ms = %.3f ms (A: %.0f strides, B: %.0f strides)\n",
		res.Workload, stride, res.Info["strides_a"], res.Info["strides_b"])
	row := func(layer string, msPerStride, allocs float64) {
		a := "        -"
		if allocs >= 0 {
			a = fmt.Sprintf("%9.0f", allocs)
		}
		fmt.Printf("   %-34s %10.4f ms %6.1f%% %s allocs\n", layer, msPerStride, 100*msPerStride/stride, a)
	}
	row("server.advance+ (real engine, mean)", m("server.advance_ms"), -1)
	row("core.advance (shadow engine)", m("core.advance_ms"), m("core.advance_allocs"))
	row("  core.collect+", m("core.collect_ms"), -1)
	row("  core.excore+", m("core.excore_ms"), -1)
	row("  core.neocore+", m("core.neocore_ms"), -1)
	row("  core.finalize+", m("core.finalize_ms"), -1)
	row("server.publish_est (view build)", m("server.publish_est_ms"), -1)
	row("  core.snapshot (measured part)", m("core.snapshot_ms"), -1)
	row("server.ingest_nostride (batch cost)", m("server.ingest_nostride_ms"), m("server.ingest_allocs"))
	row("  window.push (whole stride)", m("window.push_ms"), -1)
	row("  ckpt.wal_append", m("ckpt.wal_append_us")/1e3, -1)
	row("  server.wal_sync+ (real log, mean)", m("server.wal_sync_us")/1e3, -1)
	row("  ckpt.wal_sync (shadow log)", m("ckpt.wal_sync_us")/1e3, -1)
	row("  server.residual", m("server.residual_ms"), -1)
	row("alt: dyncon.advance", m("dyncon.advance_ms"), -1)
	fmt.Printf("   timed directly or read from the program's own records (+), not got by subtraction: %.1f%%\n", m("ledger.measured_pct"))
	plain := m("server.ingest_nostride_ms")
	fmt.Printf("   a POST that completes no stride: %.4f ms, of which fsync+ %.0f%%, log append %.0f%%\n",
		plain, m("server.wal_sync_us")/10/plain, m("ckpt.wal_append_us")/10/plain)
	fmt.Printf("   span self time, whole run (ms):")
	for _, n := range sortedKeys(res.SelfMs) {
		fmt.Printf(" %s=%.0f", n, res.SelfMs[n])
	}
	fmt.Println()
}

// probes is what segment C measured beyond its spans.
type probes struct {
	attempted                                     int
	bad                                           []string
	ingestAllocs, ingestBytes                     []float64
	clustersBytes, checkpointBytes, snapshotBytes float64
	walReadUs                                     float64
	walRecords                                    int
}

// probe is segment C. It continues writer 0's part of the stream on the
// quiescent server, so the oracle's view of who sent what stays true.
func probe(w *workload, in *instance, ld *load, sh *shadows, rec *recorder, storeDir string, setupBatches int) (*probes, error) {
	pr := &probes{}
	c := newInprocConn(in.handler)
	fail := func(format string, args ...any) { pr.bad = append(pr.bad, fmt.Sprintf(format, args...)) }
	sent := ld.res.sent

	// Per-POST allocations: two strides' worth of batches, one at a time.
	nextBatch := func() (int, bool) {
		j := (sent[0]/w.batch)*w.writers + 0
		return j, ld.setupN+(j+1)*w.batch <= len(ld.pts)
	}
	seq := uint64(setupBatches + sent[0]/w.batch)
	var lastBody []byte
	var lastHdr []string
	var lastAck []byte
	for i := 0; i < 2*w.stride/w.batch; i++ {
		j, ok := nextBatch()
		if !ok {
			break
		}
		body := appendBatch(nil, ld.batchPoints(j), w.cfg.Dims)
		seq++
		// Sequence headers on every probe POST, whatever the workload: the
		// duplicate probe below needs a batch the dedup window remembers.
		hdr := []string{"X-Disc-Client", writerClient(0), "X-Disc-Seq", strconv.FormatUint(seq, 10)}
		o0, b0 := memCounts()
		sp := rec.begin("probe.ingest", -1, int64(j))
		rp, _ := c.do("POST", "/ingest", body, hdr...)
		rec.end(sp)
		o1, b1 := memCounts()
		pr.attempted++
		if rp.status != http.StatusOK {
			fail("probe batch %d: status %d: %s", j, rp.status, bytes.TrimSpace(rp.body))
			continue
		}
		sent[0] += w.batch
		ld.acked[0].Add(int64(w.batch))
		pr.ingestAllocs = append(pr.ingestAllocs, float64(o1-o0))
		pr.ingestBytes = append(pr.ingestBytes, float64(b1-b0))
		lastBody, lastHdr, lastAck = body, hdr, rp.body
	}
	for i := 0; i < 20 && lastBody != nil; i++ {
		sp := rec.begin("server.dedup_replay", -1, int64(i))
		rp, _ := c.do("POST", "/ingest", lastBody, lastHdr...)
		rec.end(sp)
		pr.attempted++
		if rp.status != http.StatusOK || rp.header.Get("X-Disc-Deduped") != "1" || !bytes.Equal(rp.body, lastAck) {
			fail("probe duplicate %d: status %d deduped %q", i, rp.status, rp.header.Get("X-Disc-Deduped"))
		}
	}

	// Every GET endpoint, quiescent.
	get := func(span, path string, want int, hdr ...string) reply {
		sp := rec.begin(span, -1, 0)
		rp, _ := c.do("GET", path, nil, hdr...)
		rec.end(sp)
		pr.attempted++
		if rp.status != want {
			fail("probe GET %s: status %d, want %d", path, rp.status, want)
		}
		return rp
	}
	for i := 0; i < 50; i++ {
		// The newest visible point of writer 0 that is clear of the pending
		// buffer: one stride and one batch back.
		p := sent[0] - w.stride - w.batch - 1 - i
		id := ld.pts[streamIndex(w, 0, p)].ID
		get("server.get_point", "/points/"+strconv.FormatInt(id, 10), http.StatusOK)
		rp := get("server.get_clusters", "/clusters", http.StatusOK)
		pr.clustersBytes = float64(len(rp.body))
		get("server.get_304", "/clusters", http.StatusNotModified, "If-None-Match", rp.header.Get("ETag"))
		get("server.get_stats", "/stats", http.StatusOK)
		get("server.get_events", "/events", http.StatusOK)
	}
	for i := 0; i < 10; i++ {
		get("obs.scrape", "/metrics", http.StatusOK)
	}

	// Checkpoint and snapshot encode/decode, and the generation store.
	srv := in.multi.Stream(server.DefaultStream)
	var ck, snap bytes.Buffer
	store, err := ckpt.Open(storeDir)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		ck.Reset()
		sp := rec.begin("server.checkpoint_write", -1, int64(i))
		err := srv.WriteCheckpoint(&ck)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("probe checkpoint: %w", err)
		}
		snap.Reset()
		sp = rec.begin("core.save_snapshot", -1, int64(i))
		err = sh.eng.SaveSnapshot(&snap)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("probe snapshot: %w", err)
		}
		sp = rec.begin("core.load", -1, int64(i))
		_, err = core.LoadEngine(bytes.NewReader(snap.Bytes()))
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("probe snapshot load: %w", err)
		}
		sp = rec.begin("ckpt.store_save", -1, int64(i))
		_, err = store.Save(ck.Bytes())
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("probe store save: %w", err)
		}
		sp = rec.begin("ckpt.store_recover", -1, int64(i))
		payload, _, err := store.Recover()
		rec.end(sp)
		pr.attempted++
		if err != nil || !bytes.Equal(payload, ck.Bytes()) {
			fail("probe store: recovered generation differs from the saved one (err %v)", err)
		}
	}
	pr.checkpointBytes, pr.snapshotBytes = float64(ck.Len()), float64(snap.Len())

	// Read the real server's log back, record by record.
	rd := ckpt.OpenWALReader(in.walDir, 0, 1<<30)
	sp := rec.begin("ckpt.wal_read", -1, 0)
	for {
		if _, _, err := rd.Next(); err != nil {
			if !errors.Is(err, ckpt.ErrWALWait) {
				fail("probe wal read: %v", err)
			}
			break
		}
		pr.walRecords++
	}
	ns := rec.end(sp)
	rd.Close()
	pr.attempted++
	if pr.walRecords == 0 {
		fail("probe wal read: no records")
	} else {
		pr.walReadUs = float64(ns) / 1e3 / float64(pr.walRecords)
	}

	// From-scratch DBSCAN on the shadow's final window: the paper's Fig. 4
	// denominator.
	win := sh.slider.Window()
	sp = rec.begin("dbscan.run", -1, 0)
	_ = dbscan.Run(win, w.cfg)
	rec.end(sp)
	return pr, nil
}
