package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"disc/internal/model"
)

// subRuns is how many independent streams one untraced run measures. The
// cost of a stride depends on the shape of the generated stream (where the
// hotspots fall, how many clusters form), which varies more from seed to
// seed than a run does from repeat to repeat; a run therefore derives
// subRuns seeds from its own, sets a fresh server up on each, measures each
// for an equal share of the time, and pools the observations. setup_s and
// recover_s are medians over the sub-runs' set-ups and recoveries.
const subRuns = 5

// subSeed derives the seed of sub-run i; the traced run uses sub-run 0's.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// maxLateP95 is the generator lateness beyond which a paced run measures
// the scheduler rather than the server and is refused.
const maxLateP95 = 10 * time.Millisecond

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload produced. The contract's
// last-line JSON is a projection of it; the whole of it goes to the out
// directory.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Traced     bool              `json:"traced"`
	Host       hostStamp         `json:"host"`
	StreamHash string            `json:"stream_hash"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// Samples is the number of observations behind each metric that is a
	// median or percentile.
	Samples map[string]int `json:"samples"`
	// Info carries descriptors that are not metrics (counts of strides,
	// resident points, generator lateness, ...).
	Info map[string]float64 `json:"info"`
	// SelfMs is, per span name, the total self time of a traced run.
	SelfMs map[string]float64 `json:"span_self_ms,omitempty"`
}

func newResult(w *workload, seed int64, seconds int, traced bool, outDir string) *result {
	return &result{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, Host: stampHost(outDir),
		Metrics: map[string]metric{}, Samples: map[string]int{}, Info: map[string]float64{}, SelfMs: map[string]float64{},
	}
}

func (r *result) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if samples > 0 {
		r.Samples[name] = samples
	}
}

// addTally folds a batch of operations into the run's failure accounting.
func (r *result) addTally(attempted, failed int, failures []string) {
	r.Attempted += attempted
	r.Failed += failed
	for _, f := range failures {
		if len(r.Failures) < 16 {
			r.Failures = append(r.Failures, f)
		}
	}
}

// probeReserve is the tail of the stream the measured phase leaves unsent,
// so that the traced run's probes can continue writer 0's batches for two
// strides even after a run that exhausted its stream.
func probeReserve(w *workload) int { return (2*w.writers + 1) * w.stride }

// generate makes one input stream from a seed: the set-up prefix, as many
// points as a measured phase of the given length can consume, and the
// probes' reserve.
func generate(w *workload, seed int64, measure time.Duration) []model.Point {
	n := int(float64(w.capPointsPerS) * measure.Seconds())
	if min := (w.ledgerStrides + 1) * w.stride; n < min {
		n = min
	}
	return w.gen(w.setupPoints()+n+probeReserve(w), seed).Points
}

// heapAfterGC returns the live heap. Two collections, because finalizers
// and sync.Pool victims outlive the first.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// phaseSplit divides a closed-loop measuring time between the write phase
// and the read phase that follows it; a paced workload reads and writes for
// the whole time.
func phaseSplit(w *workload, total time.Duration) (writeFor, readFor time.Duration) {
	if w.paced() {
		return total, total
	}
	readFor = total / 10
	return total - readFor, readFor
}

// runUntraced measures the end-to-end metrics of one workload over loopback
// HTTP, with no spans recorded.
func runUntraced(w *workload, seed int64, seconds int, outDir string) (*result, error) {
	res := newResult(w, seed, seconds, false, outDir)
	tmp, err := tempDir(outDir, "wal-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	each := time.Duration(seconds) * time.Second / subRuns

	// All streams and sample buffers exist before the heap baseline, so
	// that what is live beyond it at the end of a sub-run is that sub-run's
	// server and nothing of the benchmark's.
	genStart := time.Now()
	loads := make([]*load, subRuns)
	var all [][]model.Point
	for i := range loads {
		pts := generate(w, subSeed(seed, i), each)
		loads[i] = newLoad(w, pts, subSeed(seed, i), nil)
		all = append(all, pts)
	}
	genS := time.Since(genStart).Seconds() / subRuns
	res.StreamHash = streamHash(w.cfg.Dims, all...)
	baseline := heapAfterGC()

	var setupS, recoverS, heapPerPoint []float64
	var ackNs, visNs, readNs, lateNs []float64
	var writeWall, readWall time.Duration
	acked, strides, batches, resident := 0, 0, 0, 0
	exhausted := false
	for i, ld := range loads {
		t0 := time.Now()
		in, err := openInstance(w, filepath.Join(tmp, fmt.Sprintf("sub%d", i)), true)
		if err != nil {
			return nil, err
		}
		at, err := setUp(w, in, ld.pts)
		if err != nil {
			in.close()
			return nil, err
		}
		setupS = append(setupS, genS+time.Since(t0).Seconds())
		rs, bad, err := recoverTime(w, in)
		if err != nil {
			in.close()
			return nil, err
		}
		recoverS = append(recoverS, rs)
		res.addTally(1, len(bad), bad)

		writeFor, readFor := phaseSplit(w, each)
		ld.run(in, at, writeFor, readFor)
		lr := &ld.res
		res.addTally(lr.attempted, lr.failed, lr.failures)
		heap := heapAfterGC()
		n, bad := checkExact(w, in.handler, ld.pts, lr.sent)
		res.addTally(1, btoi(len(bad) > 0), bad)
		if err := in.close(); err != nil {
			return nil, err
		}
		if n > 0 && heap > baseline {
			heapPerPoint = append(heapPerPoint, float64(heap-baseline)/float64(n))
		}
		ackNs, visNs = append(ackNs, lr.ackNs...), append(visNs, lr.visNs...)
		readNs, lateNs = append(readNs, lr.readNs...), append(lateNs, lr.lateNs...)
		writeWall, readWall = writeWall+lr.writeWall, readWall+lr.readWall
		acked, strides, batches, resident = acked+lr.ackedPoints, strides+lr.strides, batches+lr.batches, resident+n
		exhausted = exhausted || (lr.exhausted && !w.paced())
	}

	if len(visNs) == 0 || len(ackNs) == 0 || len(readNs) == 0 || len(heapPerPoint) == 0 {
		return res, fmt.Errorf("%s: nothing measured (strides %d, batches %d, reads %d, resident %d): %v",
			w.name, len(visNs), len(ackNs), len(readNs), resident, res.Failures)
	}
	res.set("setup_s", median(setupS), "s", len(setupS))
	res.set("points_per_s", float64(acked)/writeWall.Seconds(), "1/s", 0)
	res.set("ingest_visible_p50_ms", percentile(visNs, 50)/1e6, "ms", len(visNs))
	res.set("ingest_visible_p95_ms", percentile(visNs, 95)/1e6, "ms", len(visNs))
	res.set("ack_p50_ms", percentile(ackNs, 50)/1e6, "ms", len(ackNs))
	res.set("ack_p90_ms", percentile(ackNs, 90)/1e6, "ms", len(ackNs))
	res.set("reads_per_s", float64(len(readNs))/readWall.Seconds(), "1/s", 0)
	res.set("read_p50_ms", percentile(readNs, 50)/1e6, "ms", len(readNs))
	res.set("read_p95_ms", percentile(readNs, 95)/1e6, "ms", len(readNs))
	res.set("recover_s", median(recoverS), "s", len(recoverS))
	res.set("heap_bytes_per_point", sum(heapPerPoint)/float64(len(heapPerPoint)), "B", len(heapPerPoint))

	res.Info["gen_s"] = genS
	res.Info["strides"] = float64(strides)
	res.Info["batches"] = float64(batches)
	res.Info["acked_points"] = float64(acked)
	res.Info["resident_points"] = float64(resident)
	res.Info["stream_exhausted"] = float64(btoi(exhausted))
	res.Info["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	if w.paced() {
		late := percentile(lateNs, 95)
		res.Info["loadgen.late_p95_ms"] = late / 1e6
		if late > float64(maxLateP95) {
			return res, fmt.Errorf("%s: load generator ran late (p95 %.2f ms > %v): the numbers would measure the scheduler, not the server",
				w.name, late/1e6, maxLateP95)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// viewBodies fetches the bodies that must survive a restart unchanged.
func viewBodies(h http.Handler) ([][]byte, error) {
	c := newInprocConn(h)
	var out [][]byte
	for _, path := range []string{"/clusters", "/stats", "/events"} {
		rp, _ := c.do("GET", path, nil)
		if rp.status != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", path, rp.status)
		}
		out = append(out, rp.body)
	}
	return out, nil
}

// recoverTime times crash recovery of a set-up instance: a new server on
// the same log directory (no checkpoint, so the whole log is replayed) up
// to its first 200 on GET /readyz. The reopened server must serve the
// bodies the original serves.
func recoverTime(w *workload, in *instance) (secs float64, bad []string, err error) {
	before, err := viewBodies(in.handler)
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	re, err := openInstance(w, in.walDir, false)
	if err != nil {
		return 0, nil, fmt.Errorf("recovery: %w", err)
	}
	rp, _ := newInprocConn(re.handler).do("GET", "/readyz", nil)
	secs = time.Since(t0).Seconds()
	if rp.status != http.StatusOK {
		return secs, []string{fmt.Sprintf("recovery: /readyz status %d", rp.status)}, nil
	}
	after, err := viewBodies(re.handler)
	if err != nil {
		return 0, nil, err
	}
	for b := range before {
		if !bytes.Equal(before[b], after[b]) {
			bad = append(bad, "recovery: served state differs from the state before the restart")
			break
		}
	}
	return secs, bad, nil
}
