package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"disc/internal/model"
	"disc/internal/server"
)

// instance is one server under test: a real server.Multi with its default
// stream, a write-ahead log with fsync on, and (in the untraced run) a
// loopback HTTP listener. Only Cluster, Window and Stride are set; every
// other setting is the server's default.
type instance struct {
	multi   *server.Multi
	handler http.Handler
	httpSrv *http.Server
	served  chan error
	base    string
	walDir  string
}

func serverConfig(w *workload) server.Config {
	return server.Config{Cluster: w.cfg, Window: w.window, Stride: w.stride}
}

// wrapHandler, when a test sets it, stands between the benchmark and the
// server's handler — the seam through which a test corrupts an answer to
// prove that the run then fails.
var wrapHandler func(http.Handler) http.Handler

// openInstance opens (or, on a walDir that already holds a log, recovers) a
// server. With network set it listens on a loopback port.
func openInstance(w *workload, walDir string, network bool) (*instance, error) {
	m, err := server.NewMulti(server.MultiConfig{Default: serverConfig(w), WALDir: walDir})
	if err != nil {
		return nil, fmt.Errorf("opening server on %s: %w", walDir, err)
	}
	in := &instance{multi: m, handler: m.Handler(), walDir: walDir}
	if wrapHandler != nil {
		in.handler = wrapHandler(in.handler)
	}
	if !network {
		return in, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	in.base = "http://" + ln.Addr().String()
	in.httpSrv = &http.Server{Handler: in.handler}
	in.served = make(chan error, 1)
	go func() { in.served <- in.httpSrv.Serve(ln) }()
	return in, nil
}

func (in *instance) conn() *conn {
	if in.httpSrv == nil {
		return newInprocConn(in.handler)
	}
	return newNetConn(in.base)
}

// close stops the listener and waits for the serving goroutine. The log
// needs no close: every acknowledged batch was fsynced before its 200.
func (in *instance) close() error {
	if in.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.httpSrv.Shutdown(ctx)
	if serr := <-in.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// ack is the 200 body of POST /ingest.
type ack struct {
	Accepted int    `json:"accepted"`
	Strides  uint64 `json:"strides"`
	Window   int    `json:"window"`
}

// streamHash fingerprints the generated streams (ids, times, coordinate
// bits), so two runs can be seen to have fed the server the same inputs.
func streamHash(dims int, streams ...[]model.Point) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, pts := range streams {
		for _, p := range pts {
			put(uint64(p.ID))
			put(uint64(p.Time))
			for d := 0; d < dims; d++ {
				put(math.Float64bits(p.Pos[d]))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// writerClient names writer k in X-Disc-Client.
func writerClient(k int) string { return "w" + strconv.Itoa(k) }

// setUp ingests the stream's set-up prefix (window fill + warm-up strides)
// through one connection and returns the stride count the server reports.
func setUp(w *workload, in *instance, pts []model.Point) (uint64, error) {
	c := in.conn()
	defer c.close()
	var body []byte
	var last ack
	seq := uint64(0)
	n := w.setupPoints()
	for off := 0; off < n; off += w.batch {
		end := off + w.batch
		if end > n {
			end = n
		}
		body = appendBatch(body[:0], pts[off:end], w.cfg.Dims)
		var hdr []string
		if w.withSeq {
			seq++
			hdr = []string{"X-Disc-Client", writerClient(0), "X-Disc-Seq", strconv.FormatUint(seq, 10)}
		}
		rp, err := c.do("POST", "/ingest", body, hdr...)
		if err != nil {
			return 0, fmt.Errorf("set-up ingest at point %d: %w", off, err)
		}
		if rp.status != http.StatusOK {
			return 0, fmt.Errorf("set-up ingest at point %d: status %d: %s", off, rp.status, bytes.TrimSpace(rp.body))
		}
		if err := json.Unmarshal(rp.body, &last); err != nil {
			return 0, fmt.Errorf("set-up ingest at point %d: bad ack: %w", off, err)
		}
	}
	if want := uint64(1 + warmStrides); last.Strides != want {
		return 0, fmt.Errorf("set-up ended at stride %d, want %d", last.Strides, want)
	}
	return last.Strides, nil
}

// loadResult is what one measured phase observed. Times are nanoseconds.
type loadResult struct {
	writeWall   time.Duration
	readWall    time.Duration
	ackedPoints int
	batches     int
	strides     int // strides whose visibility was timed
	exhausted   bool

	ackNs  []float64 // POST round trip, every original batch
	visNs  []float64 // send (or due) → first GET /clusters body showing the stride
	lateNs []float64 // paced writer: actual send − due
	readNs []float64 // reader connection, all endpoints

	attempted, failed int
	failures          []string // first few, for the report

	sent []int // per writer: points acked in the measured phase
}

// tally counts operations and keeps the first few failure messages.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	failures          []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// jsonUint extracts the unsigned integer that follows the first `"key":` in
// a JSON body — enough to cross-check a body's stride against its header
// without paying a full decode on the reader's closed loop.
func jsonUint(body []byte, key string) (uint64, bool) {
	pat := []byte(`"` + key + `":`)
	i := bytes.Index(body, pat)
	if i < 0 {
		return 0, false
	}
	j := i + len(pat)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	if k == j {
		return 0, false
	}
	v, err := strconv.ParseUint(string(body[j:k]), 10, 64)
	return v, err == nil
}

// checkView verifies a 200 GET reply of a view endpoint: the X-Disc-Stride
// header must parse and equal the stride the body itself states.
func checkView(rp reply, bodyKey string) (uint64, error) {
	hs, err := strconv.ParseUint(rp.header.Get("X-Disc-Stride"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad X-Disc-Stride %q", rp.header.Get("X-Disc-Stride"))
	}
	bs, ok := jsonUint(rp.body, bodyKey)
	if !ok {
		return 0, fmt.Errorf("body has no %q", bodyKey)
	}
	if bs != hs {
		return 0, fmt.Errorf("header stride %d but body stride %d", hs, bs)
	}
	return hs, nil
}

// load is one measured phase against one instance.
type load struct {
	w      *workload
	in     *instance
	pts    []model.Point
	rec    *recorder // nil in the untraced run
	setupN int
	// nBatches is how many measured batches the generated stream holds.
	nBatches int
	dup      []bool // per measured batch: re-send it as a duplicate

	tally   tally
	claimed atomic.Uint64  // highest stride some writer has claimed
	acked   []atomic.Int64 // per writer: measured points acked so far
	res     loadResult
	resMu   sync.Mutex
}

func newLoad(w *workload, pts []model.Point, seed int64, rec *recorder) *load {
	l := &load{w: w, pts: pts, rec: rec, setupN: w.setupPoints()}
	l.nBatches = (len(pts) - l.setupN - probeReserve(w)) / w.batch
	l.dup = make([]bool, l.nBatches)
	if w.dupShare > 0 {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for j := range l.dup {
			l.dup[j] = rng.Float64() < w.dupShare
		}
	}
	l.acked = make([]atomic.Int64, w.writers)
	l.res.sent = make([]int, w.writers)
	// Sample buffers are sized up front so that growing them is not charged
	// to the server's heap (heap_bytes_per_point subtracts a baseline taken
	// after this allocation).
	l.res.ackNs = make([]float64, 0, l.nBatches)
	l.res.visNs = make([]float64, 0, l.nBatches)
	l.res.lateNs = make([]float64, 0, l.nBatches)
	l.res.readNs = make([]float64, 0, 1<<18)
	return l
}

// streamIndex returns the index in the stream of the p-th measured point
// writer k sends: writers take the measured batches round robin.
func streamIndex(w *workload, k, p int) int {
	j := (p/w.batch)*w.writers + k
	return w.setupPoints() + j*w.batch + p%w.batch
}

// batchPoints returns the points of measured batch j.
func (l *load) batchPoints(j int) []model.Point {
	off := l.setupN + j*l.w.batch
	return l.pts[off : off+l.w.batch]
}

// run drives the writers (and the reader) against an instance that set-up
// left at the given stride count, and fills l.res. The write phase takes
// writeFor; the reader runs beside a paced writer, or for readFor after a
// closed-loop one.
func (l *load) run(in *instance, strides uint64, writeFor, readFor time.Duration) {
	l.in = in
	defer func() { l.in = nil }() // a finished load must not keep its server alive
	l.claimed.Store(strides)
	start := time.Now()
	deadline := start.Add(writeFor)
	var stopRead atomic.Bool
	var wg, rwg sync.WaitGroup
	if l.w.paced() {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			l.reader(&stopRead, time.Time{})
		}()
	}
	for k := 0; k < l.w.writers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			l.writer(k, start, deadline)
		}(k)
	}
	wg.Wait()
	l.res.writeWall = time.Since(start)
	if l.w.paced() {
		stopRead.Store(true)
		rwg.Wait()
		l.res.readWall = l.res.writeWall
	} else {
		// The write phase's garbage is not the reads' bill: collect it now,
		// so that every read phase starts with the collector idle instead
		// of some of them (which ones depends on heap size and timing)
		// sharing their cores with a mark phase.
		runtime.GC()
		rstart := time.Now()
		l.reader(&stopRead, rstart.Add(readFor))
		l.res.readWall = time.Since(rstart)
	}
	for k := range l.acked {
		l.res.sent[k] = int(l.acked[k].Load())
		l.res.ackedPoints += l.res.sent[k]
	}
	l.res.attempted, l.res.failed, l.res.failures = l.tally.attempted, l.tally.failed, l.tally.failures
}

// pacer is an open-loop schedule: send n is due at start + n×interval,
// whatever happened to the sends before it, so a stall shows up as lateness
// (and as latency, which is timed from the due instant) rather than as a
// lighter load.
type pacer struct {
	start    time.Time
	interval time.Duration
	now      func() time.Time
	sleep    func(time.Duration)
}

func (p *pacer) due(n int) time.Time { return p.start.Add(time.Duration(n) * p.interval) }

// wait blocks until send n is due and returns the due instant and how far
// behind it the generator is when it gets to send.
func (p *pacer) wait(n int) (due time.Time, late time.Duration) {
	due = p.due(n)
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	return due, p.now().Sub(due)
}

// writer sends the batches it owns (index ≡ k mod writers) until the
// deadline or the end of the stream. After every ack that completes a
// stride it fetches GET /clusters on the same connection and times the
// whole send → visible interval.
func (l *load) writer(k int, start, deadline time.Time) {
	w := l.w
	c := l.in.conn()
	defer c.close()
	var body []byte
	var ackNs, visNs, lateNs []float64
	batches, strides := 0, 0
	exhausted := true
	// Writer 0 sent the set-up batches under its client name.
	seq := uint64(0)
	if w.withSeq && k == 0 {
		seq = uint64((l.setupN + w.batch - 1) / w.batch)
	}
	pace := pacer{start: start, now: time.Now, sleep: time.Sleep}
	if w.paced() {
		pace.interval = time.Duration(float64(w.batch) / w.pacePointsPerS * float64(time.Second))
	}
	for j, n := k, 0; j < l.nBatches; j, n = j+w.writers, n+1 {
		sendAt := time.Now()
		if w.paced() {
			if !pace.due(n).Before(deadline) {
				exhausted = false
				break
			}
			due, late := pace.wait(n)
			lateNs = append(lateNs, float64(late))
			sendAt = due
		} else if !sendAt.Before(deadline) {
			exhausted = false
			break
		}
		body = appendBatch(body[:0], l.batchPoints(j), w.cfg.Dims)
		var hdr []string
		if w.withSeq {
			seq++
			hdr = []string{"X-Disc-Client", writerClient(k), "X-Disc-Seq", strconv.FormatUint(seq, 10)}
		}
		sp := l.rec.begin("server.ingest_nostride", -1, int64(j))
		t0 := time.Now()
		rp, err := c.do("POST", "/ingest", body, hdr...)
		rtt := time.Since(t0)
		l.rec.end(sp)
		if err != nil || rp.status != http.StatusOK {
			l.tally.fail("batch %d: ingest failed: status %d err %v: %s", j, rp.status, err, bytes.TrimSpace(rp.body))
			continue
		}
		var a ack
		if err := json.Unmarshal(rp.body, &a); err != nil || a.Accepted != w.batch {
			l.tally.fail("batch %d: bad ack %q: %v", j, rp.body, err)
			continue
		}
		l.tally.ok()
		ackNs = append(ackNs, float64(rtt))
		batches++
		l.acked[k].Add(int64(w.batch))

		// The first writer to see a new stride count claims that stride.
		// With one writer this is exact; with two, an ack can overtake the
		// ack of the batch that really completed the stride, and then the
		// neighbour times it — both were sent within one round trip.
		claimedStride := false
		for {
			cur := l.claimed.Load()
			if a.Strides <= cur {
				break
			}
			if l.claimed.CompareAndSwap(cur, a.Strides) {
				claimedStride = true
				break
			}
		}
		if claimedStride {
			l.rec.rename(sp, "server.ingest_stride")
			gsp := l.rec.begin("server.get_visible", -1, int64(j))
			grp, err := c.do("GET", "/clusters", nil)
			l.rec.end(gsp)
			vis := time.Since(sendAt)
			switch {
			case err != nil || grp.status != http.StatusOK:
				l.tally.fail("batch %d: visibility GET failed: status %d err %v", j, grp.status, err)
			default:
				hs, err := checkView(grp, "strides")
				switch {
				case err != nil:
					l.tally.fail("batch %d: visibility GET: %v", j, err)
				case hs < a.Strides:
					l.tally.fail("batch %d: acked stride %d but first GET saw stride %d", j, a.Strides, hs)
				default:
					l.tally.ok()
					visNs = append(visNs, float64(vis))
					strides++
				}
			}
		}

		if l.dup[j] {
			dsp := l.rec.begin("server.dedup_replay", -1, int64(j))
			drp, err := c.do("POST", "/ingest", body, hdr...)
			l.rec.end(dsp)
			if err != nil || drp.status != http.StatusOK || drp.header.Get("X-Disc-Deduped") != "1" || !bytes.Equal(drp.body, rp.body) {
				l.tally.fail("batch %d: duplicate not replayed byte-identically: status %d deduped %q err %v",
					j, drp.status, drp.header.Get("X-Disc-Deduped"), err)
			} else {
				l.tally.ok()
			}
		}
	}
	l.resMu.Lock()
	l.res.ackNs = append(l.res.ackNs, ackNs...)
	l.res.visNs = append(l.res.visNs, visNs...)
	l.res.lateNs = append(l.res.lateNs, lateNs...)
	l.res.batches += batches
	l.res.strides += strides
	l.res.exhausted = l.res.exhausted || exhausted
	l.resMu.Unlock()
}

// residentIndex picks the stream index of a point that is resident and
// visible now: drawn from the recent part of one writer's acked points,
// short of the newest (possibly still pending below the stride boundary)
// and clear of the oldest (about to be evicted).
func (l *load) residentIndex(rng *rand.Rand) int {
	w := l.w
	k := rng.Intn(w.writers)
	a := int(l.acked[k].Load())
	span := (w.window - 8*w.stride) / (w.writers * w.writers)
	guard := 2*w.stride/w.writers + w.batch
	p := a - guard - 1 - rng.Intn(span)
	if w.writers == 1 {
		// One writer sends the stream in order, so positions before the
		// measured phase are simply set-up points.
		return l.setupN + p
	}
	if p < 0 {
		p = 0
	}
	return streamIndex(w, k, p)
}

// reader is the closed-loop query connection: 70% GET /points/{id} of
// resident ids, 20% GET /clusters (half with If-None-Match), 10% GET
// /stats. It stops at the until time or, when until is zero, when stop is
// set.
func (l *load) reader(stop *atomic.Bool, until time.Time) {
	c := l.in.conn()
	defer c.close()
	rng := rand.New(rand.NewSource(int64(len(l.pts)) ^ 0x7ead))
	var etag string
	readNs := l.res.readNs
	for n := 0; ; n++ {
		if until.IsZero() {
			if stop.Load() {
				break
			}
		} else if n%16 == 0 && !time.Now().Before(until) {
			break
		}
		roll := rng.Float64()
		var name, path, bodyKey string
		var hdr []string
		switch {
		case roll < 0.70:
			name, path = "server.get_point", "/points/"+strconv.FormatInt(l.pts[l.residentIndex(rng)].ID, 10)
		case roll < 0.80:
			name, path, bodyKey = "server.get_clusters", "/clusters", "strides"
		case roll < 0.90:
			name, path, bodyKey = "server.get_304", "/clusters", "strides"
			hdr = []string{"If-None-Match", etag}
		default:
			name, path, bodyKey = "server.get_stats", "/stats", "Strides"
		}
		sp := l.rec.begin(name, -1, int64(n))
		t0 := time.Now()
		rp, err := c.do("GET", path, nil, hdr...)
		d := time.Since(t0)
		l.rec.end(sp)
		readNs = append(readNs, float64(d))
		switch {
		case err != nil:
			l.tally.fail("read %s: %v", path, err)
		case rp.status == http.StatusNotModified && hdr != nil:
			l.tally.ok()
		case rp.status != http.StatusOK:
			l.tally.fail("read %s: status %d", path, rp.status)
		case bodyKey != "":
			if hdr != nil {
				// A stride was published since the cached ETag: a fresh
				// 200, not the 304 this span is named for.
				l.rec.rename(sp, "server.get_clusters")
			}
			if _, err := checkView(rp, bodyKey); err != nil {
				l.tally.fail("read %s: %v", path, err)
			} else {
				l.tally.ok()
			}
			if path == "/clusters" {
				etag = rp.header.Get("ETag")
			}
		default:
			l.tally.ok()
		}
	}
	l.res.readNs = readNs
}

// tempDir makes a fresh directory for one instance's log under root.
func tempDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, pattern)
}
