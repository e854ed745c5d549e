// Command discload is a read/write load generator for the DISC serving
// read path. One writer per stream pours synthetic points into POST
// /ingest while -readers goroutines hammer the four GET endpoints
// (/clusters, /points/{id}, /events, /stats); at the end it reports read
// throughput, latency quantiles, and served-stride lag, and verifies that
// every single response was internally consistent — the X-Disc-Stride
// header matching the stride counters in the body. Any consistency
// violation makes the run exit nonzero, so the tool doubles as an
// end-to-end check that queries never observe a torn view while the
// stream advances.
//
// With -streams N (N > 1) the run drives N independent tenants through the
// multi-tenant /streams API concurrently — each stream gets its own writer
// over a disjoint id space, readers verify per-stream consistency, and a
// fraction of point probes deliberately ask one stream for another
// stream's ids: any non-404 answer is cross-stream view bleed and fails
// the run.
//
// With -failover the tool runs a kill-and-failover soak instead (see
// failover.go): sequenced batches with duplicate re-deliveries into a
// WAL-backed leader, a mid-run crash with a torn log tail, follower
// catch-up and promotion, and a byte-level comparison of the survivor
// against an uninterrupted reference server.
//
// With no -addr, discload starts an in-process server on a loopback port
// and drives that — the zero-setup mode CI uses:
//
//	discload -duration 5s -readers 8 -window 5000 -stride 250 -batch 100
//	discload -duration 5s -readers 8 -streams 8
//
// Point it at a running discserver with -addr (the server must be fresh or
// its resident ids must not collide with the generator's):
//
//	discload -addr http://localhost:8080 -duration 30s -readers 16
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"disc/internal/model"
	"disc/internal/server"
	"disc/internal/trace"
)

type config struct {
	addr     string
	dims     int
	eps      float64
	minPts   int
	window   int
	stride   int
	readers  int
	duration time.Duration
	batch    int
	slowest  int
	streams  int
	failover bool
	batches  int
	killat   int
	dupes    int
}

// endpointKinds names the request kinds latencies are bucketed by: the
// four GET endpoints plus the ingest POST.
var endpointKinds = []string{"clusters", "points", "events", "stats", "ingest"}

// tenant is one driven stream: its routing prefix, its disjoint id space,
// and the live counters its readers validate against.
type tenant struct {
	name     string
	prefix   string // "" = legacy single-stream routes
	idBase   int64
	latestID atomic.Int64  // upper bound of ingested ids, for /points probes
	strides  atomic.Uint64 // newest stride this tenant's writer has observed
}

// slowReq remembers one slow ingest POST and the traceparent it was sent
// with, so its recorded span tree can be looked up at GET /debug/traces.
type slowReq struct {
	dur     time.Duration
	traceID string
}

// results aggregates one run. Violations counts responses whose stride
// header disagreed with the body's counters; bleeds counts foreign-stream
// probes that did not 404. Both must be zero.
type results struct {
	reads      uint64
	readErrors uint64
	violations uint64
	bleeds     uint64
	writes     uint64
	strides    uint64
	maxLag     uint64
	latencies  []time.Duration            // merged reads, sorted ascending
	perKind    map[string][]time.Duration // per-endpoint, sorted ascending
	slowest    []slowReq                  // N slowest ingest POSTs, slowest first
	elapsed    time.Duration
}

func main() {
	cfg := config{}
	fs := flag.NewFlagSet("discload", flag.ExitOnError)
	bindFlags(fs, &cfg)
	fs.Parse(os.Args[1:])

	if cfg.failover {
		if err := runFailover(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "discload: %v\n", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "discload: %v\n", err)
		os.Exit(1)
	}
	report(os.Stdout, cfg, res)
	if res.violations > 0 || res.bleeds > 0 || res.readErrors > 0 {
		os.Exit(1)
	}
}

func bindFlags(fs *flag.FlagSet, cfg *config) {
	fs.StringVar(&cfg.addr, "addr", "", "base URL of a running discserver (empty = start one in-process)")
	fs.IntVar(&cfg.dims, "dims", 2, "coordinates per point (in-process server only)")
	fs.Float64Var(&cfg.eps, "eps", 2.0, "distance threshold ε (in-process server only)")
	fs.IntVar(&cfg.minPts, "minpts", 4, "density threshold τ (in-process server only)")
	fs.IntVar(&cfg.window, "window", 5000, "sliding window size in points (in-process server only)")
	fs.IntVar(&cfg.stride, "stride", 250, "stride size in points (in-process server only)")
	fs.IntVar(&cfg.readers, "readers", 8, "concurrent query goroutines")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to run")
	fs.IntVar(&cfg.batch, "batch", 100, "points per ingest POST")
	fs.IntVar(&cfg.slowest, "slowest", 5, "ingest requests to report trace ids for (slowest first)")
	fs.IntVar(&cfg.streams, "streams", 1, "independent tenant streams to drive concurrently (>1 uses the /streams API)")
	fs.BoolVar(&cfg.failover, "failover", false, "run the kill-and-failover soak instead of the load run (in-process leader+WAL, follower promotion, exactly-once checks)")
	fs.IntVar(&cfg.batches, "batches", 40, "failover soak: total sequenced batches to deliver")
	fs.IntVar(&cfg.killat, "killat", 0, "failover soak: batch index after which the leader is killed (0 = halfway)")
	fs.IntVar(&cfg.dupes, "dupes", 6, "failover soak: duplicate re-deliveries to inject (each must dedup, not re-apply)")
}

// run executes one load-generation session and returns the aggregated
// results. Factored out of main so tests can drive it directly.
func run(cfg config) (*results, error) {
	if cfg.streams < 1 {
		cfg.streams = 1
	}
	base := cfg.addr
	if base == "" {
		serverCfg := server.Config{
			Cluster: model.Config{Dims: cfg.dims, Eps: cfg.eps, MinPts: cfg.minPts},
			Window:  cfg.window,
			Stride:  cfg.stride,
			// Record ingest traces so the trace ids this run reports are
			// resolvable at /debug/traces in the zero-setup mode too.
			Tracing: true,
		}
		var handler http.Handler
		if cfg.streams > 1 {
			m, err := server.NewMulti(server.MultiConfig{Default: serverCfg})
			if err != nil {
				return nil, err
			}
			handler = m.Handler()
		} else {
			srv, err := server.New(serverCfg)
			if err != nil {
				return nil, err
			}
			handler = srv.Handler()
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: handler}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
	}

	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.readers + cfg.streams + 4,
			MaxIdleConnsPerHost: cfg.readers + cfg.streams + 4,
		},
	}

	// One tenant per stream over disjoint id spaces. The single-stream mode
	// keeps the legacy unprefixed routes, so discload still works against a
	// pre-multi-tenant server.
	tenants := make([]*tenant, cfg.streams)
	if cfg.streams == 1 {
		tenants[0] = &tenant{name: "default"}
	} else {
		for i := range tenants {
			t := &tenant{
				name:   fmt.Sprintf("load-%d", i),
				idBase: int64(i) * 1_000_000_000,
			}
			t.prefix = "/streams/" + t.name
			t.latestID.Store(t.idBase)
			if err := createStream(client, base, t.name); err != nil {
				return nil, err
			}
			tenants[i] = t
		}
	}

	var (
		res        results
		maxLag     atomic.Uint64
		stop       = make(chan struct{})
		wg         sync.WaitGroup
		latMu      sync.Mutex
		latMerged  []time.Duration
		kindMerged = map[string][]time.Duration{}
	)

	// Writers: one per tenant — monotonic ids from the tenant's own base,
	// two Gaussian blobs (the same synthetic shape the server tests cluster
	// on, so the census stays non-trivial). Every POST carries a fresh W3C
	// traceparent; the N slowest requests across all writers are reported
	// with their trace ids so their recorded span trees can be pulled from
	// GET /debug/traces after the run.
	writerErr := make(chan error, len(tenants))
	for ti, t := range tenants {
		wg.Add(1)
		go func(seed int64, t *tenant) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			id := t.idBase
			ingestLat := make([]time.Duration, 0, 4096)
			var slow []slowReq
			defer func() {
				latMu.Lock()
				kindMerged["ingest"] = append(kindMerged["ingest"], ingestLat...)
				for _, s := range slow {
					res.slowest = insertSlow(res.slowest, s, cfg.slowest)
				}
				latMu.Unlock()
			}()
			fail := func(err error) {
				select {
				case writerErr <- fmt.Errorf("stream %s: %w", t.name, err):
				default:
				}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]ingestPoint, cfg.batch)
				for i := range batch {
					c := float64(rng.Intn(2)) * 20
					batch[i] = ingestPoint{
						ID:     id,
						Time:   id,
						Coords: []float64{c + rng.NormFloat64(), c + rng.NormFloat64()},
					}
					id++
				}
				body, _ := json.Marshal(batch)
				ctx := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: 1}
				req, err := http.NewRequest(http.MethodPost, base+t.prefix+"/ingest", bytes.NewReader(body))
				if err != nil {
					fail(fmt.Errorf("ingest: %w", err))
					return
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("traceparent", trace.FormatTraceparent(ctx))
				start := time.Now()
				resp, err := client.Do(req)
				dur := time.Since(start)
				ingestLat = append(ingestLat, dur)
				slow = insertSlow(slow, slowReq{dur: dur, traceID: ctx.TraceID.String()}, cfg.slowest)
				if err != nil {
					fail(fmt.Errorf("ingest: %w", err))
					return
				}
				var ir struct {
					Strides uint64 `json:"strides"`
				}
				json.NewDecoder(resp.Body).Decode(&ir)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("ingest status %d", resp.StatusCode))
					return
				}
				t.strides.Store(ir.Strides)
				t.latestID.Store(id)
				atomic.AddUint64(&res.writes, uint64(cfg.batch))
			}
		}(int64(ti)+1001, t)
	}

	for r := 0; r < cfg.readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			lat := make([]time.Duration, 0, 4096)
			var kindLat [4][]time.Duration
			for {
				select {
				case <-stop:
					latMu.Lock()
					latMerged = append(latMerged, lat...)
					for k := range kindLat {
						kindMerged[endpointKinds[k]] = append(kindMerged[endpointKinds[k]], kindLat[k]...)
					}
					latMu.Unlock()
					return
				default:
				}
				ti := rng.Intn(len(tenants))
				t := tenants[ti]
				var foreign *tenant
				if len(tenants) > 1 {
					foreign = tenants[(ti+1+rng.Intn(len(tenants)-1))%len(tenants)]
				}
				start := time.Now()
				ok, served, kind := doRead(client, base, rng, t, foreign, &res)
				d := time.Since(start)
				lat = append(lat, d)
				kindLat[kind] = append(kindLat[kind], d)
				if ok {
					if newest := t.strides.Load(); newest > served {
						lag := newest - served
						for {
							cur := maxLag.Load()
							if lag <= cur || maxLag.CompareAndSwap(cur, lag) {
								break
							}
						}
					}
				}
			}
		}(int64(r) + 1)
	}

	startAll := time.Now()
	var werr error
	select {
	case <-time.After(cfg.duration):
	case werr = <-writerErr:
	}
	close(stop)
	wg.Wait()
	res.elapsed = time.Since(startAll)
	if werr != nil {
		return nil, werr
	}
	for _, t := range tenants {
		res.strides += t.strides.Load()
	}
	res.maxLag = maxLag.Load()
	sort.Slice(latMerged, func(i, j int) bool { return latMerged[i] < latMerged[j] })
	res.latencies = latMerged
	for _, lats := range kindMerged {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	}
	res.perKind = kindMerged
	return &res, nil
}

// createStream registers one tenant via POST /streams; an already-existing
// stream (409) is fine — the run just continues its id space.
func createStream(client *http.Client, base, name string) error {
	body, _ := json.Marshal(map[string]string{"name": name})
	resp, err := client.Post(base+"/streams", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("creating stream %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("creating stream %s: status %d: %s", name, resp.StatusCode, msg)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// insertSlow keeps the n slowest requests, slowest first.
func insertSlow(slow []slowReq, r slowReq, n int) []slowReq {
	if n <= 0 {
		return slow
	}
	i := sort.Search(len(slow), func(i int) bool { return slow[i].dur < r.dur })
	slow = append(slow, slowReq{})
	copy(slow[i+1:], slow[i:])
	slow[i] = r
	if len(slow) > n {
		slow = slow[:n]
	}
	return slow
}

// doRead issues one randomly chosen GET against tenant t and checks its
// internal consistency. When foreign is non-nil, a fraction of the point
// probes instead ask t for an id belonging to foreign's id space — the
// cross-stream bleed check: t never ingested that id, so anything but 404
// means one stream's view leaked into another. It returns whether the read
// succeeded, the stride the response was served at, and the endpoint kind
// (an index into endpointKinds).
func doRead(client *http.Client, base string, rng *rand.Rand, t, foreign *tenant, res *results) (bool, uint64, int) {
	var url string
	bleedProbe := false
	kind := rng.Intn(4)
	switch kind {
	case 0:
		url = base + t.prefix + "/clusters"
	case 1:
		if foreign != nil && rng.Intn(4) == 0 {
			if span := foreign.latestID.Load() - foreign.idBase; span > 0 {
				bleedProbe = true
				id := foreign.idBase + rng.Int63n(span)
				url = base + t.prefix + "/points/" + strconv.FormatInt(id, 10)
			}
		}
		if !bleedProbe {
			span := t.latestID.Load() - t.idBase
			if span == 0 {
				url = base + t.prefix + "/points/" + strconv.FormatInt(t.idBase, 10)
			} else {
				url = base + t.prefix + "/points/" + strconv.FormatInt(t.idBase+rng.Int63n(span), 10)
			}
		}
	case 2:
		url = base + t.prefix + "/events"
	case 3:
		url = base + t.prefix + "/stats"
	}
	resp, err := client.Get(url)
	if err != nil {
		atomic.AddUint64(&res.readErrors, 1)
		return false, 0, kind
	}
	defer resp.Body.Close()
	atomic.AddUint64(&res.reads, 1)
	served, _ := strconv.ParseUint(resp.Header.Get("X-Disc-Stride"), 10, 64)

	if bleedProbe {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusNotFound {
			atomic.AddUint64(&res.bleeds, 1)
			return false, served, kind
		}
		return true, served, kind
	}

	switch kind {
	case 0:
		var cr struct {
			Strides  uint64 `json:"strides"`
			Window   int    `json:"window"`
			Noise    int    `json:"noise"`
			Clusters []struct {
				Size int `json:"size"`
			} `json:"clusters"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil || resp.StatusCode != http.StatusOK {
			atomic.AddUint64(&res.readErrors, 1)
			return false, served, kind
		}
		total := cr.Noise
		for _, c := range cr.Clusters {
			total += c.Size
		}
		if cr.Strides != served || total != cr.Window {
			atomic.AddUint64(&res.violations, 1)
		}
	case 3:
		var sr struct {
			Stats struct {
				Strides uint64 `json:"strides"`
			} `json:"stats"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusOK {
			atomic.AddUint64(&res.readErrors, 1)
			return false, served, kind
		}
		if sr.Stats.Strides != served {
			atomic.AddUint64(&res.violations, 1)
		}
	default:
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK && !(kind == 1 && resp.StatusCode == http.StatusNotFound) {
			atomic.AddUint64(&res.readErrors, 1)
			return false, served, kind
		}
	}
	return true, served, kind
}

// ingestPoint mirrors the server's wire form.
type ingestPoint struct {
	ID     int64     `json:"id"`
	Time   int64     `json:"time"`
	Coords []float64 `json:"coords"`
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func report(w io.Writer, cfg config, res *results) {
	secs := res.elapsed.Seconds()
	fmt.Fprintf(w, "discload: %d streams, %d reads (%.0f/s), %d writes (%.0f/s), %d strides over %v\n",
		cfg.streams, res.reads, float64(res.reads)/secs, res.writes, float64(res.writes)/secs,
		res.strides, res.elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "discload: read latency p50=%v p95=%v p99=%v max=%v\n",
		quantile(res.latencies, 0.50).Round(time.Microsecond),
		quantile(res.latencies, 0.95).Round(time.Microsecond),
		quantile(res.latencies, 0.99).Round(time.Microsecond),
		quantile(res.latencies, 1.0).Round(time.Microsecond))
	for _, kind := range endpointKinds {
		lats := res.perKind[kind]
		if len(lats) == 0 {
			continue
		}
		fmt.Fprintf(w, "discload:   %-8s n=%-7d p50=%v p95=%v p99=%v max=%v\n",
			kind, len(lats),
			quantile(lats, 0.50).Round(time.Microsecond),
			quantile(lats, 0.95).Round(time.Microsecond),
			quantile(lats, 0.99).Round(time.Microsecond),
			quantile(lats, 1.0).Round(time.Microsecond))
	}
	if len(res.slowest) > 0 {
		fmt.Fprintln(w, "discload: slowest ingest requests (GET /debug/traces?trace=<id>):")
		for _, s := range res.slowest {
			fmt.Fprintf(w, "discload:   %-12v trace=%s\n", s.dur.Round(time.Microsecond), s.traceID)
		}
	}
	fmt.Fprintf(w, "discload: max served-stride lag %d, consistency violations %d, cross-stream bleeds %d, read errors %d\n",
		res.maxLag, res.violations, res.bleeds, res.readErrors)
	switch {
	case res.violations > 0:
		fmt.Fprintln(w, "discload: FAIL — responses disagreed with their stride header")
	case res.bleeds > 0:
		fmt.Fprintln(w, "discload: FAIL — one stream's points were visible in another stream")
	case res.readErrors > 0:
		fmt.Fprintln(w, "discload: FAIL — read errors")
	default:
		fmt.Fprintln(w, "discload: OK")
	}
}
