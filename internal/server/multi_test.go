package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"disc/internal/core"
	"disc/internal/model"

	"context"
)

func testMultiConfig() MultiConfig {
	return MultiConfig{
		Default: Config{
			Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
			Window:  200,
			Stride:  50,
		},
	}
}

func newTestMulti(t *testing.T, mcfg MultiConfig) (*httptest.Server, *Multi) {
	t.Helper()
	m, err := NewMulti(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(ts.Close)
	return ts, m
}

// createStream POSTs a stream spec and returns the response (caller closes).
func createStream(t *testing.T, ts *httptest.Server, spec streamSpec) *http.Response {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/streams", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustCreateStream(t *testing.T, ts *httptest.Server, spec streamSpec) streamInfo {
	t.Helper()
	resp := createStream(t, ts, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("creating stream %q: status %d: %s", spec.Name, resp.StatusCode, body)
	}
	var info streamInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func postStreamPoints(t *testing.T, ts *httptest.Server, stream string, pts []ingestPoint) *http.Response {
	t.Helper()
	body, _ := json.Marshal(pts)
	resp, err := http.Post(ts.URL+"/streams/"+stream+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func listStreams(t *testing.T, ts *httptest.Server) []streamInfo {
	t.Helper()
	var out struct {
		Streams []streamInfo `json:"streams"`
	}
	resp := getJSON(t, ts.URL+"/streams", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /streams status %d", resp.StatusCode)
	}
	return out.Streams
}

func TestMultiStreamCRUD(t *testing.T) {
	ts, _ := newTestMulti(t, testMultiConfig())

	// The default stream exists from birth.
	if got := listStreams(t, ts); len(got) != 1 || got[0].Name != DefaultStream {
		t.Fatalf("initial inventory %+v, want just %q", got, DefaultStream)
	}

	// Create inherits the template for omitted fields and overrides the rest.
	info := mustCreateStream(t, ts, streamSpec{Name: "tenant-a", Eps: 3})
	if info.Config.Eps != 3 || info.Config.Dims != 2 || info.Config.MinPts != 4 {
		t.Fatalf("created config %+v, want eps=3 with inherited dims/minPts", info.Config)
	}
	if info.Window != 200 || info.Stride != 50 {
		t.Fatalf("created stream %+v, want inherited window/stride", info)
	}

	// Duplicate name → 409.
	resp := createStream(t, ts, streamSpec{Name: "tenant-a"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create status %d, want 409", resp.StatusCode)
	}
	// Malformed names → 400 (they must be safe as URL segments, label
	// values, and directory names).
	for _, bad := range []string{"", "has space", "slash/y", "-leading", "x" + string(make([]byte, 80))} {
		resp := createStream(t, ts, streamSpec{Name: bad})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("name %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Inventory is sorted by name.
	got := listStreams(t, ts)
	if len(got) != 2 || got[0].Name != DefaultStream || got[1].Name != "tenant-a" {
		t.Fatalf("inventory %+v, want [default tenant-a]", got)
	}

	// Delete; a second delete and requests to the gone stream 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/streams/tenant-a", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status %d, want 404", dresp2.StatusCode)
	}
	iresp := postStreamPoints(t, ts, "tenant-a", []ingestPoint{{ID: 1, Coords: []float64{0, 0}}})
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest to deleted stream status %d, want 404", iresp.StatusCode)
	}

	// The default stream is undeletable — the legacy aliases must resolve.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/streams/default", nil)
	dresp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp3.Body.Close()
	if dresp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("delete default status %d, want 400", dresp3.StatusCode)
	}
}

func TestMultiStreamLimit(t *testing.T) {
	setForTest(t, &maxStreams, 2) // default + one tenant
	ts, _ := newTestMulti(t, testMultiConfig())
	mustCreateStream(t, ts, streamSpec{Name: "one"})
	resp := createStream(t, ts, streamSpec{Name: "two"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit create status %d, want 429", resp.StatusCode)
	}
	// Deleting frees the slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/streams/one", nil)
	dresp, _ := http.DefaultClient.Do(req)
	dresp.Body.Close()
	mustCreateStream(t, ts, streamSpec{Name: "two"})
}

// TestStreamCreateRejectsConnectivityKey: the connectivity strategy is not a
// per-stream setting. A create body that still carries the key is refused
// like any other unknown field, whatever its value, and registers nothing;
// GET /streams rows carry no such field either.
func TestStreamCreateRejectsConnectivityKey(t *testing.T) {
	ts, _ := newTestMulti(t, testMultiConfig())
	for _, v := range []string{"dynamic", "msbfs", ""} {
		resp, err := http.Post(ts.URL+"/streams", "application/json",
			strings.NewReader(`{"name":"x","connectivity":"`+v+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "connectivity") {
			t.Errorf("connectivity=%q: status %d body %q, want a 400 naming the field", v, resp.StatusCode, body)
		}
	}
	if got := listStreams(t, ts); len(got) != 1 {
		t.Fatalf("rejected creates registered streams: %+v", got)
	}
	if body := getBodyString(t, ts.URL+"/streams"); strings.Contains(body, "connectivity") {
		t.Fatalf("GET /streams still reports a connectivity field: %s", body)
	}
}

// TestMultiCreateRejectsBadConfig: POST /streams enforces the same
// parameter validation discserver applies at startup — out-of-range dims,
// non-positive eps/minPts, stride > window — as 400s, with no stream
// registered.
func TestMultiCreateRejectsBadConfig(t *testing.T) {
	ts, _ := newTestMulti(t, testMultiConfig())
	for name, spec := range map[string]streamSpec{
		"dims too large":  {Name: "x", Dims: 9},
		"dims negative":   {Name: "x", Dims: -1},
		"eps negative":    {Name: "x", Eps: -1},
		"minPts negative": {Name: "x", MinPts: -3},
		"stride > window": {Name: "x", Window: 10, Stride: 100},
		"window negative": {Name: "x", Window: -5},
	} {
		resp := createStream(t, ts, spec)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, body)
		}
	}
	// Undecodable body → 400 too.
	resp, err := http.Post(ts.URL+"/streams", "application/json", bytes.NewReader([]byte("nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage spec status %d, want 400", resp.StatusCode)
	}
	// A typoed field name must 400, not silently inherit the template
	// (the wire name is minPts).
	resp, err = http.Post(ts.URL+"/streams", "application/json",
		bytes.NewReader([]byte(`{"name":"x","min_pts":4}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field spec status %d, want 400", resp.StatusCode)
	}
	// Nothing leaked into the registry.
	if got := listStreams(t, ts); len(got) != 1 {
		t.Fatalf("rejected creates registered streams: %+v", got)
	}
}

// TestWindowOverEngineCapacity: a window larger than an engine can hold
// (core.MaxPoints) is a 400 from POST /streams before anything is built for
// it. It used to be accepted: a window of 2^34 was a 201 that allocated a
// gigabyte of empty view pages for a stream that could never fill, and 2^62
// panicked inside the handler after taking a dedicated metric label. The label
// stays free for a real stream, and New, NewFollower and NewMulti refuse the
// same window.
func TestWindowOverEngineCapacity(t *testing.T) {
	setForTest(t, &metricStreams, 2) // the default stream's label and one more
	mcfg := testMultiConfig()
	ts, _ := newTestMulti(t, mcfg)
	for i, w := range []int{core.MaxPoints + 1, 1 << 34, 1 << 62} {
		var resp *http.Response
		grew := allocated(func() { resp = createStream(t, ts, streamSpec{Name: fmt.Sprintf("big%d", i), Window: w, Stride: 10}) })
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "engine can hold") {
			t.Fatalf("window %d: status %d %q, want a 400 naming the engine's capacity", w, resp.StatusCode, body)
		}
		if grew > 1<<20 {
			t.Fatalf("window %d: the refused create allocated %d bytes", w, grew)
		}
	}
	mustCreateStream(t, ts, streamSpec{Name: "small", Window: 100, Stride: 10})
	postStreamPoints(t, ts, "small", clusteredBatch(rand.New(rand.NewSource(5)), 0, 3)).Body.Close()
	if body := getBodyString(t, ts.URL+"/metrics"); !strings.Contains(body, `disc_ingested_points_total{stream="small"} 3`) {
		t.Fatal("a refused create took the last dedicated metric label")
	}

	cfg := mcfg.Default
	cfg.Window = core.MaxPoints + 1
	if _, err := New(cfg); err == nil {
		t.Error("New accepted a window over the engine's capacity")
	}
	if _, err := NewFollower(FollowerConfig{Server: cfg, WALDir: t.TempDir()}); err == nil {
		t.Error("NewFollower accepted a window over the engine's capacity")
	}
	if _, err := NewMulti(MultiConfig{Default: cfg}); err == nil {
		t.Error("NewMulti accepted a window over the engine's capacity")
	}
}

// TestMultiLegacyAliases: the historical single-stream routes serve the
// default stream — a pre-multi-tenant client and a /streams/default client
// observe the same state.
func TestMultiLegacyAliases(t *testing.T) {
	ts, _ := newTestMulti(t, testMultiConfig())
	rng := rand.New(rand.NewSource(31))
	resp := postPoints(t, ts, clusteredBatch(rng, 0, 300)) // legacy /ingest
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy ingest status %d", resp.StatusCode)
	}

	var legacy, scoped statsResponse
	getJSON(t, ts.URL+"/stats", &legacy)
	getJSON(t, ts.URL+"/streams/default/stats", &scoped)
	if !reflect.DeepEqual(legacy, scoped) {
		t.Fatalf("legacy /stats %+v != /streams/default/stats %+v", legacy, scoped)
	}
	if legacy.Ingested != 300 {
		t.Fatalf("ingested %d, want 300", legacy.Ingested)
	}
	var lc, sc clustersResponse
	getJSON(t, ts.URL+"/clusters", &lc)
	getJSON(t, ts.URL+"/streams/default/clusters", &sc)
	if !reflect.DeepEqual(lc, sc) {
		t.Fatal("legacy and scoped cluster censuses differ")
	}

	// Scoped ingest is visible through the legacy route too.
	resp = postStreamPoints(t, ts, "default", clusteredBatch(rng, 1000, 100))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scoped ingest status %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/stats", &legacy)
	if legacy.Ingested != 400 {
		t.Fatalf("legacy stats after scoped ingest: %d, want 400", legacy.Ingested)
	}

	// Checkpoint save/restore through both route families round-trips.
	cresp, err := http.Get(ts.URL + "/streams/default/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("scoped checkpoint save: status %d, %d bytes", cresp.StatusCode, len(blob))
	}
	lresp, err := http.Post(ts.URL+"/checkpoint", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("legacy checkpoint restore: status %d", lresp.StatusCode)
	}
}

// TestMultiStreamIsolation is the per-stream isolation suite: two streams
// with different clustering parameters ingest concurrently (run under
// -race), and each must end bit-identical to a standalone single-stream
// server fed the same input — tenancy must not perturb results in either
// direction, and neither stream's points may be visible in the other.
func TestMultiStreamIsolation(t *testing.T) {
	ts, _ := newTestMulti(t, testMultiConfig())
	mustCreateStream(t, ts, streamSpec{Name: "a", Eps: 2, MinPts: 4})
	mustCreateStream(t, ts, streamSpec{Name: "b", Eps: 1.2, MinPts: 3, Window: 100, Stride: 25})

	// Deterministic per-stream workloads over disjoint id spaces.
	const batches, perBatch = 8, 100
	mkBatches := func(seed, idBase int64) [][]ingestPoint {
		rng := rand.New(rand.NewSource(seed))
		out := make([][]ingestPoint, batches)
		for i := range out {
			out[i] = clusteredBatch(rng, idBase+int64(i*perBatch), perBatch)
		}
		return out
	}
	batchesA := mkBatches(41, 0)
	batchesB := mkBatches(42, 1_000_000)

	var wg sync.WaitGroup
	for _, w := range []struct {
		stream  string
		batches [][]ingestPoint
	}{{"a", batchesA}, {"b", batchesB}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range w.batches {
				resp := postStreamPoints(t, ts, w.stream, b)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("stream %s ingest status %d", w.stream, resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Standalone references: the same configs and inputs through plain
	// single-stream servers.
	reference := func(cfg Config, bs [][]ingestPoint) (clustersResponse, statsResponse) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rts := httptest.NewServer(s.Handler())
		defer rts.Close()
		for _, b := range bs {
			resp := postPoints(t, rts, b)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("reference ingest status %d", resp.StatusCode)
			}
		}
		var cr clustersResponse
		var sr statsResponse
		getJSON(t, rts.URL+"/clusters", &cr)
		getJSON(t, rts.URL+"/stats", &sr)
		return cr, sr
	}
	refAC, refAS := reference(Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4}, Window: 200, Stride: 50,
	}, batchesA)
	refBC, refBS := reference(Config{
		Cluster: model.Config{Dims: 2, Eps: 1.2, MinPts: 3}, Window: 100, Stride: 25,
	}, batchesB)

	for _, cmp := range []struct {
		stream string
		refC   clustersResponse
		refS   statsResponse
	}{{"a", refAC, refAS}, {"b", refBC, refBS}} {
		var cr clustersResponse
		var sr statsResponse
		getJSON(t, ts.URL+"/streams/"+cmp.stream+"/clusters", &cr)
		getJSON(t, ts.URL+"/streams/"+cmp.stream+"/stats", &sr)
		if !reflect.DeepEqual(cr, cmp.refC) {
			t.Errorf("stream %s census diverges from standalone run:\n multi %+v\n solo  %+v", cmp.stream, cr, cmp.refC)
		}
		if !reflect.DeepEqual(sr, cmp.refS) {
			t.Errorf("stream %s stats diverge from standalone run:\n multi %+v\n solo  %+v", cmp.stream, sr, cmp.refS)
		}
	}

	// No bleed: a point resident in one stream must be unknown to the other.
	var pr pointResponse
	if resp := getJSON(t, ts.URL+"/streams/a/points/799", &pr); resp.StatusCode != http.StatusOK {
		t.Fatalf("stream a's own point: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/streams/b/points/799", new(pointResponse)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stream a's point visible in stream b: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/streams/a/points/1000799", new(pointResponse)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stream b's point visible in stream a: status %d, want 404", resp.StatusCode)
	}
}

// TestMultiNoGlobalWriteLock proves writes are independent across streams:
// with one stream's write mutex wedged solid, another stream's ingest, the
// registry API, and stream creation all still complete. A registry built on
// a global write lock fails this by timeout.
func TestMultiNoGlobalWriteLock(t *testing.T) {
	ts, m := newTestMulti(t, testMultiConfig())
	mustCreateStream(t, ts, streamSpec{Name: "wedged"})
	mustCreateStream(t, ts, streamSpec{Name: "healthy"})

	// Wedge: hold the stream's write mutex as a stuck writer would.
	wedged := m.Stream("wedged")
	wedged.mu.Lock()
	defer wedged.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(51))
		resp := postStreamPoints(t, ts, "healthy", clusteredBatch(rng, 0, 100))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthy ingest status %d", resp.StatusCode)
		}
		if got := listStreams(t, ts); len(got) != 3 {
			t.Errorf("inventory size %d, want 3", len(got))
		}
		mustCreateStream(t, ts, streamSpec{Name: "born-under-wedge"})
		// Reads on the wedged stream itself still serve (lock-free path).
		if resp := getJSON(t, ts.URL+"/streams/wedged/stats", new(statsResponse)); resp.StatusCode != http.StatusOK {
			t.Errorf("wedged stream read status %d", resp.StatusCode)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("operations on other streams blocked behind one stream's write mutex")
	}
}

// TestMultiCheckpointLifecycle: per-stream durability — the default stream
// keeps the legacy directory layout at the root (existing deployments
// recover in place), tenants get streams/<name> subdirectories, the shared
// writer writes shutdown finals for every stream, and a re-created
// registry (or re-created stream) recovers its own window, never a
// neighbor's. The log records the finals cover are cut before the restart,
// so only a restore from the generations can pass.
func TestMultiCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := testMultiConfig()
	cfg.WALDir = dir
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { m.RunCheckpoints(ctx); close(done) }()

	mustCreateStream(t, ts, streamSpec{Name: "tenant"})
	rng := rand.New(rand.NewSource(61))
	resp := postPoints(t, ts, clusteredBatch(rng, 0, 300)) // default stream
	resp.Body.Close()
	resp = postStreamPoints(t, ts, "tenant", clusteredBatch(rng, 500_000, 250))
	resp.Body.Close()

	cancel() // shutdown finals flush both streams
	<-done
	ts.Close()

	if fi, err := os.Stat(filepath.Join(dir, "streams", "tenant")); err != nil || !fi.IsDir() {
		t.Fatalf("tenant checkpoint directory missing: %v", err)
	}
	cutLogToNewestGeneration(t, dir, cfg.Default)
	cutLogToNewestGeneration(t, filepath.Join(dir, "streams", "tenant"), cfg.Default)

	// Rebirth: the default stream recovers during NewMulti; the tenant
	// recovers when re-registered under its old name.
	m2, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(m2.Handler())
	defer ts2.Close()
	var sr statsResponse
	getJSON(t, ts2.URL+"/stats", &sr)
	if sr.Ingested != 300 {
		t.Fatalf("default stream recovered ingested=%d, want 300", sr.Ingested)
	}
	mustCreateStream(t, ts2, streamSpec{Name: "tenant"})
	getJSON(t, ts2.URL+"/streams/tenant/stats", &sr)
	if sr.Ingested != 250 {
		t.Fatalf("tenant recovered ingested=%d, want 250", sr.Ingested)
	}
	// Recovery restored the tenant's own points, not the default's.
	if resp := getJSON(t, ts2.URL+"/streams/tenant/points/500249", new(pointResponse)); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant's own newest point after recovery: status %d", resp.StatusCode)
	}
}

// TestMultiMetricsStreamLabels: the shared /metrics endpoint carries one
// stream-labeled series per tenant (until the cardinality cap), and the
// registry-level stream gauge tracks membership.
func TestMultiMetricsStreamLabels(t *testing.T) {
	ts, _ := newTestMulti(t, testMultiConfig())
	mustCreateStream(t, ts, streamSpec{Name: "tenant-a"})
	rng := rand.New(rand.NewSource(71))
	resp := postStreamPoints(t, ts, "tenant-a", clusteredBatch(rng, 0, 120))
	resp.Body.Close()
	resp = postPoints(t, ts, clusteredBatch(rng, 10_000, 70))
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`disc_ingested_points_total{stream="tenant-a"} 120`,
		`disc_ingested_points_total{stream="default"} 70`,
		`disc_streams 2`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func ExampleMulti() {
	m, _ := NewMulti(MultiConfig{Default: Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4}, Window: 200, Stride: 50,
	}})
	_, err := m.CreateStream("metrics-eu", Config{
		Cluster: model.Config{Dims: 2, Eps: 0.5, MinPts: 6}, Window: 1000, Stride: 100,
	})
	fmt.Println(err, m.Stream("metrics-eu") != nil)
	// Output: <nil> true
}
