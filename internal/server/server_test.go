package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"disc/internal/ckpt"
	"disc/internal/model"
	"disc/internal/window"
)

func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	s, err := New(Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:  200,
		Stride:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func postPoints(t *testing.T, ts *httptest.Server, pts []ingestPoint) *http.Response {
	t.Helper()
	body, _ := json.Marshal(pts)
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func clusteredBatch(rng *rand.Rand, idBase int64, n int) []ingestPoint {
	out := make([]ingestPoint, n)
	for i := range out {
		c := float64(rng.Intn(2)) * 20
		out[i] = ingestPoint{
			ID:     idBase + int64(i),
			Time:   idBase + int64(i),
			Coords: []float64{c + rng.NormFloat64(), c + rng.NormFloat64()},
		}
	}
	return out
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestIngestAndClusters(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(1))
	resp := postPoints(t, ts, clusteredBatch(rng, 0, 400))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if ir.Accepted != 400 || ir.Strides == 0 {
		t.Fatalf("ingest response %+v", ir)
	}

	var cr clustersResponse
	getJSON(t, ts.URL+"/clusters", &cr)
	if cr.Window != 200 {
		t.Fatalf("window %d, want 200", cr.Window)
	}
	if len(cr.Clusters) < 2 {
		t.Fatalf("found %d clusters, want >= 2", len(cr.Clusters))
	}
	total := cr.Noise
	for _, c := range cr.Clusters {
		total += c.Size
		if c.Size != c.Cores+c.Borders {
			t.Fatalf("cluster %d: size %d != cores %d + borders %d", c.ID, c.Size, c.Cores, c.Borders)
		}
	}
	if total != cr.Window {
		t.Fatalf("sizes sum to %d, window %d", total, cr.Window)
	}
}

func TestPointLookup(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(2))
	postPoints(t, ts, clusteredBatch(rng, 0, 250)).Body.Close()

	// The newest points are certainly in the window.
	var pr pointResponse
	resp := getJSON(t, fmt.Sprintf("%s/points/%d", ts.URL, 249), &pr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if pr.ID != 249 || pr.Label == "" {
		t.Fatalf("point response %+v", pr)
	}
	// Expired or unknown points are 404.
	if resp := getJSON(t, ts.URL+"/points/0", new(pointResponse)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired point status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/points/abc", new(pointResponse)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status %d, want 400", resp.StatusCode)
	}
}

func TestEventsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(3))
	postPoints(t, ts, clusteredBatch(rng, 0, 400)).Body.Close()

	var evs []eventRecord
	getJSON(t, ts.URL+"/events", &evs)
	if len(evs) == 0 {
		t.Fatal("no events after clustered ingest")
	}
	foundEmergence := false
	for _, ev := range evs {
		if ev.Type == "emergence" {
			foundEmergence = true
		}
		if ev.Seq == 0 {
			t.Fatal("event without sequence number")
		}
	}
	if !foundEmergence {
		t.Fatalf("no emergence among %d events", len(evs))
	}
	// since= filters.
	last := evs[len(evs)-1].Seq
	var tail []eventRecord
	getJSON(t, fmt.Sprintf("%s/events?since=%d", ts.URL, last), &tail)
	if len(tail) != 0 {
		t.Fatalf("since=%d returned %d events", last, len(tail))
	}
	if resp := getJSON(t, ts.URL+"/events?since=x", &tail); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("bad since accepted")
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(4))
	postPoints(t, ts, clusteredBatch(rng, 0, 300)).Body.Close()
	var sr statsResponse
	getJSON(t, ts.URL+"/stats", &sr)
	if sr.Ingested != 300 || sr.Resident != 200 {
		t.Fatalf("stats %+v", sr)
	}
	if sr.Stats.RangeSearches == 0 {
		t.Fatal("no work recorded")
	}
}

func TestIngestValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	// Wrong dimensionality.
	resp := postPoints(t, ts, []ingestPoint{{ID: 1, Coords: []float64{1, 2, 3}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("3-coord point accepted: %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Not JSON.
	r2, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader([]byte("nope")))
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage accepted: %d", r2.StatusCode)
	}
	r2.Body.Close()
}

func TestDuplicateIDRejectedNotFatal(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(5))
	postPoints(t, ts, clusteredBatch(rng, 0, 200)).Body.Close()
	// Re-sending ids still in the window is caught by up-front batch
	// validation: 400 with zero side effects, never a crash. (It used to
	// surface as a mid-batch engine 409 that left the slider desynced.)
	resp := postPoints(t, ts, clusteredBatch(rng, 100, 200))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate ingest status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	var sr statsResponse
	getJSON(t, ts.URL+"/stats", &sr)
	if sr.Ingested != 200 {
		t.Fatalf("rejected batch moved ingested to %d, want 200", sr.Ingested)
	}
	// And the service must still be healthy.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatal("service unhealthy after rejected batch")
	}
	hz.Body.Close()
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatal("healthz failed")
	}
	resp.Body.Close()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Cluster: model.Config{}, Window: 10, Stride: 5}); err == nil {
		t.Error("invalid cluster config accepted")
	}
	if _, err := New(Config{Cluster: model.Config{Dims: 2, Eps: 1, MinPts: 2}, Window: 5, Stride: 10}); err == nil {
		t.Error("stride > window accepted")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(6))
	postPoints(t, ts, clusteredBatch(rng, 0, 300)).Body.Close()

	// Snapshot the service.
	resp, err := http.Get(ts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("checkpoint save: status %d, %d bytes", resp.StatusCode, len(blob))
	}
	var before clustersResponse
	getJSON(t, ts.URL+"/clusters", &before)

	// A server built from the checkpoint continues the stream.
	ts2 := httptest.NewServer(mustRestore(t, testWALConfig(), blob).Handler())
	t.Cleanup(ts2.Close)
	var after clustersResponse
	getJSON(t, ts2.URL+"/clusters", &after)
	if after.Window != before.Window || len(after.Clusters) != len(before.Clusters) {
		t.Fatalf("restored census differs: %+v vs %+v", after, before)
	}
	// Resume ingestion exactly where the checkpoint left off.
	resp3 := postPoints(t, ts2, clusteredBatch(rng, 300, 200))
	if resp3.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp3.Body)
		t.Fatalf("resume ingest: status %d: %s", resp3.StatusCode, body)
	}
	resp3.Body.Close()
	var sr statsResponse
	getJSON(t, ts2.URL+"/stats", &sr)
	if sr.Ingested != 500 {
		t.Fatalf("ingested = %d, want 500 (300 pre-checkpoint + 200 resumed)", sr.Ingested)
	}
}

// TestIngestBatchAtomicValidation: every rejecting exit of POST /ingest
// leaves zero side effects — the checkpoint bytes (engine, window, stream
// position, dedup table), the write-ahead log directory, the published view
// and the ingest counter are what they were before the request. The original
// handler validated and pushed per point, so points before a bad one were
// silently ingested (and strides advanced) behind the 400.
func TestIngestBatchAtomicValidation(t *testing.T) {
	setForTest(t, &maxIngestBytes, 64<<10)
	cfg := testWALConfig()
	ts, s, dir := newWALServer(t, cfg)
	s.st.seqs = newSeqTable(2, seqClients)
	rng := rand.New(rand.NewSource(12))
	// 230 points — a full window and 30 pending — as sequence numbers 1-3, of which the dedup window keeps {2, 3}.
	for seq, n := range []int{100, 100, 30} {
		resp := postPointsSeq(t, ts.URL, clusteredBatch(rng, int64(seq)*1000, n), "loader", uint64(seq+1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("setup batch %d: status %d: %s", seq, resp.StatusCode, readBody(t, resp))
		}
		resp.Body.Close()
	}

	dirSize := func() (n int64) {
		filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
			if err == nil && !fi.IsDir() {
				n += fi.Size()
			}
			return nil
		})
		return n
	}
	jsonOf := func(pts ...ingestPoint) []byte {
		b, _ := json.Marshal(pts)
		return b
	}
	fresh := jsonOf(clusteredBatch(rng, 50_000, 4)...)
	midBatchDims := []ingestPoint{
		{ID: 50_001, Coords: []float64{0, 0}},
		{ID: 50_002, Coords: []float64{1, 1}},
		{ID: 50_003, Coords: []float64{1, 2, 3}},
		{ID: 50_004, Coords: []float64{2, 2}},
	}
	reject := func(name string, body []byte, hdr map[string]string, want int) {
		t.Helper()
		ckptBefore, sizeBefore, viewBefore, mxBefore := checkpointBytes(t, s), dirSize(), s.st.view.Load(), s.sm.Ingested.Value()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := readBody(t, resp); resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d: %s", name, resp.StatusCode, want, got)
		}
		if !bytes.Equal(checkpointBytes(t, s), ckptBefore) {
			t.Errorf("%s: checkpoint bytes changed behind the %d", name, want)
		}
		if got := dirSize(); got != sizeBefore {
			t.Errorf("%s: write-ahead log grew from %d to %d bytes behind the %d", name, sizeBefore, got, want)
		}
		if s.st.view.Load() != viewBefore {
			t.Errorf("%s: a view was published behind the %d", name, want)
		}
		if got := s.sm.Ingested.Value(); got != mxBefore {
			t.Errorf("%s: ingest counter moved from %d to %d behind the %d", name, mxBefore, got, want)
		}
	}

	reject("bad seq header", fresh, map[string]string{"X-Disc-Seq": "seven"}, http.StatusBadRequest)
	reject("client name over the limit", fresh,
		map[string]string{"X-Disc-Seq": "4", "X-Disc-Client": strings.Repeat("c", maxClientName+1)}, http.StatusBadRequest)
	reject("body over the limit", bytes.Repeat([]byte(" "), 65<<10), nil, http.StatusRequestEntityTooLarge)
	reject("bad JSON", []byte("nope"), nil, http.StatusBadRequest)
	reject("wrong dims mid-batch", jsonOf(midBatchDims...), nil, http.StatusBadRequest)
	reject("non-finite coordinate", []byte(`[{"id":50001,"time":0,"coords":[1e999,0]}]`), nil, http.StatusBadRequest)
	reject("intra-batch duplicate", jsonOf(midBatchDims[0], midBatchDims[1], midBatchDims[0]), nil, http.StatusBadRequest)
	reject("window-resident duplicate", jsonOf(midBatchDims[0], ingestPoint{ID: 1000, Coords: []float64{0, 0}}), nil, http.StatusBadRequest)
	reject("seq below the dedup window", fresh, map[string]string{"X-Disc-Seq": "1", "X-Disc-Client": "loader"}, http.StatusConflict)

	// The same points without the bad one are still ingestible (nothing was
	// pushed into the slider on the failed attempt).
	resp := postPoints(t, ts, append(midBatchDims[:2:2], midBatchDims[3]))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean retry status %d, want 200", resp.StatusCode)
	}

	// Break the log out from under the server. The append that discovers it
	// answers 503 after applying its batch (apply comes before log); every
	// request after that meets the latch and touches nothing.
	s.mu.Lock()
	s.wal.Close()
	s.mu.Unlock()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp = postPoints(t, ts, clusteredBatch(rng, 70_000, 3))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("append onto broken log: status %d, want 503", resp.StatusCode)
	}
	reject("latched log failure", fresh, nil, http.StatusServiceUnavailable)
}

// TestIngestConflictReportsApplied: when the engine rejects an advance
// mid-batch, the 409 body must say how many points of the batch were
// applied, so the client knows where it stands. Up-front validation now
// catches duplicates before they can trip the engine, so the failure is
// injected through the advance seam.
func TestIngestConflictReportsApplied(t *testing.T) {
	ts, s := newTestServer(t)
	rng := rand.New(rand.NewSource(9))
	postPoints(t, ts, clusteredBatch(rng, 0, 200)).Body.Close()

	s.st.testAdvanceErr = func(*window.Step) error {
		return errors.New("injected advance failure")
	}
	// 100 fresh points: the stride fires on the 50th push of this batch
	// and the injected failure rejects it, with 49 points already applied
	// (the triggering 50th is rolled back out of the slider).
	resp := postPoints(t, ts, clusteredBatch(rng, 200, 100))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rejected ingest status %d, want 409", resp.StatusCode)
	}
	var ie ingestError
	if err := json.NewDecoder(resp.Body).Decode(&ie); err != nil {
		t.Fatalf("409 body is not the ingest error JSON: %v", err)
	}
	if ie.Error == "" {
		t.Fatal("409 body carries no error message")
	}
	if ie.Applied != 49 {
		t.Fatalf("applied = %d, want 49 (one full stride minus the rejected trigger)", ie.Applied)
	}
	// /stats serves the published view, which still reflects the last
	// successful stride: the 49 buffered survivors are not visible until
	// the next stride lands.
	var sr statsResponse
	getJSON(t, ts.URL+"/stats", &sr)
	if sr.Ingested != 200 {
		t.Fatalf("view ingested = %d, want 200 (last published stride)", sr.Ingested)
	}
	if got := s.st.ingested; got != 249 {
		t.Fatalf("live ingested = %d, want 200 + 49 applied", got)
	}
}

// TestCheckpointConfigMismatchRejected: a checkpoint taken under different
// clustering thresholds must be refused by recovery, not silently adopted.
func TestCheckpointConfigMismatchRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(10))
	postPoints(t, ts, clusteredBatch(rng, 0, 250)).Body.Close()
	resp, err := http.Get(ts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	for _, other := range []model.Config{
		{Dims: 3, Eps: 2, MinPts: 4},   // different dims
		{Dims: 2, Eps: 2.5, MinPts: 4}, // different eps
		{Dims: 2, Eps: 2, MinPts: 7},   // different minPts
	} {
		_, err := restoreServer(t, Config{Cluster: other, Window: 200, Stride: 50}, blob)
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("config %+v: mismatched checkpoint restored with %v, want ErrCheckpointMismatch", other, err)
		}
		if !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("config %+v: undescriptive mismatch error: %v", other, err)
		}
	}
}

// TestCheckpointRestoreSyncsIngestCounter: after a restore, /metrics'
// disc_ingested_points_total must equal /stats' ingested — the original
// code left the counter at its pre-restore value forever. A stream deleted
// and registered again keeps its metric bundle, so the re-created stream,
// recovering a checkpoint from its directory, starts from a stale counter.
func TestCheckpointRestoreSyncsIngestCounter(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(11))
	postPoints(t, ts, clusteredBatch(rng, 0, 300)).Body.Close()
	resp, err := http.Get(ts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	cfg := testWALConfig()
	m, err := NewMulti(MultiConfig{Default: cfg, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(m.Handler())
	t.Cleanup(ts2.Close)
	if _, err := m.CreateStream("x", cfg); err != nil {
		t.Fatal(err)
	}
	// Pre-restore traffic under the same stream label, so a stale counter
	// cannot accidentally look right.
	body, _ := json.Marshal(clusteredBatch(rng, 10_000, 250))
	r2, err := http.Post(ts2.URL+"/streams/x/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if err := m.DeleteStream("x"); err != nil {
		t.Fatal(err)
	}
	store, err := ckpt.Open(m.streamDir("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(blob); err != nil {
		t.Fatal(err)
	}
	s2, err := m.CreateStream("x", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sr statsResponse
	getJSON(t, ts2.URL+"/streams/x/stats", &sr)
	if sr.Ingested != 300 {
		t.Fatalf("stats ingested = %d, want 300", sr.Ingested)
	}
	if got := s2.sm.Ingested.Value(); got != 300 {
		t.Fatalf("metrics counter = %d after restore, want 300", got)
	}
	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), `disc_ingested_points_total{stream="x"} 300`) {
		t.Fatal("/metrics does not report the restored ingest total")
	}
}

// TestEventsEmptyIsArray: no matching events must render as JSON [], not
// null — clients iterate the result.
func TestEventsEmptyIsArray(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimSpace(string(body)); got != "[]" {
		t.Fatalf("empty events rendered %q, want []", got)
	}
	// Same once events exist but the cursor excludes them all.
	rng := rand.New(rand.NewSource(12))
	postPoints(t, ts, clusteredBatch(rng, 0, 300)).Body.Close()
	resp, err = http.Get(ts.URL + "/events?since=999999")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimSpace(string(body)); got != "[]" {
		t.Fatalf("filtered-out events rendered %q, want []", got)
	}
}

// TestRequestBodyLimits: an oversized ingest body gets 413, and a checkpoint
// generation larger than the stream could have written does not restore.
func TestRequestBodyLimits(t *testing.T) {
	setForTest(t, &maxIngestBytes, 512)
	s, err := New(Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:  200,
		Stride:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	big := bytes.Repeat([]byte("x"), 2048)
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest status %d, want 413", resp.StatusCode)
	}
	if _, err := restoreServer(t, s.cfg, make([]byte, s.checkpointMaxBytes()+1)); !errors.Is(err, ckpt.ErrTooLarge) {
		t.Fatalf("oversized checkpoint restored with %v, want ckpt.ErrTooLarge", err)
	}
	// Small bodies still work under the tightened limits.
	r2 := postPoints(t, ts, []ingestPoint{{ID: 1, Coords: []float64{0, 0}}})
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("small ingest under limit: status %d", r2.StatusCode)
	}
}

func TestCheckpointLoadRejectsGarbage(t *testing.T) {
	if _, err := restoreServer(t, testWALConfig(), []byte("junk")); !errors.Is(err, errBadCheckpoint) {
		t.Fatalf("garbage checkpoint restored with %v, want errBadCheckpoint", err)
	}
}
