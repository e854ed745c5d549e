package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"disc/internal/ckpt"
	"disc/internal/model"
)

// --- seq table unit tests -------------------------------------------------

func TestSeqTableWindowAndClassification(t *testing.T) {
	tbl := newSeqTable(3, 8)
	for seq := uint64(1); seq <= 5; seq++ {
		tbl.record("c", seq, []byte(fmt.Sprintf("resp-%d", seq)), seq*10)
	}
	// Window 3 keeps seqs 3..5; 1 and 2 fell off the front.
	if resp, hit, _ := tbl.lookup("c", 4); !hit || string(resp) != "resp-4" {
		t.Fatalf("lookup(4) = (%q, %v), want hit with resp-4", resp, hit)
	}
	if _, hit, tooOld := tbl.lookup("c", 2); hit || !tooOld {
		t.Fatalf("lookup(2) = hit=%v tooOld=%v, want evicted (tooOld)", hit, tooOld)
	}
	if _, hit, tooOld := tbl.lookup("c", 6); hit || tooOld {
		t.Fatalf("lookup(6) = hit=%v tooOld=%v, want fresh", hit, tooOld)
	}
	if _, hit, tooOld := tbl.lookup("stranger", 1); hit || tooOld {
		t.Fatalf("unknown client = hit=%v tooOld=%v, want fresh", hit, tooOld)
	}
	// Re-recording an already-known seq must keep the original response.
	tbl.record("c", 4, []byte("impostor"), 99)
	if resp, _, _ := tbl.lookup("c", 4); string(resp) != "resp-4" {
		t.Fatalf("re-record overwrote original response: %q", resp)
	}
}

func TestSeqTableEvictionDeterminism(t *testing.T) {
	// Two tables fed the same history in different client orders must
	// evict the same victim: eviction keys on (LastUsed, name), never on
	// map iteration order.
	build := func(names []string) *seqTable {
		tbl := newSeqTable(4, 2)
		for i, name := range names {
			tbl.record(name, 1, []byte("r"), uint64(10+i))
		}
		// A third client forces one eviction.
		tbl.record("zz", 1, []byte("r"), 100)
		return tbl
	}
	a := build([]string{"alpha", "beta"})
	b := build([]string{"alpha", "beta"})
	if !reflect.DeepEqual(a.persist(), b.persist()) {
		t.Fatalf("eviction diverged:\n%v\nvs\n%v", a.persist(), b.persist())
	}
	// alpha (LastUsed 10) is older than beta (11): alpha must be gone.
	if _, ok := a.m["alpha"]; ok {
		t.Fatal("eviction kept the least-recently-used client")
	}
	if _, ok := a.m["beta"]; !ok {
		t.Fatal("eviction removed the wrong client")
	}
}

func TestSeqTablePersistRestoreRoundTrip(t *testing.T) {
	tbl := newSeqTable(4, 8)
	tbl.record("b", 7, []byte("b7"), 20)
	tbl.record("a", 1, []byte("a1"), 10)
	tbl.record("a", 2, []byte("a2"), 15)
	pcs := tbl.persist()
	if len(pcs) != 2 || pcs[0].Client != "a" || pcs[1].Client != "b" {
		t.Fatalf("persist not sorted by client: %+v", pcs)
	}
	fresh := newSeqTable(4, 8)
	fresh.restore(pcs)
	if !reflect.DeepEqual(fresh.persist(), pcs) {
		t.Fatalf("restore round trip diverged:\n%v\nvs\n%v", fresh.persist(), pcs)
	}
}

// --- exactly-once ingest over HTTP ---------------------------------------

// postPointsSeq posts a batch with the idempotency headers set.
func postPointsSeq(t *testing.T, url string, pts []ingestPoint, client string, seq uint64) *http.Response {
	t.Helper()
	body, _ := json.Marshal(pts)
	req, err := http.NewRequest(http.MethodPost, url+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Disc-Client", client)
	req.Header.Set("X-Disc-Seq", strconv.FormatUint(seq, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newWALServer builds a standalone server with a write-ahead log attached
// in a temp dir, returning the test server, the server, and the WAL dir.
func newWALServer(t *testing.T, cfg Config) (*httptest.Server, *Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := ckpt.OpenWAL(dir, ckpt.WithWALMaxPayload(s.walRecordMaxPayload()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	s.AttachWAL(w)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s, dir
}

func testWALConfig() Config {
	return Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:  200,
		Stride:  50,
	}
}

// TestIngestSeqDedup: re-delivering an acknowledged batch under the same
// (client, seq) answers with the original body — byte for byte — and
// applies nothing twice.
func TestIngestSeqDedup(t *testing.T) {
	ts, s, _ := newWALServer(t, testWALConfig())
	rng := rand.New(rand.NewSource(7))
	batch := clusteredBatch(rng, 0, 60)

	first := postPointsSeq(t, ts.URL, batch, "loader", 1)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first delivery: status %d: %s", first.StatusCode, readBody(t, first))
	}
	firstBody := readBody(t, first)

	// The retry carries the same points, which are still window-resident —
	// without dedup this would be a 400.
	retry := postPointsSeq(t, ts.URL, batch, "loader", 1)
	if retry.StatusCode != http.StatusOK {
		t.Fatalf("retry: status %d: %s", retry.StatusCode, readBody(t, retry))
	}
	if retry.Header.Get("X-Disc-Deduped") != "1" {
		t.Fatal("retry was not marked deduplicated")
	}
	retryBody := readBody(t, retry)
	if !bytes.Equal(firstBody, retryBody) {
		t.Fatalf("dedup body diverged:\n%s\nvs\n%s", firstBody, retryBody)
	}
	s.mu.Lock()
	ingested := s.ingested
	s.mu.Unlock()
	if ingested != 60 {
		t.Fatalf("ingested = %d after dedup, want 60 (nothing applied twice)", ingested)
	}
	s.mu.Lock()
	pending := len(s.slider.Pending())
	s.mu.Unlock()
	if pending != 60 {
		t.Fatalf("pending = %d, want 60 (window not yet warm)", pending)
	}
}

// TestIngestSeqBelowWindow: a sequence number that has fallen out of the
// dedup window cannot be proven applied or unapplied — 409, not a silent
// re-apply and not a misleading 400.
func TestIngestSeqBelowWindow(t *testing.T) {
	ts, s, _ := newWALServer(t, testWALConfig())
	s.seqs = newSeqTable(2, seqClients)
	rng := rand.New(rand.NewSource(8))
	for seq := uint64(1); seq <= 3; seq++ {
		resp := postPointsSeq(t, ts.URL, clusteredBatch(rng, int64(seq)*1000, 10), "loader", seq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d: status %d: %s", seq, resp.StatusCode, readBody(t, resp))
		}
		resp.Body.Close()
	}
	// Window 2 now remembers seqs {2,3}; seq 1 is below it.
	resp := postPointsSeq(t, ts.URL, clusteredBatch(rng, 1000, 10), "loader", 1)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("below-window seq: status %d, want 409", resp.StatusCode)
	}
	if body := readBody(t, resp); !strings.Contains(string(body), "below the dedup window") {
		t.Fatalf("below-window body does not explain itself: %s", body)
	}
}

// TestIngestRetryWedgeWithoutSeq pins the 400 wording for the two
// duplicate cases a seq-less client can hit. A window-resident duplicate
// is the at-least-once wedge: the batch may have been fully applied and
// only the response lost, so the body must say retrying is unsafe and
// point at the fix. An intra-batch duplicate is a malformed batch, and
// retrying it verbatim can never succeed — the body must distinguish it.
func TestIngestRetryWedgeWithoutSeq(t *testing.T) {
	ts, _, _ := newWALServer(t, testWALConfig())
	rng := rand.New(rand.NewSource(9))
	batch := clusteredBatch(rng, 0, 30)
	resp := postPoints(t, ts, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first delivery: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Retry without a seq: window-resident duplicate.
	retry := postPoints(t, ts, batch)
	if retry.StatusCode != http.StatusBadRequest {
		t.Fatalf("seq-less retry: status %d, want 400", retry.StatusCode)
	}
	body := string(readBody(t, retry))
	for _, want := range []string{"window-resident duplicate", "retrying it is unsafe", "X-Disc-Seq", "no points applied"} {
		if !strings.Contains(body, want) {
			t.Fatalf("window-resident 400 missing %q:\n%s", want, body)
		}
	}

	// Intra-batch duplicate: a genuinely malformed batch.
	bad := clusteredBatch(rng, 10_000, 5)
	bad[3].ID = bad[1].ID
	resp = postPoints(t, ts, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("intra-batch duplicate: status %d, want 400", resp.StatusCode)
	}
	body = string(readBody(t, resp))
	for _, want := range []string{"intra-batch duplicate", "malformed"} {
		if !strings.Contains(body, want) {
			t.Fatalf("intra-batch 400 missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "window-resident") {
		t.Fatalf("intra-batch 400 mislabeled as window-resident:\n%s", body)
	}
}

// TestIngestBackpressure: the geometry that makes a backlog gate
// unnecessary. apply advances the engine inside the ingest that completes a
// stride, so after every accepted batch, however large, the slider's partial
// stride is shorter than the window while it fills and shorter than the stride
// after. The bound holds on a stream restored from its checkpoint and on one
// recovered from its log, and no batch is ever shed.
func TestIngestBackpressure(t *testing.T) {
	cfg := testWALConfig()
	checkBound := func(what string, s *Server) int {
		t.Helper()
		s.mu.Lock()
		pending, strides := len(s.slider.Pending()), s.eng.Stats().Strides
		s.mu.Unlock()
		limit := cfg.Stride
		if strides == 0 {
			limit = cfg.Window
		}
		if pending >= limit {
			t.Fatalf("%s: %d points pending after %d strides, want fewer than %d", what, pending, strides, limit)
		}
		return pending
	}
	rng := rand.New(rand.NewSource(10))
	var id int64
	script := func(ts *httptest.Server, s *Server, batches int) {
		t.Helper()
		for i := 0; i < batches; i++ {
			n := 1 + rng.Intn(3*cfg.Stride)
			resp := postPoints(t, ts, clusteredBatch(rng, id, n))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch %d of %d points: status %d: %s", i, n, resp.StatusCode, readBody(t, resp))
			}
			resp.Body.Close()
			id += int64(n)
			checkBound(fmt.Sprintf("batch %d of %d points", i, n), s)
		}
	}

	ts, live, dir := newWALServer(t, cfg)
	script(ts, live, 40)
	livePending := checkBound("live", live)

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.ReadCheckpoint(bytes.NewReader(checkpointBytes(t, live))); err != nil {
		t.Fatal(err)
	}
	checkBound("after a checkpoint restore", restored)
	restoredTS := httptest.NewServer(restored.Handler())
	defer restoredTS.Close()
	script(restoredTS, restored, 10)

	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.RecoverWAL(dir, nil); err != nil {
		t.Fatal(err)
	}
	if got := checkBound("after log recovery", recovered); got != livePending {
		t.Fatalf("log recovery left %d points pending, the live stream %d", got, livePending)
	}
}

// --- leader restart and follower replay ----------------------------------

// ingestScript drives a deterministic batch sequence (sizes chosen to
// straddle stride boundaries) against a base URL with seq headers.
func ingestScript(t *testing.T, url string, seed int64, batches, per int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < batches; i++ {
		pts := clusteredBatch(rng, int64(i)*10_000, per)
		resp := postPointsSeq(t, url, pts, "script", uint64(i+1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, resp.StatusCode, readBody(t, resp))
		}
		resp.Body.Close()
	}
}

func getBodyString(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return string(readBody(t, resp))
}

func checkpointBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLeaderRestartReplaysWAL: kill a leader without a checkpoint and
// restart it over the log — every acknowledged batch (pending partial
// strides included) comes back, bit-identically.
func TestLeaderRestartReplaysWAL(t *testing.T) {
	cfg := testWALConfig()
	ts, s1, dir := newWALServer(t, cfg)
	ingestScript(t, ts.URL, 21, 9, 37) // 333 points: 6 strides + 33 pending
	want := checkpointBytes(t, s1)
	wantStats := getBodyString(t, ts.URL+"/stats")

	// "Crash": no Close, no checkpoint — the log alone must carry the state.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s2.RecoverWAL(dir, nil)
	if err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	if n != 9 {
		t.Fatalf("replayed %d records, want 9", n)
	}
	if got := checkpointBytes(t, s2); !bytes.Equal(got, want) {
		t.Fatalf("restarted leader state diverged: %d vs %d checkpoint bytes", len(got), len(want))
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	gotStats := getBodyString(t, ts2.URL+"/stats")
	if gotStats != wantStats {
		t.Fatalf("stats diverged:\n%s\nvs\n%s", gotStats, wantStats)
	}

	// The restarted leader must also dedup retries acknowledged before the
	// crash: the log carries the seq table's content.
	rng := rand.New(rand.NewSource(21))
	var last []ingestPoint
	for i := 0; i < 9; i++ {
		last = clusteredBatch(rng, int64(i)*10_000, 37)
	}
	resp := postPointsSeq(t, ts2.URL, last, "script", 9)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Disc-Deduped") != "1" {
		t.Fatalf("post-restart retry: status %d deduped=%q", resp.StatusCode, resp.Header.Get("X-Disc-Deduped"))
	}
	resp.Body.Close()
}

// TestCheckpointPlusWALRecovery: restore from a mid-stream checkpoint,
// then replay only the log's tail — the result matches a leader that
// never crashed.
func TestCheckpointPlusWALRecovery(t *testing.T) {
	cfg := testWALConfig()
	ts, s1, dir := newWALServer(t, cfg)
	ingestScript(t, ts.URL, 22, 4, 37)
	mid := checkpointBytes(t, s1)
	// More acknowledged batches after the checkpoint.
	rng := rand.New(rand.NewSource(99))
	for i := 4; i < 9; i++ {
		pts := clusteredBatch(rng, int64(i)*10_000+5_000_000, 37)
		resp := postPointsSeq(t, ts.URL, pts, "script", uint64(i+1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	want := checkpointBytes(t, s1)

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ReadCheckpoint(bytes.NewReader(mid)); err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if _, err := s2.RecoverWAL(dir, nil); err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	if got := checkpointBytes(t, s2); !bytes.Equal(got, want) {
		t.Fatal("checkpoint + wal tail replay diverged from the uninterrupted leader")
	}
}

// TestFollowerDifferential is the replication acceptance test: a follower
// tailing the live log converges to bit-identical state — same /clusters,
// /stats, /events bodies, same checkpoint bytes — across datasets, then
// takes over as leader and keeps the dedup window.
func TestFollowerDifferential(t *testing.T) {
	datasets := []struct {
		name  string
		seed  int64
		per   int // batch size; chosen to straddle stride boundaries
		count int
	}{
		{"clustered-straddling", 41, 37, 12},
		{"clustered-stride-aligned", 42, 50, 9},
		{"sparse-small-batches", 43, 7, 30},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			cfg := testWALConfig()
			ts, leader, dir := newWALServer(t, cfg)

			// The follower tails while the leader is still ingesting —
			// the race detector watches this overlap.
			f, err := NewFollower(FollowerConfig{Server: cfg, WALDir: dir, Poll: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			runDone := make(chan error, 1)
			go func() { runDone <- f.Run(ctx) }()

			ingestScript(t, ts.URL, ds.seed, ds.count, ds.per)

			// Wait for the follower to catch up to the leader's position.
			deadline := time.Now().Add(10 * time.Second)
			for {
				leader.mu.Lock()
				lead := leader.ingested
				leader.mu.Unlock()
				f.srv.mu.Lock()
				repl := f.srv.ingested
				f.srv.mu.Unlock()
				if repl == lead {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("follower stuck at %d/%d points", repl, lead)
				}
				time.Sleep(time.Millisecond)
			}

			fts := httptest.NewServer(f.Handler())
			defer fts.Close()
			for _, path := range []string{"/clusters", "/stats", "/events"} {
				lr, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := http.Get(fts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				lb, fb := readBody(t, lr), readBody(t, fr)
				if !bytes.Equal(lb, fb) {
					t.Fatalf("%s diverged:\nleader:   %s\nfollower: %s", path, lb, fb)
				}
			}
			if lw, fw := checkpointBytes(t, leader), checkpointBytes(t, f.srv); !bytes.Equal(lw, fw) {
				t.Fatalf("checkpoint bytes diverged: %d vs %d", len(lw), len(fw))
			}

			// Writes are refused until promotion...
			resp, err := http.Post(fts.URL+"/ingest", "application/json", strings.NewReader("[]"))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusForbidden {
				t.Fatalf("pre-promotion write: status %d, want 403", resp.StatusCode)
			}
			resp.Body.Close()

			// ...then the follower becomes the leader: the old one stops,
			// promotion drains the log and reopens it for appending.
			ts.Close()
			resp, err = http.Post(fts.URL+"/promote", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("promote: status %d: %s", resp.StatusCode, readBody(t, resp))
			}
			resp.Body.Close()
			// A promoted follower's Run drives its checkpoints until canceled.
			cancel()
			if err := <-runDone; err != nil {
				t.Fatalf("follower run: %v", err)
			}

			// A retry of the final pre-failover batch dedups against the
			// replicated window with the leader's original body.
			rng := rand.New(rand.NewSource(ds.seed))
			var last []ingestPoint
			for i := 0; i < ds.count; i++ {
				last = clusteredBatch(rng, int64(i)*10_000, ds.per)
			}
			resp = postPointsSeq(t, fts.URL, last, "script", uint64(ds.count))
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Disc-Deduped") != "1" {
				t.Fatalf("post-promotion retry: status %d deduped=%q: %s",
					resp.StatusCode, resp.Header.Get("X-Disc-Deduped"), readBody(t, resp))
			}
			resp.Body.Close()

			// And fresh ingest lands in the promoted leader's log.
			resp = postPointsSeq(t, fts.URL, clusteredBatch(rng, 77_000_000, ds.per), "script", uint64(ds.count+1))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("post-promotion ingest: status %d: %s", resp.StatusCode, readBody(t, resp))
			}
			resp.Body.Close()
		})
	}
}

// --- bugfix sweep regressions --------------------------------------------

// TestCheckpointLoadRefusedUnderWAL is the regression for the forked log:
// POST /checkpoint on a write-ahead-logged stream rewound the stream position
// while the attached log kept its records, so a batch acknowledged after the
// restore was appended at a position the log already covered and silently
// skipped by the next replay. The restore is refused (409, nothing touched),
// and everything acknowledged around it survives a crash.
func TestCheckpointLoadRefusedUnderWAL(t *testing.T) {
	cfg := testWALConfig()
	ts, leader, dir := newWALServer(t, cfg)
	ingestScript(t, ts.URL, 61, 4, 37)
	early := checkpointBytes(t, leader)
	rng := rand.New(rand.NewSource(62))
	for i := 4; i < 12; i++ {
		resp := postPointsSeq(t, ts.URL, clusteredBatch(rng, int64(i)*10_000, 37), "script", uint64(i+1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, resp.StatusCode, readBody(t, resp))
		}
		resp.Body.Close()
	}
	before := checkpointBytes(t, leader)

	resp, err := http.Post(ts.URL+"/checkpoint", "application/octet-stream", bytes.NewReader(early))
	if err != nil {
		t.Fatal(err)
	}
	body := string(readBody(t, resp))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("restore under an attached log: status %d, want 409: %s", resp.StatusCode, body)
	}
	for _, want := range []string{"write-ahead log", "stop the process", "newest generation in the stream's log directory"} {
		if !strings.Contains(body, want) {
			t.Errorf("409 body does not mention %q:\n%s", want, body)
		}
	}
	if !bytes.Equal(checkpointBytes(t, leader), before) {
		t.Fatal("the refused restore changed the stream")
	}

	// One more acknowledged batch, then a crash: the log alone brings back
	// the leader's state, that batch included.
	resp = postPointsSeq(t, ts.URL, clusteredBatch(rng, 900_000, 120), "script", 13)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after the refused restore: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	resp.Body.Close()
	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := recovered.RecoverWAL(dir, nil); err != nil || n != 13 {
		t.Fatalf("RecoverWAL = %d records, %v; want 13", n, err)
	}
	if !bytes.Equal(checkpointBytes(t, recovered), checkpointBytes(t, leader)) {
		t.Fatal("the stream recovered from the log diverged from the leader")
	}

	// Without a log attached (and at start-up, before AttachWAL) a restore
	// is still the way back to a checkpoint.
	ts2, _ := newTestServer(t)
	resp, err = http.Post(ts2.URL+"/checkpoint", "application/octet-stream", bytes.NewReader(early))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore without a log: status %d, want 200", resp.StatusCode)
	}
}

// TestIngestClientNameLimit: X-Disc-Client is stored in the dedup table, in
// every record the client's batches log and in every checkpoint, so it is
// bounded: 128 bytes pass, 129 are a 400 that stores nothing.
func TestIngestClientNameLimit(t *testing.T) {
	ts, s, _ := newWALServer(t, testWALConfig())
	rng := rand.New(rand.NewSource(63))
	long := strings.Repeat("n", maxClientName+1)
	resp := postPointsSeq(t, ts.URL, clusteredBatch(rng, 0, 5), long, 1)
	if body := readBody(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "X-Disc-Client") {
		t.Fatalf("%d-byte client name: status %d, want a 400 naming the header: %s", len(long), resp.StatusCode, body)
	}
	resp = postPointsSeq(t, ts.URL, clusteredBatch(rng, 0, 5), long[1:], 1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d-byte client name: status %d: %s", maxClientName, resp.StatusCode, readBody(t, resp))
	}
	resp.Body.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, stored := s.seqs.m[long]; stored || len(s.seqs.m) != 1 {
		t.Fatalf("dedup table holds %d clients (over-long one stored: %v), want only the 128-byte one", len(s.seqs.m), stored)
	}
}

// TestMultiDeleteStreamRemovesDurableState is the regression for the
// delete/recreate resurrection bug: deleting a stream must remove its
// directory, checkpoint generations and write-ahead log alike, so a tenant
// re-created under the same name starts empty instead of inheriting the
// deleted tenant's window.
func TestMultiDeleteStreamRemovesDurableState(t *testing.T) {
	walDir := t.TempDir()
	mcfg := testMultiConfig()
	mcfg.WALDir = walDir
	ts, m := newTestMulti(t, mcfg)

	mustCreateStream(t, ts, streamSpec{Name: "tenant"})
	rng := rand.New(rand.NewSource(51))
	resp := postStreamPoints(t, ts, "tenant", clusteredBatch(rng, 0, 250))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Force a final checkpoint for every stream with progress.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.RunCheckpoints(ctx)

	tenantDir := filepath.Join(walDir, "streams", "tenant")
	if len(generationFiles(t, tenantDir)) == 0 || len(walSegmentFiles(t, tenantDir)) == 0 {
		t.Fatal("tenant directory lacks a generation or a log segment before delete")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/streams/tenant", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	resp.Body.Close()

	if _, err := os.Stat(tenantDir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tenant directory survived deletion: %v", err)
	}
	// The shared root (the default stream's layout) must be untouched.
	if _, err := os.Stat(walDir); err != nil {
		t.Fatalf("root damaged by tenant delete: %v", err)
	}

	// Recreate under the same name: a fresh, empty stream.
	mustCreateStream(t, ts, streamSpec{Name: "tenant"})
	var sr statsResponse
	getJSON(t, ts.URL+"/streams/tenant/stats", &sr)
	if sr.Ingested != 0 || sr.Resident != 0 {
		t.Fatalf("recreated stream inherited the deleted tenant's state: ingested=%d resident=%d",
			sr.Ingested, sr.Resident)
	}
	if resp := getJSON(t, ts.URL+"/streams/tenant/points/249", new(pointResponse)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted tenant's point still resolves: status %d", resp.StatusCode)
	}
}

// TestDeleteStreamWithCaptureQueued: a stream deleted while its checkpoint
// capture waits for the writer (busy with another stream's save) stays
// deleted. Its directory is gone when DeleteStream returns and stays gone
// through the writer's shutdown, which writes it no final, and the name
// re-created starts empty. The capture is dropped, or written before the
// directory goes; never after.
func TestDeleteStreamWithCaptureQueued(t *testing.T) {
	walDir := t.TempDir()
	mcfg := testMultiConfig()
	mcfg.WALDir = walDir
	ts, m := newTestMulti(t, mcfg)
	stop := driveCheckpoints(t, m)
	mustCreateStream(t, ts, streamSpec{Name: "tenant"})

	// Occupy the writer with a save that waits for release.
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blocker := ckpt.NewRunner(store, m.Stream(DefaultStream), 1)
	m.writer.Add(blocker)
	encoding, release := make(chan struct{}), make(chan struct{})
	blocker.Offer(0, 1, func() ckpt.Capture {
		return ckpt.Capture{Strides: 1, Encode: func() ([]byte, error) {
			close(encoding)
			<-release
			return []byte("busy"), nil
		}}
	})
	<-encoding

	// 400 points: strides 0 → 5, across the interval, 4.
	resp := postStreamPoints(t, ts, "tenant", clusteredBatch(rand.New(rand.NewSource(53)), 0, 400))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := m.Stream("tenant").Strides(); got < 4 {
		t.Fatalf("tenant at stride %d: the batch did not cross the interval", got)
	}
	deleted := make(chan error, 1)
	go func() { deleted <- m.DeleteStream("tenant") }()
	select {
	case err := <-deleted:
		t.Fatalf("DeleteStream returned (%v) while the writer was mid-save", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	tenantDir := filepath.Join(walDir, "streams", "tenant")
	if _, err := os.Stat(tenantDir); !os.IsNotExist(err) {
		t.Fatalf("tenant directory after delete: %v, want it gone", err)
	}
	m.writer.Remove(blocker)
	stop()
	if _, err := os.Stat(tenantDir); !os.IsNotExist(err) {
		t.Fatalf("tenant directory after the writer's shutdown: %v, want it gone", err)
	}

	mustCreateStream(t, ts, streamSpec{Name: "tenant"})
	var sr statsResponse
	getJSON(t, ts.URL+"/streams/tenant/stats", &sr)
	if sr.Ingested != 0 || sr.Resident != 0 {
		t.Fatalf("recreated stream inherited the deleted tenant's state: ingested=%d resident=%d",
			sr.Ingested, sr.Resident)
	}
}

// shortResponseWriter fails after writing a fixed number of body bytes —
// a client that disconnected mid-download.
type shortResponseWriter struct {
	http.ResponseWriter
	remaining int
}

func (s *shortResponseWriter) Write(b []byte) (int, error) {
	if len(b) > s.remaining {
		n := s.remaining
		s.remaining = 0
		s.ResponseWriter.Write(b[:n])
		return n, errors.New("connection reset by peer")
	}
	s.remaining -= len(b)
	return s.ResponseWriter.Write(b)
}

// TestCheckpointSaveShortWrite is the regression for the ignored-error
// checkpoint download: the handler must set Content-Length (so the client
// can detect the truncation) and treat the failed write as a logged event,
// not a crash or a second status code.
func TestCheckpointSaveShortWrite(t *testing.T) {
	_, s := newTestServer(t)
	rec := httptest.NewRecorder()
	sw := &shortResponseWriter{ResponseWriter: rec, remaining: 16}
	req := httptest.NewRequest(http.MethodGet, "/checkpoint", nil)
	s.handleCheckpointSave(sw, req) // must not panic
	if rec.Code != http.StatusOK {
		t.Fatalf("short write changed the status to %d", rec.Code)
	}
	cl := rec.Header().Get("Content-Length")
	if cl == "" {
		t.Fatal("checkpoint download without Content-Length: truncation would be undetectable")
	}
	want, err := strconv.Atoi(cl)
	if err != nil || want <= 0 {
		t.Fatalf("bad Content-Length %q", cl)
	}
	if rec.Body.Len() >= want {
		t.Fatalf("short writer delivered %d of %d bytes — the test harness is broken", rec.Body.Len(), want)
	}

	// The full-length path still matches Content-Length exactly.
	rec2 := httptest.NewRecorder()
	s.handleCheckpointSave(rec2, req)
	if got := strconv.Itoa(rec2.Body.Len()); got != rec2.Header().Get("Content-Length") {
		t.Fatalf("Content-Length %s != body %s", rec2.Header().Get("Content-Length"), got)
	}
}

// TestIngestWALFailureTurnsStreamReadOnly: a failed append must latch the
// stream read-only (503) instead of acknowledging batches replicas will
// never see.
func TestIngestWALFailureTurnsStreamReadOnly(t *testing.T) {
	cfg := testWALConfig()
	ts, s, dir := newWALServer(t, cfg)
	rng := rand.New(rand.NewSource(53))
	resp := postPoints(t, ts, clusteredBatch(rng, 0, 10))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming batch: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Break the log out from under the server: close the handle and make
	// the directory unwritable by swapping it for a file.
	s.mu.Lock()
	s.wal.Close()
	s.mu.Unlock()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	resp = postPoints(t, ts, clusteredBatch(rng, 1000, 10))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("append onto broken log: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	// The latch holds for subsequent requests without retrying the device.
	resp = postPoints(t, ts, clusteredBatch(rng, 2000, 10))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("latched broken log: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}
