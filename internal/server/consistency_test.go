package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// takeCheckpoint ingests n points into a throwaway server with the default
// test config and returns its checkpoint blob.
func takeCheckpoint(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(seed))
	resp := postPoints(t, ts, clusteredBatch(rng, 0, n))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint source ingest status %d", resp.StatusCode)
	}
	cresp, err := http.Get(ts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint save status %d", cresp.StatusCode)
	}
	return blob
}

// TestServeViewSingleLoadUnderRestore: a view published between a read's
// view pin and its post-response freshness sample must not leak into the
// response, and the lag the read is charged is the strides published
// meanwhile. The stream was restored from its directory; its stride count
// only moves forward from there.
func TestServeViewSingleLoadUnderRestore(t *testing.T) {
	blob := takeCheckpoint(t, 81, 250) // 2 strides of history

	s := mustRestore(t, testWALConfig(), blob)
	sts := httptest.NewServer(s.Handler())
	t.Cleanup(sts.Close)

	// Drive serveView directly with an inner handler that ingests three
	// strides mid-request — exactly the window between the view pin and the
	// freshness sample.
	rng := rand.New(rand.NewSource(82))
	preETag := s.st.view.Load().etag
	h := s.serveView("stats", func(v *publishedView, w http.ResponseWriter, r *http.Request) {
		resp := postPoints(t, sts, clusteredBatch(rng, 10_000, 150))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("mid-request ingest status %d", resp.StatusCode)
		}
		handleStats(v, w, r)
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))

	// Response integrity: everything came from the pinned view.
	if got := rec.Header().Get("X-Disc-Stride"); got != "2" {
		t.Fatalf("X-Disc-Stride = %s, want the pinned view's 2", got)
	}
	if got := rec.Header().Get("ETag"); got != preETag {
		t.Fatalf("ETag = %s, want pinned %s", got, preETag)
	}
	var sr statsResponse
	if err := json.NewDecoder(rec.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Ingested != 250 || sr.Stats.Strides != 2 {
		t.Fatalf("body from a later view: %+v, want the pinned ingested=250 strides=2", sr)
	}
	if got := s.Strides(); got != 5 {
		t.Fatalf("stream at stride %d after the mid-request ingest, want 5", got)
	}

	// Metrics integrity: the read is charged the three strides published
	// while it was served.
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disc_query_stride_lag_sum 3") {
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "disc_query_stride_lag_sum") {
				t.Fatalf("stride lag %s, want 3", line)
			}
		}
		t.Fatal("disc_query_stride_lag_sum not rendered")
	}
}

// TestRestoreReadConsistencyUnderLoad hammers the read path of a stream
// restored from its directory while a writer advances it stride by stride:
// every response's X-Disc-Stride header, ETag, and body must describe one
// single view — a reader must never observe a body under another view's
// stride header or counters. Run under -race this also proves the view
// publication of a restored stream is safe against concurrent readers.
func TestRestoreReadConsistencyUnderLoad(t *testing.T) {
	blob := takeCheckpoint(t, 92, 400) // 5 strides, ingested 400, nothing pending
	s := mustRestore(t, testWALConfig(), blob)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Every batch below is one 50-point stride.
	ingestedAt := func(strides uint64) uint64 { return 400 + 50*(strides-5) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/stats")
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				hdr := resp.Header.Get("X-Disc-Stride")
				etag := resp.Header.Get("ETag")
				var sr statsResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				strides, _ := strconv.ParseUint(hdr, 10, 64)
				if uint64(sr.Stats.Strides) != strides {
					t.Errorf("header stride %s but body stride %d — mixed worlds", hdr, sr.Stats.Strides)
					return
				}
				if !strings.HasSuffix(etag, fmt.Sprintf("-s%d\"", strides)) {
					t.Errorf("ETag %s does not match served stride %d", etag, strides)
					return
				}
				if want := ingestedAt(strides); sr.Ingested != want {
					t.Errorf("stride %d view reports ingested %d, want %d — body under stale counters",
						strides, sr.Ingested, want)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 30 && !t.Failed(); i++ {
		resp := postPoints(t, ts, clusteredBatch(rng, 10_000+int64(i)*100, 50))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d status %d", i, resp.StatusCode)
		}
	}
	time.Sleep(10 * time.Millisecond) // let readers overlap the final view
	close(stop)
	wg.Wait()
}

// TestRestoreClearsStrideTraceContext: a generation a restored stream
// writes joins the trace of the batch that crossed the interval, and none of
// an earlier batch's. The checkpoint used to join a stashed "most recent
// stride" context, which a restore had to clear or the next generation was
// stitched onto a trace of strides the restore discarded; a capture now
// carries its batch's trace, so there is nothing to clear.
func TestRestoreClearsStrideTraceContext(t *testing.T) {
	blob := takeCheckpoint(t, 93, 250) // two strides

	cfg := testWALConfig()
	cfg.Tracing = true
	s := mustRestore(t, cfg, blob)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	defer runLeader(t, s)()
	const before, after = "0b1c2d3e4f5061728394a5b6c7d8e9f0", "f0e9d8c7b6a5948372615f4e3d2c1b0a"
	rng := rand.New(rand.NewSource(94))
	// 10 points complete no stride; the next 90 take strides 2 → 4 and cross
	// the interval, ceil(200/50) = 4.
	if code := postTraced(t, ts, clusteredBatch(rng, 50_000, 10), before); code != http.StatusOK {
		t.Fatalf("first ingest status %d", code)
	}
	if code := postTraced(t, ts, clusteredBatch(rng, 60_000, 90), after); code != http.StatusOK {
		t.Fatalf("crossing ingest status %d", code)
	}
	awaitCheckpointSpans(t, s, after)
	for _, d := range s.tracer.Snapshot() {
		if d.TraceID.String() == before && spanCount(&d, "checkpoint") > 0 {
			t.Fatal("the generation joined the trace of a batch that crossed no interval")
		}
	}
}
