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

	"disc/internal/model"
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

// TestServeViewSingleLoadUnderRestore: a checkpoint restored between a
// read's view pin and its post-response freshness sample must not corrupt
// either the response or the metrics attributed to it. The handler pins one
// view; a restore that lands mid-request installs a view from a different
// history (here: one with MORE strides), and the lag instrument must not
// diff stride counters across that epoch boundary. Before the fix the
// sample charged this read with a fabricated cross-epoch lag.
func TestServeViewSingleLoadUnderRestore(t *testing.T) {
	blob := takeCheckpoint(t, 81, 400) // 5 strides of history

	s, err := New(Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:  200,
		Stride:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(s.Handler())
	t.Cleanup(sts.Close)
	rng := rand.New(rand.NewSource(82))
	resp := postPoints(t, sts, clusteredBatch(rng, 10_000, 200)) // 1 stride (the window fill)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Drive serveView directly with an inner handler that restores the
	// 5-stride checkpoint mid-request — exactly the window between the
	// view pin and the freshness sample.
	preETag := s.view.Load().etag
	h := s.serveView("stats", func(v *publishedView, w http.ResponseWriter, r *http.Request) {
		if _, err := s.ReadCheckpoint(bytes.NewReader(blob)); err != nil {
			t.Errorf("mid-request restore: %v", err)
		}
		s.handleStats(v, w, r)
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))

	// Response integrity: everything came from the pinned pre-restore view.
	if got := rec.Header().Get("X-Disc-Stride"); got != "1" {
		t.Fatalf("X-Disc-Stride = %s, want the pinned view's 1", got)
	}
	if got := rec.Header().Get("ETag"); got != preETag {
		t.Fatalf("ETag = %s, want pinned %s", got, preETag)
	}
	var sr statsResponse
	if err := json.NewDecoder(rec.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Ingested != 200 || sr.Stats.Strides != 1 {
		t.Fatalf("body from post-restore view: %+v, want pre-restore ingested=200 strides=1", sr)
	}

	// Metrics integrity: no fabricated lag. The restored view has strides=5
	// > 1; an epoch-blind sampler records lag 4 here.
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disc_query_stride_lag_sum 0") {
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "disc_query_stride_lag_sum") {
				t.Fatalf("cross-epoch restore fabricated stride lag: %s", line)
			}
		}
		t.Fatal("disc_query_stride_lag_sum not rendered")
	}
}

// TestRestoreReadConsistencyUnderLoad hammers the read path while restores
// alternate between two checkpoints of different stream positions: every
// response's X-Disc-Stride header, ETag, and body must describe one single
// view — a reader must never observe a restored body under a pre-restore
// stride header or vice versa. Run under -race this also proves the
// slider/view/trace swap in ReadCheckpoint is safe against concurrent
// readers.
func TestRestoreReadConsistencyUnderLoad(t *testing.T) {
	blobA := takeCheckpoint(t, 91, 250) // 2 strides, ingested 250
	blobB := takeCheckpoint(t, 92, 400) // 5 strides, ingested 400
	ingestedByStride := map[uint64]uint64{2: 250, 5: 400}

	ts, _ := newTestServer(t)
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
				if strides != 0 { // pre-first-restore empty view
					if want := ingestedByStride[strides]; sr.Ingested != want {
						t.Errorf("stride %d view reports ingested %d, want %d — restored body under stale counters",
							strides, sr.Ingested, want)
						return
					}
				}
			}
		}()
	}

	for i := 0; i < 30 && !t.Failed(); i++ {
		blob := blobA
		if i%2 == 1 {
			blob = blobB
		}
		resp, err := http.Post(ts.URL+"/checkpoint", "application/octet-stream", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restore %d status %d", i, resp.StatusCode)
		}
	}
	time.Sleep(10 * time.Millisecond) // let readers overlap the final world
	close(stop)
	wg.Wait()
}

// TestRestoreClearsStrideTraceContext: a generation written after a restore
// joins the trace of the post-restore batch that captured it, and none of
// the pre-restore stride's. The checkpoint used to join a stashed "most
// recent stride" context, which a restore had to clear or the next
// generation was stitched onto a trace of strides the restore discarded; a
// capture now carries its batch's trace, so there is nothing to clear.
func TestRestoreClearsStrideTraceContext(t *testing.T) {
	blob := takeCheckpoint(t, 93, 250) // two strides

	s, err := New(Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:  200,
		Stride:  50,
		Tracing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	const before, after = "0b1c2d3e4f5061728394a5b6c7d8e9f0", "f0e9d8c7b6a5948372615f4e3d2c1b0a"
	rng := rand.New(rand.NewSource(94))
	if code := postTraced(t, ts, clusteredBatch(rng, 50_000, 200), before); code != http.StatusOK {
		t.Fatalf("pre-restore ingest status %d", code)
	}

	if _, err := s.ReadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	defer runLeader(t, s)()
	// Strides 2 → 4 cross the interval, ceil(200/50) = 4.
	if code := postTraced(t, ts, clusteredBatch(rng, 60_000, 100), after); code != http.StatusOK {
		t.Fatalf("post-restore ingest status %d", code)
	}
	awaitCheckpointSpans(t, s, after)
	for _, d := range s.tracer.Snapshot() {
		if d.TraceID.String() == before && spanCount(&d, "checkpoint") > 0 {
			t.Fatal("the post-restore generation joined the pre-restore stride's trace")
		}
	}
}
