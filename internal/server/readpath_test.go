package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"disc/internal/window"
)

// sliderEngineAgree asserts the slider's window and the engine's snapshot
// describe the same point set — the invariant the rollback fix protects.
func sliderEngineAgree(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.st.eng.Snapshot()
	win := s.st.slider.Window()
	if len(win) != len(snap) {
		t.Fatalf("slider window has %d points, engine %d", len(win), len(snap))
	}
	for _, p := range win {
		if _, ok := snap[p.ID]; !ok {
			t.Fatalf("slider holds id %d, engine does not", p.ID)
		}
	}
}

// TestAdvanceRejectionRollsBackSlider: when the engine refuses a stride
// mid-batch, the slider must rewind to the engine's stream position. On
// pre-fix code the slider kept the stride and ran one window ahead of the
// engine forever; this asserts the two agree after the 409 and that the
// stream recovers cleanly.
func TestAdvanceRejectionRollsBackSlider(t *testing.T) {
	ts, s := newTestServer(t)
	rng := rand.New(rand.NewSource(20))

	s.st.testAdvanceErr = func(*window.Step) error {
		return errors.New("injected advance failure")
	}
	// The very first stride (the 200-point window fill) fails: 199 points
	// applied, the triggering 200th rolled back out.
	resp := postPoints(t, ts, clusteredBatch(rng, 0, 200))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rejected ingest status %d, want 409", resp.StatusCode)
	}
	var ie ingestError
	if err := json.NewDecoder(resp.Body).Decode(&ie); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ie.Applied != 199 {
		t.Fatalf("applied = %d, want 199", ie.Applied)
	}
	sliderEngineAgree(t, s)

	// With the failure cleared, one replacement point completes the fill
	// exactly as if the rejected trigger never arrived.
	s.st.testAdvanceErr = nil
	resp = postPoints(t, ts, clusteredBatch(rng, 500, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery ingest status %d, want 200", resp.StatusCode)
	}
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if ir.Strides != 1 || ir.Window != 200 {
		t.Fatalf("recovery response %+v, want strides=1 window=200", ir)
	}
	sliderEngineAgree(t, s)
}

// TestDuplicateIngestRejectedUpFront: ids duplicated against the resident
// window or within the batch itself are caught before any point is
// pushed — 400 with zero side effects.
func TestDuplicateIngestRejectedUpFront(t *testing.T) {
	ts, s := newTestServer(t)
	rng := rand.New(rand.NewSource(21))
	postPoints(t, ts, clusteredBatch(rng, 0, 200)).Body.Close()

	// Batch overlapping the resident window (ids 150-249).
	resp := postPoints(t, ts, clusteredBatch(rng, 150, 100))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("window-duplicate batch status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	var sr statsResponse
	getJSON(t, ts.URL+"/stats", &sr)
	if sr.Ingested != 200 {
		t.Fatalf("rejected batch moved ingested to %d, want 200", sr.Ingested)
	}
	sliderEngineAgree(t, s)

	// Batch duplicating an id against itself.
	dup := clusteredBatch(rng, 300, 3)
	dup[2].ID = dup[0].ID
	resp = postPoints(t, ts, dup)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("intra-batch duplicate status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// A clean continuation still works.
	resp = postPoints(t, ts, clusteredBatch(rng, 300, 100))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean continuation status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	sliderEngineAgree(t, s)
}

// TestIngestRejectsNonFiniteCoords: NaN and ±Inf coordinates fail
// validation (they poison distance comparisons and R-tree bounds).
// JSON itself cannot carry them, so the wire-level check is the raw-body
// decode rejection; the validator is exercised directly for the values.
func TestIngestRejectsNonFiniteCoords(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		batch := []ingestPoint{{ID: 1, Coords: []float64{bad, 0}}}
		if _, err := toPoints(batch, 2); err == nil {
			t.Fatalf("coordinate %v passed validation", bad)
		}
	}
	if _, err := toPoints([]ingestPoint{{ID: 1, Coords: []float64{1, 2}}}, 2); err != nil {
		t.Fatalf("finite point rejected: %v", err)
	}
	// Over the wire, an out-of-range literal must die at decode with 400.
	resp, err := http.Post(ts.URL+"/ingest", "application/json",
		bytes.NewReader([]byte(`[{"id":1,"time":0,"coords":[1e999,0]}]`)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1e999 coordinate status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestCheckpointRejectsCorruptWindow: a checkpoint whose window payload
// smuggles a non-finite coordinate or a duplicated id must be refused as a
// bad checkpoint — a binary form, unlike JSON, encodes NaN happily, so this
// is the one path that could plant one in the window.
func TestCheckpointRejectsCorruptWindow(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(22))
	postPoints(t, ts, clusteredBatch(rng, 0, 250)).Body.Close()
	resp, err := http.Get(ts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	corrupt := func(name string, mutate func(env *checkpointEnvelope)) {
		env, err := decodeEnvelope(blob)
		if err != nil {
			t.Fatal(err)
		}
		mutate(env)
		for form, body := range map[string][]byte{"codec": appendEnvelope(nil, env), "gob": gobEnvelope(t, env)} {
			if _, err := restoreAndSave(testWALConfig(), body); !errors.Is(err, errBadCheckpoint) {
				t.Fatalf("%s (%s): restored with %v, want errBadCheckpoint", name, form, err)
			}
		}
	}
	corrupt("NaN coordinate", func(env *checkpointEnvelope) {
		env.Window[7].Pos[0] = math.NaN()
	})
	corrupt("Inf coordinate", func(env *checkpointEnvelope) {
		env.Window[7].Pos[1] = math.Inf(-1)
	})
	corrupt("duplicate id", func(env *checkpointEnvelope) {
		env.Window[7].ID = env.Window[8].ID
	})

	// The pristine checkpoint still restores.
	if _, err := restoreAndSave(testWALConfig(), blob); err != nil {
		t.Fatalf("pristine restore: %v", err)
	}
}

// failingWriter counts WriteHeader calls and fails every body write,
// simulating a client that hung up mid-response.
type failingWriter struct {
	header      http.Header
	headerCalls []int
}

func (f *failingWriter) Header() http.Header       { return f.header }
func (f *failingWriter) WriteHeader(code int)      { f.headerCalls = append(f.headerCalls, code) }
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestWriteJSONSingleStatus: writeJSON must never attempt a second
// WriteHeader. Pre-fix it encoded straight into the ResponseWriter, so a
// write error produced an implicit 200 followed by http.Error's 500.
func TestWriteJSONSingleStatus(t *testing.T) {
	fw := &failingWriter{header: http.Header{}}
	writeJSON(fw, map[string]int{"x": 1})
	if len(fw.headerCalls) != 1 {
		t.Fatalf("WriteHeader called %d times (%v), want exactly 1", len(fw.headerCalls), fw.headerCalls)
	}
	if fw.headerCalls[0] != http.StatusOK {
		t.Fatalf("status %d, want 200", fw.headerCalls[0])
	}
	// An unencodable value becomes a clean 500, still a single status.
	fw2 := &failingWriter{header: http.Header{}}
	writeJSON(fw2, func() {})
	if len(fw2.headerCalls) != 1 || fw2.headerCalls[0] != http.StatusInternalServerError {
		t.Fatalf("encode failure statuses %v, want exactly [500]", fw2.headerCalls)
	}
}

// TestReadsServeWhileMutexHeld: the tentpole's headline property — GET
// endpoints never touch the server mutex. The test wedges the write lock
// shut and demands all four reads still answer within the deadline.
func TestReadsServeWhileMutexHeld(t *testing.T) {
	ts, s := newTestServer(t)
	rng := rand.New(rand.NewSource(23))
	postPoints(t, ts, clusteredBatch(rng, 0, 250)).Body.Close()

	s.mu.Lock()
	defer s.mu.Unlock()
	client := &http.Client{Timeout: 2 * time.Second}
	for _, path := range []string{"/clusters", "/points/100", "/events", "/stats"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s blocked behind the write lock: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status %d with mutex held", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestStrideETagAndConditionalGet: every read names its view via the
// X-Disc-Stride header and a strong ETag; If-None-Match on the current
// view short-circuits to 304, and a new stride mints a new ETag.
func TestStrideETagAndConditionalGet(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(24))
	postPoints(t, ts, clusteredBatch(rng, 0, 200)).Body.Close()

	resp, err := http.Get(ts.URL + "/clusters")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on /clusters")
	}
	if got := resp.Header.Get("X-Disc-Stride"); got != "1" {
		t.Fatalf("X-Disc-Stride = %q, want 1", got)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/clusters", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET status %d, want 304", resp.StatusCode)
	}

	// Advance one stride; the cached ETag must stop matching.
	postPoints(t, ts, clusteredBatch(rng, 200, 50)).Body.Close()
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-stride conditional GET status %d, want 200", resp.StatusCode)
	}
	if newTag := resp.Header.Get("ETag"); newTag == etag {
		t.Fatalf("ETag %q unchanged across a stride", newTag)
	}
	if got := resp.Header.Get("X-Disc-Stride"); got != "2" {
		t.Fatalf("X-Disc-Stride = %q after second stride, want 2", got)
	}
}

// TestIfNoneMatchListWeakAndWildcard is the regression for serveView
// comparing the If-None-Match field to the ETag with ==: RFC 9110 §13.1.2
// makes the field a list of entity-tags (or "*") compared weakly, so a cache
// that revalidates with several stored tags, with a W/ prefix, or with *
// must get its 304 — and tags of other strides, alone or in a list, must not.
func TestIfNoneMatchListWeakAndWildcard(t *testing.T) {
	ts, s := newTestServer(t)
	rng := rand.New(rand.NewSource(26))
	postPoints(t, ts, clusteredBatch(rng, 0, 200)).Body.Close()
	etag := s.st.view.Load().etag

	for _, tc := range []struct {
		fields []string
		want   int
	}{
		{[]string{etag}, http.StatusNotModified},
		{[]string{`"disc-e0-s0", ` + etag}, http.StatusNotModified},
		{[]string{etag + `,"other"`}, http.StatusNotModified},
		{[]string{"W/" + etag}, http.StatusNotModified},
		{[]string{`W/"x" , W/` + etag + " "}, http.StatusNotModified},
		{[]string{"*"}, http.StatusNotModified},
		{[]string{`"disc-e0-s0"`, etag}, http.StatusNotModified}, // two field lines
		{[]string{`"disc-e0-s0"`}, http.StatusOK},
		{[]string{`"disc-e0-s0", W/"disc-e0-s7"`}, http.StatusOK},
		{[]string{etag[:len(etag)-1]}, http.StatusOK},        // unterminated
		{[]string{etag[1 : len(etag)-1]}, http.StatusOK},     // unquoted
		{[]string{`"a,b", ` + etag}, http.StatusNotModified}, // comma inside a tag
		{[]string{""}, http.StatusOK},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
		for _, f := range tc.fields {
			req.Header.Add("If-None-Match", f)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("If-None-Match %q: status %d, want %d", tc.fields, resp.StatusCode, tc.want)
		}
	}
}

// TestConcurrentReadsUnderIngest hammers all four GET endpoints from many
// goroutines while a writer drives the stream across many stride
// boundaries, asserting every single response is internally consistent:
// the stride named in the header matches the counters in the body, sizes
// add up, and event sequences ascend. Run under -race this also proves
// the read path is data-race-free against ingest.
func TestConcurrentReadsUnderIngest(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(25))
	postPoints(t, ts, clusteredBatch(rng, 0, 200)).Body.Close()

	const readers = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				switch r.Intn(4) {
				case 0:
					resp, err := http.Get(ts.URL + "/clusters")
					if err != nil {
						fail("GET /clusters: %v", err)
						return
					}
					var cr clustersResponse
					err = json.NewDecoder(resp.Body).Decode(&cr)
					resp.Body.Close()
					if err != nil {
						fail("decode /clusters: %v", err)
						return
					}
					hdr := resp.Header.Get("X-Disc-Stride")
					if hdr != strconv.FormatUint(cr.Strides, 10) {
						fail("/clusters header stride %s != body stride %d", hdr, cr.Strides)
						return
					}
					total := cr.Noise
					for _, c := range cr.Clusters {
						total += c.Size
					}
					if total != cr.Window {
						fail("/clusters sizes sum %d != window %d at stride %d", total, cr.Window, cr.Strides)
						return
					}
				case 1:
					id := int64(r.Intn(2000))
					resp, err := http.Get(ts.URL + "/points/" + strconv.FormatInt(id, 10))
					if err != nil {
						fail("GET /points: %v", err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						fail("/points/%d status %d", id, resp.StatusCode)
						return
					}
				case 2:
					resp, err := http.Get(ts.URL + "/events")
					if err != nil {
						fail("GET /events: %v", err)
						return
					}
					var evs []eventRecord
					err = json.NewDecoder(resp.Body).Decode(&evs)
					resp.Body.Close()
					if err != nil {
						fail("decode /events: %v", err)
						return
					}
					for j := 1; j < len(evs); j++ {
						if evs[j].Seq <= evs[j-1].Seq {
							fail("/events sequence not ascending: %d then %d", evs[j-1].Seq, evs[j].Seq)
							return
						}
					}
				case 3:
					resp, err := http.Get(ts.URL + "/stats")
					if err != nil {
						fail("GET /stats: %v", err)
						return
					}
					var sr statsResponse
					err = json.NewDecoder(resp.Body).Decode(&sr)
					resp.Body.Close()
					if err != nil {
						fail("decode /stats: %v", err)
						return
					}
					hdr := resp.Header.Get("X-Disc-Stride")
					if hdr != strconv.FormatUint(uint64(sr.Stats.Strides), 10) {
						fail("/stats header stride %s != body stride %d", hdr, sr.Stats.Strides)
						return
					}
					// Ingested is a view counter: it must equal the points
					// that produced the view's stride exactly (window extent
					// plus one stride's worth per later advance).
					if want := uint64(200 + 50*(sr.Stats.Strides-1)); sr.Stats.Strides > 0 && sr.Ingested != want {
						fail("/stats ingested %d at stride %d, want %d", sr.Ingested, sr.Stats.Strides, want)
						return
					}
				}
			}
		}(int64(100 + i))
	}

	// Writer: ~20 more strides in small batches.
	for id := int64(200); id < 1250; id += 25 {
		resp := postPoints(t, ts, clusteredBatch(rng, id, 25))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("writer batch at id %d: status %d", id, resp.StatusCode)
		}
		resp.Body.Close()
	}
	close(done)
	wg.Wait()

	var sr statsResponse
	getJSON(t, ts.URL+"/stats", &sr)
	if sr.Stats.Strides != 22 {
		t.Fatalf("final strides %d, want 22", sr.Stats.Strides)
	}
}

// TestQueryMetricsExposed: serving reads populates the disc_query_* family.
func TestQueryMetricsExposed(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(26))
	postPoints(t, ts, clusteredBatch(rng, 0, 200)).Body.Close()
	for _, path := range []string{"/clusters", "/points/10", "/events", "/stats"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, ep := range []string{"clusters", "point", "events", "stats"} {
		want := fmt.Sprintf(`disc_query_duration_seconds_count{endpoint=%q} 1`, ep)
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
	if !bytes.Contains(body, []byte("disc_query_stride_lag_count 4")) {
		t.Error("metrics exposition missing stride-lag samples")
	}
}

// TestViewAcrossRestore: a strong ETag names one body. A stream deleted and
// registered again, or a process restarted without a log, starts again at
// stride 0, so the stride count alone would name two different bodies at
// the same stride and a client revalidating its cached copy would get a 304
// over content it never saw. Each stream value mints its own incarnation for
// its tags, so the old tag gets a 200 and a new tag.
func TestViewAcrossRestore(t *testing.T) {
	ts, m := newTestMulti(t, testMultiConfig())
	cfg := testMultiConfig().Default
	get := func(url, ifNoneMatch string) (status int, etag, body string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("ETag"), string(readBody(t, resp))
	}
	incarnation := func(seed int64) (etag, body string) {
		t.Helper()
		if _, err := m.CreateStream("x", cfg); err != nil {
			t.Fatal(err)
		}
		resp := postStreamPoints(t, ts, "x", clusteredBatch(rand.New(rand.NewSource(seed)), 0, 250))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d: %s", resp.StatusCode, readBody(t, resp))
		}
		resp.Body.Close()
		status, etag, body := get(ts.URL+"/streams/x/clusters", "")
		if status != http.StatusOK || !strings.HasSuffix(etag, `-s2"`) {
			t.Fatalf("GET /clusters: status %d, ETag %s; want 200 at stride 2", status, etag)
		}
		return etag, body
	}

	oldTag, oldBody := incarnation(27)
	if err := m.DeleteStream("x"); err != nil {
		t.Fatal(err)
	}
	newTag, newBody := incarnation(28)
	if newBody == oldBody {
		t.Fatal("the two incarnations serve the same census; the test needs different content")
	}
	if newTag == oldTag {
		t.Fatalf("ETag %s names both incarnations' different bodies", newTag)
	}
	status, etag, body := get(ts.URL+"/streams/x/clusters", oldTag)
	if status != http.StatusOK || etag != newTag || body != newBody {
		t.Fatalf("If-None-Match with the deleted incarnation's tag: status %d, ETag %s; want 200 with the current body and tag %s", status, etag, newTag)
	}
	if status, _, _ := get(ts.URL+"/streams/x/clusters", newTag); status != http.StatusNotModified {
		t.Fatalf("If-None-Match with the current tag: status %d, want 304", status)
	}

	// A process restarted without a log is a new stream value too.
	_, s1 := newTestServer(t)
	_, s2 := newTestServer(t)
	if a, b := s1.st.view.Load().etag, s2.st.view.Load().etag; a == b {
		t.Fatalf("two fresh streams publish the same ETag %s", a)
	}
}
