package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"disc/internal/model"
)

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(21))
	postPoints(t, ts, clusteredBatch(rng, 0, 400)).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE disc_stride_duration_seconds histogram",
		`disc_stride_duration_seconds_bucket{le="+Inf"} 5`, // 200 fill + 4×50
		"# TYPE disc_range_searches_total counter",
		`disc_phase_duration_seconds_bucket{phase="collect"`,
		"disc_strides_total 5",
		"disc_points_in_total 400",
		"disc_ingested_points_total 400",
		"disc_window_size 200",
		`disc_cluster_events_total{type="emergence"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// disc_range_searches_total must carry a nonzero value.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "disc_range_searches_total ") {
			var v float64
			if _, err := fmt.Sscanf(line, "disc_range_searches_total %g", &v); err != nil || v <= 0 {
				t.Fatalf("bad range-search sample %q (err %v)", line, err)
			}
		}
	}
	// Minimal exposition-format lint: every non-comment line is
	// "name{labels} value" with a parseable float value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := fmt.Sscanf(fields[1], "%g", new(float64)); err != nil {
			t.Fatalf("unparseable value in %q", line)
		}
	}
}

func TestDebugVarsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(22))
	postPoints(t, ts, clusteredBatch(rng, 0, 200)).Body.Close()

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars: %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("expvar memstats missing")
	}
	// The registry publishes under "disc" (first server in the process
	// wins; under `go test` that is whichever test constructed one first,
	// so only presence is asserted, not this server's values).
	if _, ok := vars["disc"]; !ok {
		t.Error("registry not published under \"disc\"")
	}
}

func TestPprofGating(t *testing.T) {
	// Disabled by default.
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without EnablePprof: %d", resp.StatusCode)
	}
	// Enabled by config.
	s, err := New(Config{
		Cluster:     model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:      200,
		Stride:      50,
		EnablePprof: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ with EnablePprof: %d", resp2.StatusCode)
	}
}

// TestConcurrentIngestAndScrape runs writers (POST /ingest) against
// readers (/metrics, /stats, /events, /debug/vars) simultaneously; under
// -race this verifies the lock-free scrape path against live updates.
func TestConcurrentIngestAndScrape(t *testing.T) {
	ts, _ := newTestServer(t)
	const (
		writers = 3
		batches = 8
		readers = 4
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for b := 0; b < batches; b++ {
				base := int64(w*1_000_000 + b*1000)
				resp := postPoints(t, ts, clusteredBatch(rng, base, 100))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest: %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	paths := []string{"/metrics", "/stats", "/events?since=0", "/debug/vars", "/clusters"}
	for rix := 0; rix < readers; rix++ {
		wg.Add(1)
		go func(rix int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(ts.URL + paths[(rix+i)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: %d", paths[(rix+i)%len(paths)], resp.StatusCode)
				}
			}
		}(rix)
	}
	wg.Wait()

	// After the dust settles the counters reflect every accepted point.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	want := fmt.Sprintf("disc_ingested_points_total %d", writers*batches*100)
	if !strings.Contains(string(body), want) {
		t.Fatalf("/metrics missing %q after concurrent ingest", want)
	}
}

// TestMetricsSurviveCheckpointRestore ensures the restored engine keeps
// feeding the same registry (the observer is re-attached on load).
func TestMetricsSurviveCheckpointRestore(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(23))
	postPoints(t, ts, clusteredBatch(rng, 0, 200)).Body.Close()

	ck, err := http.Get(ts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ckBytes, _ := io.ReadAll(ck.Body)
	ck.Body.Close()
	resp, err := http.Post(ts.URL+"/checkpoint", "application/octet-stream", strings.NewReader(string(ckBytes)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: %d", resp.StatusCode)
	}

	stridesBefore := metricValue(t, ts.URL, "disc_strides_total")
	postPoints(t, ts, clusteredBatch(rng, 10_000, 100)).Body.Close()
	if after := metricValue(t, ts.URL, "disc_strides_total"); after <= stridesBefore {
		t.Fatalf("strides_total stuck at %g after restore+ingest", after)
	}
}

func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
