package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"disc/internal/ckpt"
	"disc/internal/model"
)

// getBody fetches url and returns status plus body text.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestReadyzRecoveryGate: there is no recovery gate left to wait on. A
// stream recovers — checkpoint, then log — before NewMulti returns, so on a
// recovered directory /readyz and /healthz answer 200 at once, and what
// they vouch for is the recovered window.
func TestReadyzRecoveryGate(t *testing.T) {
	cfg := MultiConfig{
		Default:       Config{Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4}, Window: 200, Stride: 50},
		CheckpointDir: t.TempDir(),
		WALDir:        t.TempDir(),
	}
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	rng := rand.New(rand.NewSource(31))
	postPoints(t, ts, clusteredBatch(rng, 0, 270)).Body.Close() // 2 strides + 20 pending
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.RunCheckpoints(ctx) // the shutdown final at stride 2; the log holds the pending 20
	ts.Close()

	m2, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(m2.Handler())
	defer ts2.Close()
	for _, path := range []string{"/readyz", "/healthz", "/streams/default/readyz"} {
		if code, body := getBody(t, ts2.URL+path); code != http.StatusOK {
			t.Fatalf("%s = %d %q right after NewMulti returned, want 200", path, code, body)
		}
	}
	var sr statsResponse
	getJSON(t, ts2.URL+"/stats", &sr)
	if sr.Ingested != 270 || sr.Stats.Strides != 2 {
		t.Fatalf("ready stream serves ingested=%d strides=%d, want the recovered 270 and 2", sr.Ingested, sr.Stats.Strides)
	}
}

// TestReadyzBacklogHighWater covers the second transition: /readyz trips
// while the slider's pending backlog exceeds the high-water mark and
// recovers once a stride boundary drains it.
func TestReadyzBacklogHighWater(t *testing.T) {
	s, err := New(Config{
		Cluster:        model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:         200,
		Stride:         50,
		ReadyHighWater: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("fresh readyz = %d, want 200", code)
	}

	// 20 points buffered below the 200-point fill boundary: backlog 20 > 10.
	rng := rand.New(rand.NewSource(7))
	postPoints(t, ts, clusteredBatch(rng, 0, 20)).Body.Close()
	if code, body := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "backlog") {
		t.Fatalf("backlogged readyz = %d %q, want 503 mentioning backlog", code, body)
	}

	// Filling the window crosses the boundary; the backlog drains to zero.
	postPoints(t, ts, clusteredBatch(rng, 20, 180)).Body.Close()
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d after boundary drained backlog, want 200", code)
	}
}

// tracesPayload mirrors the GET /debug/traces wire shape.
type tracesPayload struct {
	Traces []struct {
		TraceID string `json:"trace_id"`
		Root    string `json:"root"`
		Spans   []struct {
			ID     string `json:"id"`
			Parent string `json:"parent"`
			Name   string `json:"name"`
		} `json:"spans"`
	} `json:"traces"`
}

// TestIngestTraceSpanTree is the acceptance scenario end to end: a traced
// ingest crossing a stride boundary records ingest → advance → {collect,
// cluster, finalize} → publish under the client's traceparent id, and a
// checkpoint joins the same trace as checkpoint → {snapshot, save}. Run
// under -race this exercises concurrent span writes from the fan-out
// workers against /debug/traces readers.
func TestIngestTraceSpanTree(t *testing.T) {
	s, err := New(Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:  200,
		Stride:  50,
		Tracing: &TraceConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	rng := rand.New(rand.NewSource(3))
	body, _ := json.Marshal(clusteredBatch(rng, 0, 200))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Disc-Trace"); got != tid {
		t.Fatalf("X-Disc-Trace = %q, want client trace id %q", got, tid)
	}

	// An immediate checkpoint joins the stride's trace by id.
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runner := ckpt.NewRunner(store, s, 1, ckpt.WithRunnerTracer(s.tracer))
	if _, err := runner.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	var payload tracesPayload
	getJSON(t, ts.URL+"/debug/traces?trace="+tid, &payload)
	if len(payload.Traces) != 1 {
		t.Fatalf("traces for id %s: %d, want 1", tid, len(payload.Traces))
	}
	tr := payload.Traces[0]

	spanID := map[string]string{}
	parent := map[string]string{}
	for _, sp := range tr.Spans {
		if _, dup := spanID[sp.Name]; !dup {
			spanID[sp.Name] = sp.ID
			parent[sp.Name] = sp.Parent
		}
	}
	for _, want := range []string{
		"ingest", "decode", "validate", "advance",
		"collect", "cluster.excores", "cluster.neocores", "finalize",
		"publish", "checkpoint", "checkpoint.snapshot", "checkpoint.save",
	} {
		if _, ok := spanID[want]; !ok {
			t.Fatalf("span %q missing from trace (have %v)", want, keysOf(spanID))
		}
	}
	// Parent links: everything hangs off the ingest root; the root itself
	// hangs off the remote parent from the traceparent header.
	if parent["ingest"] != "f067aa0ba902b7" {
		t.Fatalf("ingest parent = %q, want remote parent id", parent["ingest"])
	}
	for _, child := range []string{"decode", "validate", "advance", "publish", "checkpoint"} {
		if parent[child] != spanID["ingest"] {
			t.Fatalf("%q parent = %q, want ingest %q", child, parent[child], spanID["ingest"])
		}
	}
	for _, phase := range []string{"collect", "cluster.excores", "cluster.neocores", "finalize"} {
		if parent[phase] != spanID["advance"] {
			t.Fatalf("%q parent = %q, want advance %q", phase, parent[phase], spanID["advance"])
		}
	}
	for _, child := range []string{"checkpoint.snapshot", "checkpoint.save"} {
		if parent[child] != spanID["checkpoint"] {
			t.Fatalf("%q parent = %q, want checkpoint %q", child, parent[child], spanID["checkpoint"])
		}
	}
}

func keysOf(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestIngestUntracedHasNoTraceEndpoints pins that a server without
// Tracing config mounts no /debug/traces route and stamps no header.
func TestIngestUntracedHasNoTraceEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(5))
	resp := postPoints(t, ts, clusteredBatch(rng, 0, 10))
	resp.Body.Close()
	if h := resp.Header.Get("X-Disc-Trace"); h != "" {
		t.Fatalf("untraced ingest stamped X-Disc-Trace %q", h)
	}
	if code, _ := getBody(t, ts.URL+"/debug/traces"); code != http.StatusNotFound {
		t.Fatalf("/debug/traces = %d without tracing, want 404", code)
	}
}
