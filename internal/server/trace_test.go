package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"disc/internal/ckpt"
	"disc/internal/model"
	"disc/internal/trace"
	"disc/internal/window"
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
		Default: Config{Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4}, Window: 200, Stride: 50},
		WALDir:  t.TempDir(),
	}
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	rng := rand.New(rand.NewSource(31))
	postPoints(t, ts, clusteredBatch(rng, 0, 250)).Body.Close()  // 2 strides
	postPoints(t, ts, clusteredBatch(rng, 250, 20)).Body.Close() // 20 pending
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.RunCheckpoints(ctx) // the shutdown final at stride 2; the log holds the pending 20
	ts.Close()
	cutLogToNewestGeneration(t, cfg.WALDir, cfg.Default) // only the pending 20 are left to replay

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

// TestReadyzBacklogHighWater: readiness has no backlog gate. /readyz answers
// 200 at every step of a window fill and of the partial strides after it —
// apply drains a partial stride in the ingest that completes it, so there is
// no backlog for the probe to report and nothing a load balancer could shed
// that would drain it.
func TestReadyzBacklogHighWater(t *testing.T) {
	s, err := New(Config{Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4}, Window: 200, Stride: 50})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(7))
	id := int64(0)
	// 199 points of fill, the fill's last point, then strides and the partial
	// strides between them.
	for step, n := range []int{0, 20, 90, 89, 1, 30, 19, 49, 1, 7} {
		if n > 0 {
			resp := postPoints(t, ts, clusteredBatch(rng, id, n))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("step %d: ingest status %d: %s", step, resp.StatusCode, readBody(t, resp))
			}
			resp.Body.Close()
			id += int64(n)
		}
		if code, body := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
			t.Fatalf("step %d (%d points ingested): readyz = %d %q, want 200", step, id, code, body)
		}
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

// postTraced posts pts to /ingest under the W3C trace id tid and returns
// the response status.
func postTraced(t *testing.T, ts *httptest.Server, pts []ingestPoint, tid string) int {
	t.Helper()
	body, _ := json.Marshal(pts)
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
	if got := resp.Header.Get("X-Disc-Trace"); got != tid {
		t.Fatalf("X-Disc-Trace = %q, want client trace id %q", got, tid)
	}
	return resp.StatusCode
}

// residentTrace returns the resident trace with id tid.
func residentTrace(t *testing.T, tc *trace.Tracer, tid string) *trace.TraceData {
	t.Helper()
	for _, d := range tc.Snapshot() {
		if d.TraceID.String() == tid {
			return &d
		}
	}
	t.Fatalf("trace %s is not resident", tid)
	return nil
}

// TestIngestTraceSpanTree is the acceptance scenario end to end: a traced
// ingest crossing a stride boundary records ingest → advance → {collect,
// cluster, finalize} → publish under the client's traceparent id, the
// phase spans cut exactly from the stride record the stream observed, and
// the checkpoint that stride completes (W = S, so every stride is one
// interval) joins the same trace as checkpoint → {snapshot, save}, written
// by the durable leader's checkpoint writer. Run under -race this exercises
// the ingest handler's span writes, and the checkpoint fragment's merge,
// against /debug/traces readers.
func TestIngestTraceSpanTree(t *testing.T) {
	s, err := New(Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:  200,
		Stride:  200,
		Tracing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runLeader(t, s)()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	rng := rand.New(rand.NewSource(3))
	if code := postTraced(t, ts, clusteredBatch(rng, 0, 200), tid); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}

	// The phase spans are the stride record's own clock reads: each phase
	// starts at rec.Start plus the running sum of the durations before it
	// and ends at that plus its own duration, exactly.
	s.mu.Lock()
	rec := s.lastStride
	s.mu.Unlock()
	if rec.Stride != 1 {
		t.Fatalf("stream observed stride %d, want 1", rec.Stride)
	}
	d := residentTrace(t, s.tracer, tid)
	at := rec.Start
	for _, ph := range []struct {
		name string
		dur  time.Duration
	}{
		{"advance", 0},
		{"collect", rec.Collect},
		{"cluster.excores", rec.ExCorePhase},
		{"cluster.neocores", rec.NeoCorePhase},
		{"finalize", rec.Finalize},
	} {
		var sp *trace.Span
		for i := range d.Spans {
			if d.Spans[i].Name == ph.name {
				sp = &d.Spans[i]
				break
			}
		}
		if sp == nil {
			t.Fatalf("span %q missing", ph.name)
		}
		end := at.Add(ph.dur)
		if ph.name == "advance" {
			end = rec.Start.Add(rec.Total)
		}
		if !sp.Start.Equal(at) || !sp.End.Equal(end) {
			t.Fatalf("%q spans %v..%v, record gives %v..%v", ph.name, sp.Start, sp.End, at, end)
		}
		at = at.Add(ph.dur)
	}

	// The checkpoint the stride captured joins its trace by id.
	awaitCheckpointSpans(t, s, tid)
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

// runLeader makes s a durable leader over a fresh directory and runs its
// checkpoint writer until the returned stop, which waits for the shutdown
// final. It returns once the writer accepts captures.
func runLeader(t *testing.T, s *Server) (stop func()) {
	t.Helper()
	w := ckpt.NewWriter()
	if err := s.attachLeader(t.TempDir(), nil, w); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	waitUntil(t, "the checkpoint writer", w.Running)
	return func() { cancel(); <-done; s.detach(w) }
}

// awaitCheckpointSpans waits until trace tid holds a checkpoint fragment.
func awaitCheckpointSpans(t *testing.T, s *Server, tid string) {
	t.Helper()
	waitUntil(t, "the checkpoint spans in trace "+tid, func() bool {
		for _, d := range s.tracer.Snapshot() {
			if d.TraceID.String() == tid {
				return spanCount(&d, "checkpoint.save") > 0
			}
		}
		return false
	})
}

// TestIngestTraceRejectedStride: a stride the engine refuses is not
// rendered. After a successful stride 1 the stream still holds stride 1's
// record; a request whose stride fails through the advance seam must not
// render that stale record as its own advance.
func TestIngestTraceRejectedStride(t *testing.T) {
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
	defer ts.Close()

	const ok, rejected = "0af7651916cd43dd8448eb211c80319c", "5b8aa5a2d2c872e8321cf37308d69df2"
	rng := rand.New(rand.NewSource(11))
	if code := postTraced(t, ts, clusteredBatch(rng, 0, 200), ok); code != http.StatusOK {
		t.Fatalf("stride 1 ingest status %d", code)
	}
	if d := residentTrace(t, s.tracer, ok); spanCount(d, "advance") != 1 {
		t.Fatalf("stride 1 trace has %d advance spans, want 1", spanCount(d, "advance"))
	}

	s.mu.Lock()
	s.testAdvanceErr = func(*window.Step) error { return errors.New("injected advance failure") }
	s.mu.Unlock()
	if code := postTraced(t, ts, clusteredBatch(rng, 200, 50), rejected); code != http.StatusConflict {
		t.Fatalf("rejected ingest status %d, want 409", code)
	}
	d := residentTrace(t, s.tracer, rejected)
	for _, name := range []string{"advance", "collect", "publish"} {
		if n := spanCount(d, name); n != 0 {
			t.Fatalf("rejected stride's trace has %d %q spans, want none", n, name)
		}
	}
	if spanCount(d, "ingest") != 1 {
		t.Fatal("rejected stride's trace lost its ingest root")
	}
}

func spanCount(d *trace.TraceData, name string) int {
	n := 0
	for i := range d.Spans {
		if d.Spans[i].Name == name {
			n++
		}
	}
	return n
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
