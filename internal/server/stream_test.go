package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"disc/internal/obs"
)

// TestStreamWithoutHTTP drives one stream value directly — commit, then
// recordSeq: the ingest path with neither HTTP nor a log in the loop — and a
// Server over httptest with the same sequenced batches. Midway, at a stride
// boundary (a checkpoint holds the last boundary; a restart replays the
// pending points from the log), it captures both, builds a third stream from
// the direct one's capture, and continues all three. After every batch, so
// at every stride, the three serve the same bytes: every GET body and every
// checkpoint. The restored stream's event
// ring starts empty (it is not checkpoint state), so its /events is the
// others' /events?since= the restore, and its /stats counts those events.
func TestStreamWithoutHTTP(t *testing.T) {
	cfg := testWALConfig()
	newSM := func() *obs.StreamMetrics { return obs.SingleStreamMetrics(obs.NewRegistry()) }
	direct, err := newStream(cfg, newSM(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// commit is what an ingest does to a stream, without the response.
	commit := func(st *stream, batch []ingestPoint, seq uint64) []byte {
		t.Helper()
		pts, err := toPoints(batch, cfg.Cluster.Dims)
		if err != nil {
			t.Fatal(err)
		}
		rec := walRecord{Client: "direct", Seq: seq, HasSeq: true, Points: pts}
		if deduped, _, err := st.commit(&rec, nil, nil); deduped || err != nil {
			t.Fatalf("batch %d: deduped %v, %v", seq, deduped, err)
		}
		st.recordSeq(&rec)
		return rec.Resp
	}
	// viewGet renders one GET body from a stream's current view.
	viewGet := func(st *stream, h func(*publishedView, http.ResponseWriter, *http.Request), target, id string) []byte {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		req.SetPathValue("id", id)
		rec := httptest.NewRecorder()
		h(st.view.Load(), rec, req)
		return append([]byte(strconv.Itoa(rec.Code)+" "), rec.Body.Bytes()...)
	}
	httpGet := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(strconv.Itoa(resp.StatusCode)+" "), readBody(t, resp)...)
	}
	same := func(when, what string, a, b []byte) {
		t.Helper()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: %s differs:\n%s\n%s", when, what, a, b)
		}
	}

	var restored *stream
	var restoredSeq uint64 // eventSeq at the capture the restored stream was built from
	rng := rand.New(rand.NewSource(71))
	const batches, per = 40, 37
	for i := uint64(1); i <= batches; i++ {
		n := per
		if i == batches/2 { // end the batch on a stride boundary
			n = cfg.Stride - len(direct.slider.Pending())
		}
		batch := clusteredBatch(rng, int64(i)*1000, n)
		ack := commit(direct, batch, i)
		resp := postPointsSeq(t, ts.URL, batch, "direct", i)
		when := fmt.Sprintf("batch %d (stride %d)", i, direct.strides())
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(body, ack) {
			t.Fatalf("%s: HTTP ack %d %s, the stream's %s", when, resp.StatusCode, body, ack)
		}
		if restored != nil {
			same(when, "the restored stream's ack", commit(restored, batch, i), ack)
		}

		ck, err := direct.capture()()
		if err != nil {
			t.Fatal(err)
		}
		same(when, "the checkpoint over HTTP", httpGet("/checkpoint"), append([]byte("200 "), ck...))
		same(when, "WriteCheckpoint", checkpointBytes(t, srv), ck)
		if i == batches/2 {
			if restored, err = newStream(cfg, newSM(), ck); err != nil {
				t.Fatal(err)
			}
			restoredSeq = restored.eventSeq
		}
		if restored != nil {
			again, err := restored.capture()()
			if err != nil {
				t.Fatal(err)
			}
			same(when, "the restored stream's checkpoint", again, ck)
		}

		for _, ep := range []struct {
			path string
			h    func(*publishedView, http.ResponseWriter, *http.Request)
			id   string
		}{
			{"/clusters", handleClusters, ""},
			{"/stats", handleStats, ""},
			{"/events", handleEvents, ""},
			{"/points/1000", handlePoint, "1000"}, // departs at the first stride past the window
			{"/points/" + strconv.FormatInt(int64(i)*1000, 10), handlePoint, strconv.FormatInt(int64(i)*1000, 10)},
			{"/points/" + strconv.FormatInt(int64(i)*1000+int64(n)-1, 10), handlePoint, strconv.FormatInt(int64(i)*1000+int64(n)-1, 10)},
		} {
			want := viewGet(direct, ep.h, ep.path, ep.id)
			same(when, "GET "+ep.path+" over HTTP", httpGet(ep.path), want)
			if restored == nil {
				continue
			}
			got := viewGet(restored, ep.h, ep.path, ep.id)
			switch ep.path {
			case "/events":
				since := "/events?since=" + strconv.FormatUint(restoredSeq, 10)
				want = viewGet(direct, ep.h, since, "")
			case "/stats":
				var sr statsResponse
				if err := json.Unmarshal(want[len("200 "):], &sr); err != nil {
					t.Fatal(err)
				}
				sr.EventKept = int(sr.EventSeq - restoredSeq)
				want = append([]byte("200 "), encodeJSON(t, sr)...)
			}
			same(when, "the restored stream's GET "+ep.path, got, want)
		}
	}
	if got := direct.strides(); got < 20 {
		t.Fatalf("the stream completed %d strides, want at least 20", got)
	}
}
