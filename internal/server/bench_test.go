package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"disc/internal/ckpt"
	"disc/internal/datasets"
	"disc/internal/model"
)

// BenchmarkIngestRouting measures the full HTTP ingest path — decode,
// validate, slider push, engine advance, view publish — through the two
// route surfaces: "single" is the standalone single-stream Server,
// "multi" is the registry's legacy alias onto the default stream. CI
// A/B-gates the pair: the registry indirection (handler adapter + stream
// lookup-free alias) must not cost the single-stream path more than the
// benchdiff threshold.
func BenchmarkIngestRouting(b *testing.B) {
	cfg := Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:  1000,
		Stride:  100,
	}
	b.Run("single", func(b *testing.B) {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchIngest(b, s.Handler())
	})
	b.Run("multi", func(b *testing.B) {
		m, err := NewMulti(MultiConfig{Default: cfg})
		if err != nil {
			b.Fatal(err)
		}
		benchIngest(b, m.Handler())
	})
}

// BenchmarkAdvanceWAL measures the ingest path with write-ahead logging
// off and on. The WAL variant uses WithWALNoSync to isolate the logging
// path's CPU cost — record encode, frame, CRC, buffered write — from
// device fsync latency, which would otherwise dominate a sub-millisecond
// advance and turn the CI gate into a disk benchmark. CI A/B-gates the
// pair: the logging path must not cost the ingest path more than the
// benchdiff threshold.
func BenchmarkAdvanceWAL(b *testing.B) {
	cfg := Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:  1000,
		Stride:  100,
	}
	b.Run("off", func(b *testing.B) {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchIngest(b, s.Handler())
	})
	b.Run("on", func(b *testing.B) {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		w, err := ckpt.OpenWAL(b.TempDir(), ckpt.WithWALNoSync(),
			ckpt.WithWALMaxPayload(s.walRecordMaxPayload()))
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		s.AttachWAL(w)
		benchIngest(b, s.Handler())
	})
}

// BenchmarkIngestTrace measures the ingest path with tracing off
// (Config.Tracing false) and on: every request then records its ingest span
// tree, the stride's record is rendered under it, and the finished trace
// enters the rings. CI A/B-gates the pair: tracing must not cost the
// ingest path more than the benchdiff threshold.
func BenchmarkIngestTrace(b *testing.B) {
	cfg := Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:  1000,
		Stride:  100,
	}
	b.Run("off", func(b *testing.B) {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchIngest(b, s.Handler())
	})
	b.Run("on", func(b *testing.B) {
		cfg := cfg
		cfg.Tracing = true
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchIngest(b, s.Handler())
	})
}

// benchIngest drives one stride-sized batch per iteration straight into
// the handler (no network, no client): ids are globally unique across
// iterations so the stream never rejects a duplicate, and the JSON
// marshal cost is identical across variants, so the measured difference
// isolates the routing layer.
func benchIngest(b *testing.B, h http.Handler) {
	b.ReportAllocs()
	const batch = 100
	id := int64(0)
	pts := make([]ingestPoint, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pts {
			c := float64((id % 2) * 20)
			pts[j] = ingestPoint{
				ID:   id,
				Time: id,
				// Deterministic in-blob jitter, cheap enough to stay timed.
				Coords: []float64{c + float64(id%7)/7, c + float64(id%11)/11},
			}
			id++
		}
		body, err := json.Marshal(pts)
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatal(fmt.Errorf("ingest status %d: %s", rec.Code, rec.Body.String()))
		}
	}
}

// publishFixture is a warm server plus the rest of its stream, for measuring
// publish alone. The stream is window/5000 copies, far apart, of one
// high-resolution maze (the benchmark's hires settings), taking turns one
// stride at a time: every stride at window 50 000 is then, point for point, a
// stride of the window-5 000 stream — same arrivals, same departures, same
// affected set — played inside ten times the state (and ten times the
// clusters). What differs between sizes is only what the churn sits in.
type publishFixture struct {
	s    *Server
	pts  []model.Point
	next int
}

const publishStride = 50

func newPublishFixture(tb testing.TB, window int) *publishFixture {
	tb.Helper()
	s, err := New(Config{Cluster: model.Config{Dims: 2, Eps: 0.15, MinPts: 4}, Window: window, Stride: publishStride})
	if err != nil {
		tb.Fatal(err)
	}
	copies := window / 5000
	base := datasets.MazeN(5000+(650/copies)*publishStride, 10, 1).Points // fill + 650 strides in all
	f := &publishFixture{s: s, pts: make([]model.Point, 0, len(base)*copies)}
	for lo := 0; lo < len(base); lo += publishStride {
		for c := 0; c < copies; c++ {
			for _, p := range base[lo : lo+publishStride] {
				p.ID = p.ID*int64(copies) + int64(c)
				p.Pos[0] += float64(c) * 1000
				f.pts = append(f.pts, p)
			}
		}
	}
	for f.next < window {
		f.advance()
	}
	s.publish()
	for i := 0; i < 50; i++ {
		f.advance()
		s.publish()
	}
	return f
}

// advance pushes one stride through the slider and the engine, leaving the
// publication to the caller. It reports false when the stream is used up.
func (f *publishFixture) advance() bool {
	for f.next < len(f.pts) {
		step := f.s.slider.Push(f.pts[f.next])
		f.next++
		if step != nil {
			f.s.eng.Advance(step.In, step.Out)
			return true
		}
	}
	return false
}

// BenchmarkPublish times publication alone — the engine's stride runs with
// the timer stopped — at two windows ten times apart under identical churn.
// CI gates the pair against each other. A publish that walked the window
// would cost 10x at the larger size; what remains here (about 1.9x on the
// development host) is the same work missing the cache in ten times the
// state, plus the 16-byte-per-cluster census copy.
func BenchmarkPublish(b *testing.B) {
	for _, window := range []int{5000, 50000} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			f := newPublishFixture(b, window)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if !f.advance() {
					f = newPublishFixture(b, window)
					f.advance()
				}
				b.StartTimer()
				f.s.publish()
			}
		})
	}
}

// TestPublishAllocsBounded: the bytes a publication allocates follow the
// stride, not the window. Ten times the window (and ten times the clusters)
// may cost at most twice, plus the one term that is allowed to follow the
// census: the copy of its rows, 16 bytes a cluster.
func TestPublishAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 50 000-point window")
	}
	perPublish := func(window int) (bytes, clusters float64) {
		f := newPublishFixture(t, window)
		const strides = 200
		var before, after runtime.MemStats
		for i := 0; i < strides; i++ {
			if !f.advance() {
				t.Fatal("stream exhausted")
			}
			runtime.ReadMemStats(&before)
			f.s.publish()
			runtime.ReadMemStats(&after)
			bytes += float64(after.TotalAlloc - before.TotalAlloc)
			clusters += float64(len(f.s.view.Load().census))
		}
		return bytes / strides, clusters / strides
	}
	small, smallClusters := perPublish(5000)
	large, largeClusters := perPublish(50000)
	const rowBytes = 16 // unsafe.Sizeof(censusRow{})
	bound := 2*small + rowBytes*(largeClusters-smallClusters)
	t.Logf("bytes allocated per publish: %.0f at window 5000 (%.0f clusters), %.0f at window 50000 (%.0f clusters): %.2fx, bound %.0f",
		small, smallClusters, large, largeClusters, large/small, bound)
	if large > bound {
		t.Fatalf("publish allocates %.0f B at window 50000 against %.0f B at window 5000; beyond the census rows that is more than 2x, so something else scales with the window", large, small)
	}
}
