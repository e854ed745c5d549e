package core_test

import (
	"testing"

	"disc/internal/core"
	"disc/internal/geom"
	"disc/internal/model"
	"disc/internal/obs"
	"disc/internal/trace"
)

// The engine records no spans: a stride's span tree is rendered from its
// StrideRecord by internal/obs. These tests pin that seam from the engine's
// side — the records an engine emits render the phase tree, under a
// caller's span when asked, and rendering changes nothing the engine does.

// line places n points on the x axis, spacing apart, with ids from idBase.
func line(idBase int64, x0 float64, n int, spacing float64) []model.Point {
	pts := make([]model.Point, n)
	for i := range pts {
		pts[i] = model.Point{ID: idBase + int64(i), Pos: geom.NewVec(x0+float64(i)*spacing, 0)}
	}
	return pts
}

// ownTraces is an observer that renders every record into a trace of its
// own, stamps the trace id into the record, and keeps the record.
func ownTraces(tc *trace.Tracer, recs *[]core.StrideRecord) core.Observer {
	return core.ObserverFunc(func(rec core.StrideRecord) {
		tr := tc.StartTrace(trace.SpanContext{})
		obs.RenderStride(tr, nil, &rec)
		rec.TraceID = tr.ID().String()
		tc.Finish(tr)
		*recs = append(*recs, rec)
	})
}

// spanNamed returns the first span with the given name, or nil.
func spanNamed(d *trace.TraceData, name string) *trace.Span {
	for i := range d.Spans {
		if d.Spans[i].Name == name {
			return &d.Spans[i]
		}
	}
	return nil
}

// attr returns the integer attribute key of sp, and whether it is set.
func attr(sp *trace.Span, key string) (int64, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key && !a.IsStr {
			return a.Int, true
		}
	}
	return 0, false
}

func names(d *trace.TraceData) []string {
	out := make([]string, len(d.Spans))
	for i := range d.Spans {
		out[i] = d.Spans[i].Name
	}
	return out
}

// TestAdvanceSelfTracedSpanTree drives a 4-worker engine whose observer
// renders each record into its own trace and checks the tree: advance →
// {collect, cluster.excores, cluster.neocores, finalize}, parent links
// intact, the phases tiling the advance, the fan-out widths and the
// connectivity check carried as attributes, and each record stamped with
// the id of the trace it was rendered into.
func TestAdvanceSelfTracedSpanTree(t *testing.T) {
	tc := trace.NewTracer(trace.Config{Recent: 16, Slow: 4})
	var recs []core.StrideRecord
	eng := core.New(model.Config{Dims: 2, Eps: 1.0, MinPts: 2},
		core.WithWorkers(4), core.WithObserver(ownTraces(tc, &recs)))

	// Stride 1: bulk arrival of a 60-core chain — parallel COLLECT fan-out.
	pts := line(0, 0, 60, 0.9)
	eng.Advance(pts, nil)
	// Stride 2: remove the chain's middle point — an ex-core whose minimal
	// bonding cores are disconnected, forcing a connectivity check and a
	// split.
	eng.Advance(nil, []model.Point{pts[30]})

	snap := tc.Snapshot()
	if len(snap) != 2 || len(recs) != 2 {
		t.Fatalf("resident traces = %d, records = %d, want 2 and 2", len(snap), len(recs))
	}
	// Newest first: snap[0] is stride 2, snap[1] stride 1.
	stride2, stride1 := &snap[0], &snap[1]
	if recs[0].TraceID != stride1.TraceID.String() || recs[1].TraceID != stride2.TraceID.String() {
		t.Fatalf("StrideRecord trace ids %q/%q do not match traces %s/%s",
			recs[0].TraceID, recs[1].TraceID, stride1.TraceID, stride2.TraceID)
	}

	for _, d := range []*trace.TraceData{stride1, stride2} {
		adv := spanNamed(d, "advance")
		if adv == nil {
			t.Fatalf("trace %s has no advance span (spans: %v)", d.TraceID, names(d))
		}
		if adv.ParentID != 0 {
			t.Fatalf("advance has parent %d, want none", adv.ParentID)
		}
		end := adv.Start
		for _, phase := range []string{"collect", "cluster.excores", "cluster.neocores", "finalize"} {
			sp := spanNamed(d, phase)
			if sp == nil {
				t.Fatalf("trace %s missing %q span", d.TraceID, phase)
			}
			if sp.ParentID != adv.SpanID {
				t.Fatalf("%q parent = %d, want advance %d", phase, sp.ParentID, adv.SpanID)
			}
			if !sp.Start.Equal(end) || sp.End.Before(sp.Start) {
				t.Fatalf("%q span %v..%v does not follow the previous phase's end %v", phase, sp.Start, sp.End, end)
			}
			end = sp.End
		}
		if !end.Equal(adv.End) {
			t.Fatalf("phases end at %v, advance at %v", end, adv.End)
		}
	}

	// Stride 1's 60-point COLLECT fanned out over the four workers.
	if w, _ := attr(spanNamed(stride1, "collect"), "workers"); w != 4 {
		t.Fatalf("stride 1 collect workers = %d, want 4", w)
	}
	// Stride 2 ran a connectivity check in the ex-core phase.
	ex := spanNamed(stride2, "cluster.excores")
	if n, _ := attr(ex, "conn_checks"); n < 1 || int(n) != recs[1].ConnChecks {
		t.Fatalf("stride 2 conn_checks = %d, record says %d", n, recs[1].ConnChecks)
	}
	if _, ok := attr(ex, "cluster_workers"); !ok {
		t.Fatal("cluster.excores carries no cluster_workers")
	}
	if n, _ := attr(spanNamed(stride2, "finalize"), "affected"); n == 0 || int(n) != recs[1].Affected {
		t.Fatalf("stride 2 affected = %d, record says %d", n, recs[1].Affected)
	}
}

// TestAdvanceTracedCallerOwned checks the server-shaped use: the caller
// starts the trace and its root span, the stride's record is rendered
// under that root, and nothing is ring-resident until the caller finishes.
func TestAdvanceTracedCallerOwned(t *testing.T) {
	tc := trace.NewTracer(trace.Config{Recent: 8, Slow: 4})
	var last core.StrideRecord
	eng := core.New(model.Config{Dims: 2, Eps: 1.0, MinPts: 2},
		core.WithObserver(core.ObserverFunc(func(rec core.StrideRecord) { last = rec })))

	tr := tc.StartTrace(trace.SpanContext{})
	root := tr.StartSpan("ingest", nil)
	eng.Advance(line(0, 0, 20, 0.9), nil)
	obs.RenderStride(tr, root, &last)
	if got := len(tc.Snapshot()); got != 0 {
		t.Fatalf("%d traces resident before caller Finish", got)
	}
	root.EndNow()
	tc.Finish(tr)

	snap := tc.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("resident traces = %d", len(snap))
	}
	d := &snap[0]
	ingest := spanNamed(d, "ingest")
	adv := spanNamed(d, "advance")
	if ingest == nil || adv == nil {
		t.Fatalf("span tree incomplete: %v", names(d))
	}
	if adv.ParentID != ingest.SpanID {
		t.Fatalf("advance parent = %d, want ingest %d", adv.ParentID, ingest.SpanID)
	}
	if spanNamed(d, "collect").ParentID != adv.SpanID {
		t.Fatalf("collect not parented under advance")
	}
	if n, _ := attr(adv, "delta_in"); n != 20 {
		t.Fatalf("advance delta_in = %d, want 20", n)
	}

	// A nil trace renders nothing and does not panic.
	obs.RenderStride(nil, nil, &last)
}

// TestTracedAdvanceMatchesUntraced pins that rendering is observation
// only: an engine whose records are rendered and an engine with no
// observer produce identical assignments, stats, and window contents over
// the same stream.
func TestTracedAdvanceMatchesUntraced(t *testing.T) {
	cfg := model.Config{Dims: 2, Eps: 1.0, MinPts: 2}
	plain := core.New(cfg, core.WithWorkers(4))
	tc := trace.NewTracer(trace.Config{Recent: 4, Slow: 2})
	var recs []core.StrideRecord
	traced := core.New(cfg, core.WithWorkers(4), core.WithObserver(ownTraces(tc, &recs)))

	pts := line(0, 0, 80, 0.9)
	strides := [][2][]model.Point{
		{pts, nil},
		{nil, {pts[40]}},
		{line(200, 0, 10, 0.9), {pts[10]}},
	}
	for _, s := range strides {
		plain.Advance(s[0], s[1])
		traced.Advance(s[0], s[1])
	}
	if len(recs) != len(strides) {
		t.Fatalf("rendered %d strides, want %d", len(recs), len(strides))
	}
	a, b := plain.Snapshot(), traced.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("window sizes diverge: %d vs %d", len(a), len(b))
	}
	for id, as := range a {
		if bs, ok := b[id]; !ok || as != bs {
			t.Fatalf("point %d: %+v vs %+v", id, as, b[id])
		}
	}
	sa, sb := plain.Stats(), traced.Stats()
	if sa != sb {
		t.Fatalf("stats diverge:\n%+v\n%+v", sa, sb)
	}
}

// TestSetTracerDetach verifies that detaching the rendering observer with
// SetObserver(nil) stops recording.
func TestSetTracerDetach(t *testing.T) {
	tc := trace.NewTracer(trace.Config{Recent: 4, Slow: 2})
	var recs []core.StrideRecord
	eng := core.New(model.Config{Dims: 2, Eps: 1.0, MinPts: 2}, core.WithObserver(ownTraces(tc, &recs)))
	eng.Advance(line(0, 0, 10, 0.9), nil)
	if len(tc.Snapshot()) != 1 {
		t.Fatalf("attached observer rendered %d traces, want 1", len(tc.Snapshot()))
	}
	eng.SetObserver(nil)
	eng.Advance(line(50, 50, 5, 0.9), nil)
	if len(tc.Snapshot()) != 1 || len(recs) != 1 {
		t.Fatalf("detached observer still rendered (%d traces, %d records)", len(tc.Snapshot()), len(recs))
	}
}
