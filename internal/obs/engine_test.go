package obs

import (
	"strings"
	"testing"
	"time"

	"disc/internal/core"
	"disc/internal/trace"
)

// TestEngineMetricsConnectivityFamily pins the disc_connectivity_* family:
// registration alongside the legacy disc_connectivity_checks_total counter
// (prefix overlap, distinct names — no panic) and translation of a
// StrideRecord into the counters. The dynamic-forest fields of the record —
// which a server's engine never fills — have no families.
func TestEngineMetricsConnectivityFamily(t *testing.T) {
	r := NewRegistry()
	m := NewEngineMetrics(r) // registers disc_connectivity_checks_total too

	m.ObserveStride(core.StrideRecord{
		ConnStrategy: "msbfs",
		Connectivity: 2 * time.Millisecond,
		ConnChecks:   3,
		ConnSearches: 4,
		ConnNodes:    88,
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"disc_connectivity_checks_total 3\n",
		"disc_connectivity_traversal_searches_total 4\n",
		"disc_connectivity_traversal_nodes_total 88\n",
		"disc_connectivity_check_duration_seconds_sum 0.002\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, gone := range []string{"disc_connectivity_strategy", "disc_connectivity_forest_", "disc_connectivity_replacement_"} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition still carries a %s series", gone)
		}
	}
}

// TestRenderStrideTrace pins the record-to-span mapping: advance → the four
// phase spans, tiled from rec.Start by the record's own durations, with the
// record's counters as attributes; the forest attributes appear only under
// the dynamic strategy, and a nil trace records nothing.
func TestRenderStrideTrace(t *testing.T) {
	start := time.Now()
	rec := core.StrideRecord{
		Stride: 7, DeltaIn: 40, DeltaOut: 30, ExCores: 5, NeoCores: 6, Affected: 90,
		Start: start, Collect: 3 * time.Millisecond, ExCorePhase: 2 * time.Millisecond,
		NeoCorePhase: time.Millisecond, Finalize: 500 * time.Microsecond,
		Total:   6500 * time.Microsecond,
		Workers: 4, ClusterWorkers: 2, ConnChecks: 3, Connectivity: 1200 * time.Microsecond,
		ConnStrategy: "msbfs",
	}
	tc := trace.NewTracer(trace.Config{})
	for _, strategy := range []string{"msbfs", "dynamic"} {
		rec.ConnStrategy = strategy
		rec.ForestUpdate, rec.ForestOps = 0, 0
		if strategy == "dynamic" {
			rec.ForestUpdate, rec.ForestOps = 800*time.Microsecond, 12
		}
		tr := tc.StartTrace(trace.SpanContext{})
		root := tr.StartSpanAt("ingest", nil, start)
		RenderStride(tr, root, &rec)
		root.EndAt(start.Add(rec.Total))
		id, _ := tc.Finish(tr)

		var d *trace.TraceData
		for _, td := range tc.Snapshot() {
			if td.TraceID == id {
				d = &td
			}
		}
		spans := map[string]*trace.Span{}
		for i := range d.Spans {
			spans[d.Spans[i].Name] = &d.Spans[i]
		}
		adv := spans["advance"]
		if adv == nil || adv.ParentID != spans["ingest"].SpanID {
			t.Fatalf("%s: advance missing or not under the caller's span: %+v", strategy, d.Spans)
		}
		if !adv.Start.Equal(start) || !adv.End.Equal(start.Add(rec.Total)) {
			t.Fatalf("%s: advance %v..%v, want the record's %v..+%v", strategy, adv.Start, adv.End, start, rec.Total)
		}
		at := start
		for _, ph := range []struct {
			name string
			dur  time.Duration
		}{{"collect", rec.Collect}, {"cluster.excores", rec.ExCorePhase}, {"cluster.neocores", rec.NeoCorePhase}, {"finalize", rec.Finalize}} {
			sp := spans[ph.name]
			if sp == nil || sp.ParentID != adv.SpanID {
				t.Fatalf("%s: %q missing or not under advance", strategy, ph.name)
			}
			if !sp.Start.Equal(at) || !sp.End.Equal(at.Add(ph.dur)) {
				t.Fatalf("%s: %q spans %v..%v, want %v..+%v", strategy, ph.name, sp.Start, sp.End, at, ph.dur)
			}
			at = at.Add(ph.dur)
		}
		want := map[string]map[string]int64{
			"advance":         {"stride": 7, "delta_in": 40, "delta_out": 30},
			"collect":         {"ex_cores": 5, "neo_cores": 6, "workers": 4},
			"cluster.excores": {"cluster_workers": 2, "conn_checks": 3, "conn_us": 1200},
			"finalize":        {"affected": 90},
		}
		if strategy == "dynamic" {
			want["cluster.excores"]["forest_us"] = 800
			want["cluster.excores"]["forest_ops"] = 12
			want["cluster.excores"]["forest_rebuilds"] = 0
		}
		for name, attrs := range want {
			got := map[string]int64{}
			for _, a := range spans[name].Attrs {
				got[a.Key] = a.Int
			}
			if len(got) != len(attrs) {
				t.Errorf("%s: %q attrs %v, want %v", strategy, name, got, attrs)
			}
			for k, v := range attrs {
				if got[k] != v {
					t.Errorf("%s: %q %s = %d, want %d", strategy, name, k, got[k], v)
				}
			}
		}
	}

	RenderStride(nil, nil, &rec) // no trace: nothing to record, no panic
}
