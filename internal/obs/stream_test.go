package obs

import (
	"strings"
	"testing"
)

// TestStreamMetricsPoolCap pins the cardinality contract: the first `cap`
// distinct names get dedicated label values, everything after shares one
// {stream="other"} bundle, and re-acquiring a name returns its original
// bundle.
func TestStreamMetricsPoolCap(t *testing.T) {
	r := NewRegistry()
	p := NewStreamMetricsPool(r, 2)

	a := p.Acquire("a")
	b := p.Acquire("b")
	c := p.Acquire("c")
	d := p.Acquire("d")

	if !a.Dedicated || a.Label != "a" {
		t.Fatalf("stream a: got label %q dedicated %v", a.Label, a.Dedicated)
	}
	if !b.Dedicated || b.Label != "b" {
		t.Fatalf("stream b: got label %q dedicated %v", b.Label, b.Dedicated)
	}
	if c.Dedicated || c.Label != OverflowStream {
		t.Fatalf("stream c past cap: got label %q dedicated %v", c.Label, c.Dedicated)
	}
	if d != c {
		t.Fatal("streams past the cap must share one overflow bundle")
	}
	if got := p.Acquire("a"); got != a {
		t.Fatal("re-acquiring a dedicated stream must return its original bundle")
	}
	if n := len(p.dedicated); n != 2 {
		t.Fatalf("dedicated streams = %d, want 2", n)
	}
}

// TestStreamMetricsPoolOtherNameCollision: a tenant literally named
// "other" must not claim a dedicated slot that would collide with the
// overflow label value.
func TestStreamMetricsPoolOtherNameCollision(t *testing.T) {
	r := NewRegistry()
	p := NewStreamMetricsPool(r, 8)
	o := p.Acquire(OverflowStream)
	if o.Dedicated {
		t.Fatal(`stream named "other" must map to the shared overflow bundle`)
	}
	// And a later overflow stream shares it rather than re-registering.
	for i := 0; i < 8; i++ {
		p.Acquire(strings.Repeat("x", i+1))
	}
	if got := p.Acquire("overflowed"); got != o {
		t.Fatal("overflow bundle not shared with stream named other")
	}
}

// TestStreamLabelRendered: pooled instruments carry the stream label in
// the Prometheus exposition, alongside any per-instrument labels.
func TestStreamLabelRendered(t *testing.T) {
	r := NewRegistry()
	p := NewStreamMetricsPool(r, 4)
	m := p.Acquire("tenant-1")
	m.Ingested.Add(7)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`disc_ingested_points_total{stream="tenant-1"} 7`,
		`disc_strides_total{stream="tenant-1"} 0`,
		`disc_phase_duration_seconds_bucket{phase="collect",stream="tenant-1"`,
		`disc_query_duration_seconds_bucket{endpoint="clusters",stream="tenant-1"`,
		`disc_checkpoint_attempts_total{stream="tenant-1"} 0`,
		`disc_connectivity_checks_total{stream="tenant-1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSingleStreamMetricsUnlabeled: the standalone bundle renders exactly
// the historical unlabeled names.
func TestSingleStreamMetricsUnlabeled(t *testing.T) {
	r := NewRegistry()
	m := SingleStreamMetrics(r)
	m.Ingested.Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "disc_ingested_points_total 1\n") {
		t.Fatalf("unlabeled ingest counter missing:\n%s", out)
	}
	if strings.Contains(out, `stream=`) {
		t.Fatal("single-stream bundle must not carry a stream label")
	}
}
