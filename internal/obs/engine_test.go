package obs

import (
	"strings"
	"testing"
	"time"

	"disc/internal/core"
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
