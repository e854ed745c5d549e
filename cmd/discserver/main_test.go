package main

import (
	"math"
	"strings"
	"testing"
)

// TestValidateFlags: the startup flag validation must reject every
// out-of-range clustering parameter with a message naming the flag —
// before the fix -dims documented "1-4" but accepted anything, and a NaN
// -eps sailed through into distance comparisons.
func TestValidateFlags(t *testing.T) {
	ok := func(dims int, eps float64, minPts, win, stride int) error {
		return validateFlags(dims, eps, minPts, win, stride, "", "")
	}
	if err := ok(2, 1.0, 5, 10000, 500); err != nil {
		t.Fatalf("default-shaped flags rejected: %v", err)
	}

	cases := []struct {
		name   string
		err    error
		nameIn string // flag the message must mention
	}{
		{"dims zero", ok(0, 1, 5, 100, 10), "-dims"},
		{"dims negative", ok(-2, 1, 5, 100, 10), "-dims"},
		{"dims too large", ok(9, 1, 5, 100, 10), "-dims"},
		{"eps zero", ok(2, 0, 5, 100, 10), "-eps"},
		{"eps negative", ok(2, -0.5, 5, 100, 10), "-eps"},
		{"eps NaN", ok(2, math.NaN(), 5, 100, 10), "-eps"},
		{"eps Inf", ok(2, math.Inf(1), 5, 100, 10), "-eps"},
		{"minpts zero", ok(2, 1, 0, 100, 10), "-minpts"},
		{"window zero", ok(2, 1, 5, 0, 10), "-window"},
		{"window negative", ok(2, 1, 5, -100, 10), "-window"},
		{"stride zero", ok(2, 1, 5, 100, 0), "-stride"},
		{"stride > window", ok(2, 1, 5, 100, 500), "-stride"},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(c.err.Error(), c.nameIn) {
			t.Errorf("%s: error %q does not name %s", c.name, c.err, c.nameIn)
		}
	}

	if err := validateFlags(2, 1, 5, 100, 10, "/wal", "/wal"); err == nil || !strings.Contains(err.Error(), "-wal-dir") {
		t.Errorf("-follow with -wal-dir: %v", err)
	}
	if err := validateFlags(2, 1, 5, 100, 10, "/wal", ""); err != nil {
		t.Errorf("-follow alone rejected: %v", err)
	}
}
