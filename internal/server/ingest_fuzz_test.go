package server

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"disc/internal/geom"
)

// FuzzDecodeBatch holds the decode stage — the only code that sees an ingest
// body before the stream's mutex is taken — to its contract on arbitrary
// bytes: it never panics, and a batch it accepts has exactly dims finite
// coordinates per point and no repeated id, and survives a round trip through
// the wire form.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range []string{
		`null`, `[]`, `{}`, `[null]`, `nope`,
		`[{"id":1,"time":2}]`,
		`[{"id":1,"time":2,"coords":null}]`,
		`[{"id":1,"time":2,"coords":[1e400,0]}]`,
		`[{"id":1,"time":2,"coords":[0.5,-0.0]},{"id":1,"time":3,"coords":[1,1]}]`,
		`[{"id":-1,"time":-9223372036854775808,"coords":[1.5,2.5]},{"id":9223372036854775807,"coords":[5e-324,1.7976931348623157e308]}]`,
		`[{"id":1,"coords":[1,2,3]}]`,
		`[{"id":1.5,"coords":[1,2]}]`,
	} {
		f.Add([]byte(seed), uint8(2))
	}
	f.Fuzz(func(t *testing.T, body []byte, d uint8) {
		dims := int(d)%geom.MaxDims + 1
		pts, err := decodeBatch(body, dims)
		if err != nil {
			if pts != nil {
				t.Fatalf("rejected with %v but returned %d points", err, len(pts))
			}
			return
		}
		seen := make(map[int64]bool, len(pts))
		wire := make([]ingestPoint, len(pts))
		for i, p := range pts {
			for k, c := range p.Pos {
				if math.IsNaN(c) || math.IsInf(c, 0) || k >= dims && c != 0 {
					t.Fatalf("point %d: accepted coordinate %d = %v (dims %d)", i, k, c, dims)
				}
			}
			if seen[p.ID] {
				t.Fatalf("point %d: accepted a repeated id %d", i, p.ID)
			}
			seen[p.ID] = true
			wire[i] = ingestPoint{ID: p.ID, Time: p.Time, Coords: p.Pos[:dims]}
		}
		again, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeBatch(again, dims)
		if err != nil || !slices.Equal(back, pts) {
			t.Fatalf("re-encoded batch decodes to %v, %v; want %v", back, err, pts)
		}
	})
}
