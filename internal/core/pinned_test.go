package core

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"disc/internal/datasets"
	"disc/internal/model"
	"disc/internal/window"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pre_arena.golden from this commit's engine")

const pinnedGolden = "testdata/pre_arena.golden"

// pinnedStream is one stream of the cross-commit identity corpus.
type pinnedStream struct {
	name  string
	cfg   model.Config
	steps []window.Step
}

func pinnedStreams(t *testing.T) []pinnedStream {
	t.Helper()
	var out []pinnedStream
	add := func(name string, cfg model.Config, data []model.Point, win, stride int) {
		steps, err := window.Steps(data, win, stride)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pinnedStream{name, cfg, steps})
	}
	// The TestIndexDifferential streams.
	for _, name := range datasets.Names() {
		dc := diffCorpus[name]
		stride := dc.window / 4
		ds, err := datasets.ByName(name, dc.window+stride*5, 42)
		if err != nil {
			t.Fatal(err)
		}
		add(name, dc.cfg, ds.Points, dc.window, stride)
	}
	// The benchmark's dtg_stride5 shape: 40-neighbour balls, 5 % stride.
	add("dtg-dense", model.Config{Dims: 2, Eps: 0.002, MinPts: 40},
		datasets.DTG(20000+1000*12, 1).Points, 20000, 1000)
	// A small window striding past the cid compaction at stride 1024.
	add("compaction", cfg2(2.5, 5), clustered2D(rand.New(rand.NewSource(99)), 200+10*1110), 200, 10)
	return out
}

// pinnedHasher folds everything observable about one stride into an FNV-64:
// the events it emitted, Stats(), the engine's state as the gob snapshot of the
// golden file's commit wrote it, and the Delta's header and points sorted by
// id. snap keeps the SaveSnapshot bytes of the same stride for the restore.
type pinnedHasher struct {
	events []Event
	snap   bytes.Buffer
	pts    []RawAssignment
}

func (p *pinnedHasher) stride(t *testing.T, eng *Engine) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, ev := range p.events {
		fmt.Fprintf(h, "%d|%d|%d|%v|%v|%d;", ev.Type, ev.Stride, ev.ClusterID, ev.Absorbed, ev.NewClusters, ev.Cores)
	}
	p.events = p.events[:0]
	fmt.Fprintf(h, "%+v;", eng.Stats())
	p.snap.Reset()
	if err := eng.SaveSnapshot(&p.snap); err != nil {
		t.Fatal(err)
	}
	h.Write(gobSnapshot(t, eng))
	d := eng.Delta()
	fmt.Fprintf(h, "%v|%v;", d.Full, d.Unions)
	p.pts = p.pts[:0]
	d.Points(func(r RawAssignment) { p.pts = append(p.pts, r) })
	sort.Slice(p.pts, func(i, j int) bool { return p.pts[i].ID < p.pts[j].ID })
	for _, r := range p.pts {
		fmt.Fprintf(h, "%d|%d|%d;", r.ID, r.Label, r.Ref)
	}
	return h.Sum64()
}

// pinnedRun drives one stream and returns "<stream> <path> <stride> <hash>"
// lines: the live engine's hash after every stride, and — from the middle of
// the stream on — the hashes of an engine restored from the live engine's
// snapshot there. The restored engine's index is bulk-loaded in id order, so
// its visit order, and with it hint choice and cluster-id allocation, is its
// own: the two paths are pinned separately, not against each other.
func pinnedRun(t *testing.T, ps pinnedStream, workers int) []string {
	t.Helper()
	var lines []string
	live, rest := &pinnedHasher{}, &pinnedHasher{}
	eng := New(ps.cfg, WithWorkers(workers),
		WithEventHandler(func(ev Event) { live.events = append(live.events, ev) }))
	var restored *Engine
	mid := len(ps.steps) / 2
	for i, st := range ps.steps {
		eng.Advance(st.In, st.Out)
		lines = append(lines, fmt.Sprintf("%s live %d %016x", ps.name, i, live.stride(t, eng)))
		if restored != nil {
			restored.Advance(st.In, st.Out)
			lines = append(lines, fmt.Sprintf("%s restored %d %016x", ps.name, i, rest.stride(t, restored)))
		}
		if i == mid {
			var err error
			restored, err = LoadEngine(bytes.NewReader(live.snap.Bytes()), WithWorkers(workers),
				WithEventHandler(func(ev Event) { rest.events = append(rest.events, ev) }))
			if err != nil {
				t.Fatal(err)
			}
			restored.Delta() // a restored engine's first delta is full; read it, as a server does
		}
	}
	return lines
}

// TestEnginePinnedOutputs is the cross-commit identity check: the golden
// file was generated at the commit before the engine moved onto the slot
// arena (`go test ./internal/core -run TestEnginePinnedOutputs -update`
// there — flags the go tool does not know go after the package), and every
// later engine must reproduce each hash — with one worker
// and with four, through a mid-stream restore and the compaction stride.
func TestEnginePinnedOutputs(t *testing.T) {
	streams := pinnedStreams(t)
	if *updateGolden {
		var buf bytes.Buffer
		for _, ps := range streams {
			for _, l := range pinnedRun(t, ps, 1) {
				buf.WriteString(l + "\n")
			}
		}
		if err := os.WriteFile(pinnedGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(pinnedGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, _, _ := strings.Cut(sc.Text(), " ")
		want[name] = append(want[name], sc.Text())
	}
	for _, ps := range streams {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", ps.name, workers), func(t *testing.T) {
				if testing.Short() && workers > 1 && len(ps.steps) > 100 {
					t.Skip("long stream; the one-worker run covers it under -short")
				}
				got := pinnedRun(t, ps, workers)
				w := want[ps.name]
				if len(got) != len(w) {
					t.Fatalf("%d hashes, golden has %d", len(got), len(w))
				}
				for i := range got {
					if got[i] != w[i] {
						t.Fatalf("first divergence from the pre-arena engine:\n got %s\nwant %s", got[i], w[i])
					}
				}
			})
		}
	}
}
