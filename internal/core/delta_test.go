package core

import (
	"bytes"
	"math/rand"
	"testing"

	"disc/internal/datasets"
	"disc/internal/model"
	"disc/internal/window"
)

// deltaMirror rebuilds assignments from nothing but the engine's deltas, the
// naive way: a map of raw entries plus a parent map for the unions.
type deltaMirror struct {
	raw    map[int64]RawAssignment
	parent map[int]int
}

func (m *deltaMirror) apply(d Delta) {
	if d.Full {
		m.raw, m.parent = map[int64]RawAssignment{}, map[int]int{}
	}
	for _, u := range d.Unions {
		m.parent[u.From] = u.Into
	}
	d.Points(func(p RawAssignment) {
		if p.Label == model.Deleted {
			delete(m.raw, p.ID)
		} else {
			m.raw[p.ID] = p
		}
	})
}

func (m *deltaMirror) root(cid int64) int {
	c := int(cid)
	for {
		p, ok := m.parent[c]
		if !ok {
			return c
		}
		c = p
	}
}

func (m *deltaMirror) snapshot() map[int64]model.Assignment {
	out := make(map[int64]model.Assignment, len(m.raw))
	for id, r := range m.raw {
		switch r.Label {
		case model.Core:
			out[id] = model.Assignment{Label: model.Core, ClusterID: m.root(r.Ref)}
		case model.Border:
			out[id] = model.Assignment{Label: model.Border, ClusterID: m.root(m.raw[r.Ref].Ref)}
		default:
			out[id] = model.Assignment{Label: model.Noise, ClusterID: model.NoCluster}
		}
	}
	return out
}

func checkMirror(t *testing.T, m *deltaMirror, eng *Engine, step int) {
	t.Helper()
	want, got := eng.Snapshot(), m.snapshot()
	if len(got) != len(want) {
		t.Fatalf("step %d: mirror holds %d points, engine %d", step, len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("step %d: point %d: mirror %+v (raw %+v), engine %+v", step, id, got[id], m.raw[id], w)
		}
	}
}

// TestDeltaReproducesSnapshot: a consumer that only ever sees Delta() can
// reproduce Snapshot() after every stride, on every dataset and strategy.
func TestDeltaReproducesSnapshot(t *testing.T) {
	unions := 0
	defer func() {
		if unions == 0 && !t.Failed() {
			t.Error("corpus never merged clusters; the union path went untested")
		}
	}()
	for _, name := range datasets.Names() {
		dc := diffCorpus[name]
		t.Run(name, func(t *testing.T) {
			stride := dc.window / 20
			ds, err := datasets.ByName(name, dc.window+stride*40, 42)
			if err != nil {
				t.Fatal(err)
			}
			steps, err := window.Steps(ds.Points, dc.window, stride)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []ConnStrategy{ConnMSBFS, ConnDynamic} {
				eng := New(dc.cfg, WithConnectivity(strat), WithWorkers(4))
				m := &deltaMirror{}
				m.apply(eng.Delta())
				for i, st := range steps {
					eng.Advance(st.In, st.Out)
					d := eng.Delta()
					if d.Full {
						t.Fatalf("step %d: full delta on an ordinary stride", i)
					}
					unions += len(d.Unions)
					m.apply(d)
					checkMirror(t, m, eng, i)
				}
			}
		})
	}
}

// TestDeltaFullRules pins when a delta is full: before the first stride, on
// the compaction stride, after a restore, and after a stride whose delta was
// never read — and that the mirror stays exact across all of them.
func TestDeltaFullRules(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := clustered2D(rng, 3000)
	cfg := cfg2(2.5, 5)
	steps, err := window.Steps(data, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) <= compactInterval+2 {
		t.Fatal("not enough steps to cross the compaction interval")
	}
	eng := New(cfg)
	m := &deltaMirror{}
	d0 := eng.Delta()
	m.apply(d0)
	if !d0.Full || len(m.raw) != 0 {
		t.Fatalf("fresh engine: Full=%v with %d points, want full and empty", d0.Full, len(m.raw))
	}
	for i, st := range steps {
		eng.Advance(st.In, st.Out)
		if i == 700 {
			continue // skip a read: the next delta must make up for it
		}
		d := eng.Delta()
		wantFull := i == 701 || uint64(i+1)%compactInterval == 0
		if d.Full != wantFull {
			t.Fatalf("step %d: Full = %v, want %v", i, d.Full, wantFull)
		}
		if d.Full && len(d.Unions) != 0 {
			t.Fatalf("step %d: full delta carries %d unions", i, len(d.Unions))
		}
		m.apply(d)
		checkMirror(t, m, eng, i)
	}
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := restored.Delta()
	m.apply(d)
	if !d.Full {
		t.Fatal("restored engine: first delta is not full")
	}
	checkMirror(t, m, restored, len(steps))
}
