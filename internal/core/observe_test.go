package core

import (
	"math/rand"
	"testing"
	"time"

	"disc/internal/model"
	"disc/internal/window"
)

// driveObserved runs a clustered stream through an engine with a recording
// observer and returns the records alongside the engine.
func driveObserved(t *testing.T, opts ...Option) ([]StrideRecord, *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	data := clustered2D(rng, 1200)
	steps, err := window.Steps(data, 600, 100)
	if err != nil {
		t.Fatal(err)
	}
	var recs []StrideRecord
	opts = append(opts, WithObserver(ObserverFunc(func(r StrideRecord) { recs = append(recs, r) })))
	eng := New(cfg2(2.5, 5), opts...)
	for _, st := range steps {
		eng.Advance(st.In, st.Out)
	}
	return recs, eng
}

func TestObserverStrideRecords(t *testing.T) {
	recs, eng := driveObserved(t)
	if len(recs) != int(eng.Stats().Strides) {
		t.Fatalf("%d records for %d strides", len(recs), eng.Stats().Strides)
	}

	var searches, nodes int64
	var in, out int
	for i, r := range recs {
		if r.Stride != uint64(i+1) {
			t.Fatalf("record %d has stride %d", i, r.Stride)
		}
		// The four phases partition the advance exactly.
		if sum := r.Collect + r.ExCorePhase + r.NeoCorePhase + r.Finalize; sum != r.Total {
			t.Fatalf("stride %d: phases sum to %v, total %v", r.Stride, sum, r.Total)
		}
		if r.Total <= 0 {
			t.Fatalf("stride %d: non-positive total %v", r.Stride, r.Total)
		}
		if r.Workers != 1 {
			t.Fatalf("stride %d: workers = %d, want 1", r.Stride, r.Workers)
		}
		if r.ClusterWorkers != 1 {
			t.Fatalf("stride %d: cluster workers = %d, want 1 on a workers=1 engine",
				r.Stride, r.ClusterWorkers)
		}
		if r.ConnChecks < 0 || r.PoolGrows < 0 {
			t.Fatalf("stride %d: negative pool telemetry %d/%d",
				r.Stride, r.ConnChecks, r.PoolGrows)
		}
		searches += r.RangeSearches
		nodes += r.NodeAccesses
		in += r.DeltaIn
		out += r.DeltaOut
	}
	// Per-stride deltas add back up to the engine's lump-sum counters.
	if st := eng.Stats(); searches != st.RangeSearches || nodes != st.NodeAccesses {
		t.Fatalf("delta sums (%d searches, %d nodes) != stats (%d, %d)",
			searches, nodes, st.RangeSearches, st.NodeAccesses)
	}
	if first := recs[0]; first.DeltaIn != 600 || first.DeltaOut != 0 {
		t.Fatalf("bootstrap record Δin=%d Δout=%d", first.DeltaIn, first.DeltaOut)
	}
	if last := recs[len(recs)-1]; last.WindowSize != eng.WindowSize() {
		t.Fatalf("last window size %d != %d", last.WindowSize, eng.WindowSize())
	}
	if in <= out {
		t.Fatalf("Δin total %d should exceed Δout total %d on a growing stream", in, out)
	}
}

// TestObserverEventTalliesMatchHandler cross-checks the per-stride event
// tallies against the event handler stream.
func TestObserverEventTalliesMatchHandler(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := clustered2D(rng, 3000)
	steps, err := window.Steps(data, 1000, 250)
	if err != nil {
		t.Fatal(err)
	}
	handlerCounts := map[EventType]int{}
	var tallies [numEventTypes]int
	var merges int64
	eng := New(cfg2(2.5, 5),
		WithEventHandler(func(ev Event) { handlerCounts[ev.Type]++ }),
		WithObserver(ObserverFunc(func(r StrideRecord) {
			tallies[Emergence] += r.Emergences
			tallies[Expansion] += r.Expansions
			tallies[Merger] += r.Mergers
			tallies[Split] += r.Splits
			tallies[Shrink] += r.Shrinks
			tallies[Dissipation] += r.Dissipations
			merges += r.MSBFSMerges
		})))
	for _, st := range steps {
		eng.Advance(st.In, st.Out)
	}
	for typ := EventType(0); typ < numEventTypes; typ++ {
		if tallies[typ] != handlerCounts[typ] {
			t.Fatalf("%v: observer tallied %d, handler saw %d", typ, tallies[typ], handlerCounts[typ])
		}
	}
	total := 0
	for _, n := range tallies {
		total += n
	}
	if total == 0 {
		t.Fatal("stream produced no cluster-evolution events; tallies untested")
	}
	_ = merges // merges can legitimately be zero on easy streams
}

// TestObserverAcrossIndexBackends ensures the telemetry tap works for the
// R-tree backend and the parallel fan-out, and names the index in every
// record.
func TestObserverAcrossIndexBackends(t *testing.T) {
	for _, tc := range []struct {
		name  string
		index string
		opts  []Option
	}{
		{"rtree", "rtree", []Option{WithRTreeIndex()}},
		{"workers", "grid", []Option{WithWorkers(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs, eng := driveObserved(t, tc.opts...)
			if len(recs) != int(eng.Stats().Strides) {
				t.Fatalf("%d records for %d strides", len(recs), eng.Stats().Strides)
			}
			var searches int64
			for _, r := range recs {
				searches += r.RangeSearches
				if r.Index != tc.index {
					t.Fatalf("record names index %q, want %q", r.Index, tc.index)
				}
			}
			if searches != eng.Stats().RangeSearches {
				t.Fatalf("delta sum %d != stats %d", searches, eng.Stats().RangeSearches)
			}
		})
	}
}

// TestSetObserverDetach verifies SetObserver(nil) stops emission.
func TestSetObserverDetach(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := clustered2D(rng, 900)
	steps, err := window.Steps(data, 600, 100)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	eng := New(cfg2(2.5, 5), WithObserver(ObserverFunc(func(StrideRecord) { n++ })))
	eng.Advance(steps[0].In, steps[0].Out)
	if n != 1 {
		t.Fatalf("observed %d strides, want 1", n)
	}
	eng.SetObserver(nil)
	eng.Advance(steps[1].In, steps[1].Out)
	if n != 1 {
		t.Fatalf("detached observer still fired (n=%d)", n)
	}
}

// TestResetStatsZeroesPhaseTimings is the regression test for the
// documented ResetStats contract: timings accumulate "since construction
// or the last ResetStats", so ResetStats must zero them along with Stats.
func TestResetStatsZeroesPhaseTimings(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := clustered2D(rng, 900)
	steps, err := window.Steps(data, 600, 100)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cfg2(2.5, 5))
	for _, st := range steps {
		eng.Advance(st.In, st.Out)
	}
	if eng.PhaseTimings().Total() <= 0 {
		t.Fatal("no phase time accumulated before reset")
	}
	if eng.Stats() == (model.Stats{}) {
		t.Fatal("no stats accumulated before reset")
	}
	eng.ResetStats()
	if got := eng.PhaseTimings(); got != (PhaseTimings{}) {
		t.Fatalf("ResetStats left phase timings %+v", got)
	}
	if got := eng.Stats(); got != (model.Stats{}) {
		t.Fatalf("ResetStats left stats %+v", got)
	}
	// And they accumulate again afterwards.
	eng.Advance([]model.Point{{ID: 10_000, Pos: steps[0].In[0].Pos}}, nil)
	if eng.PhaseTimings().Total() <= 0 {
		t.Fatal("phase timings did not resume after reset")
	}
	if eng.Stats().Strides != 1 {
		t.Fatalf("strides = %d after reset+advance, want 1", eng.Stats().Strides)
	}
}

// TestObserverZeroOverheadPath sanity-checks that the unobserved engine
// allocates no telemetry records: the only per-stride cost is the tally
// resets, which involve no heap. (The <2% wall-clock bound is checked by
// comparing BenchmarkAdvance against the pre-observer baseline.)
func TestObserverZeroOverheadPath(t *testing.T) {
	eng := New(cfg2(1, 2))
	eng.Advance(line(0, 0, 50, 0.5), nil)
	if eng.observer != nil {
		t.Fatal("engine has an observer by default")
	}
	// One tiny advance purely to exercise the nil-observer branch.
	start := time.Now()
	eng.Advance(line(100, 100, 2, 0.5), nil)
	if time.Since(start) > time.Second {
		t.Fatal("unobserved advance implausibly slow")
	}
}
