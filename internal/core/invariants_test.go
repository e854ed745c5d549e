package core

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"disc/internal/datasets"
	"disc/internal/window"
)

// TestInvariantsHoldAcrossStream runs the full state validator after every
// stride of an evolving stream, for every ablation variant.
func TestInvariantsHoldAcrossStream(t *testing.T) {
	variants := map[string][]Option{
		"full":    nil,
		"noms":    {WithMSBFS(false)},
		"noepoch": {WithEpochProbing(false)},
		"plain":   {WithMSBFS(false), WithEpochProbing(false)},
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(321))
			data := clustered2D(rng, 1000)
			eng := New(cfg2(2.5, 5), opts...)
			steps, _ := window.Steps(data, 300, 30)
			for i, st := range steps {
				eng.Advance(st.In, st.Out)
				if err := eng.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
		})
	}
}

// TestInvariantsUnderExtremeChurn uses stride == window so every stride
// replaces the entire population.
func TestInvariantsUnderExtremeChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(322))
	data := clustered2D(rng, 800)
	eng := New(cfg2(2.0, 4))
	steps, _ := window.Steps(data, 200, 200)
	for i, st := range steps {
		eng.Advance(st.In, st.Out)
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestInvariantsWithTinyStride stresses per-point churn (stride 1).
func TestInvariantsWithTinyStride(t *testing.T) {
	rng := rand.New(rand.NewSource(323))
	data := clustered2D(rng, 300)
	eng := New(cfg2(2.0, 4))
	steps, _ := window.Steps(data, 120, 1)
	for i, st := range steps {
		eng.Advance(st.In, st.Out)
		if i%20 == 0 {
			if err := eng.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
}

// TestCheckInvariantsLeavesEngineUntouched: the self-audit is a pure read.
// It used to search through the statistics-counting SearchBall and resolve
// cluster ids through the path-compressing (and key-inserting) Find, so it
// could not run beside readers; now nothing an engine holds may differ after
// a check.
func TestCheckInvariantsLeavesEngineUntouched(t *testing.T) {
	dc := diffCorpus["dtg"]
	stride := dc.window / 20
	steps, err := window.Steps(datasets.DTG(dc.window+stride*40, 42).Points, dc.window, stride)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(dc.cfg)
	for i, st := range steps {
		eng.Advance(st.In, st.Out)
		before := engineImage(eng)
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if after := engineImage(eng); after != before {
			t.Fatalf("step %d: CheckInvariants mutated the engine:\nbefore: %s\nafter:  %s", i, before, after)
		}
	}
	if eng.stats.Merges == 0 {
		t.Fatal("stream merged no clusters; the cid forest stayed trivial")
	}
}

// TestCheckInvariantsBesideReaders runs the self-audit concurrently with
// Assignment, Snapshot and SaveSnapshot callers between strides; under -race
// any write it performed would be reported.
func TestCheckInvariantsBesideReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(324))
	data := clustered2D(rng, 900)
	eng := New(cfg2(2.5, 5), WithWorkers(2))
	steps, _ := window.Steps(data, 300, 60)
	for i, st := range steps {
		eng.Advance(st.In, st.Out)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = eng.CheckInvariants()
			}()
		}
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for k := 0; k < 200; k++ {
					eng.Assignment(int64(r.Intn(len(data))))
				}
				eng.Snapshot()
				eng.SaveSnapshot(io.Discard)
			}(int64(g))
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
}
