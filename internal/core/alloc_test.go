package core

import (
	"math/rand"
	"testing"

	"disc/internal/window"
)

// TestCollectZeroAlloc pins the Advance-path pooling contract: once the
// stride buffers, the per-worker word slabs and the grid's point slabs have
// warmed past their high-water marks — and with the release rule
// (trimScratch) holding still, as it must on steady strides — sliding the
// window one stride performs (almost) no heap allocations. Before the pooled
// hot path and the bound-once search callbacks, the same workload cost ~7,700
// allocs per Advance; the budget below is ~1% of that, while leaving room for
// the irreducible jitter of a live workload — occasional split/merger event
// slices, the grid's slabs or a queue-pool node growing past a previous
// high-water mark, the id table rehashing as window ids churn through it.
func TestCollectZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const win, stride = 4000, 200
	const warm, runs = 40, 80
	data := clustered2D(rng, win+stride*(warm+runs+10))
	steps, err := window.Steps(data, win, stride)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cfg2(2.5, 5))
	for _, st := range steps[:warm] {
		eng.Advance(st.In, st.Out)
	}
	idx := warm
	avg := testing.AllocsPerRun(runs, func() {
		st := steps[idx]
		eng.Advance(st.In, st.Out)
		idx++
	})
	t.Logf("steady-state allocs per Advance: %.1f", avg)
	const budget = 64
	if avg > budget {
		t.Errorf("steady-state Advance allocates %.1f objects/op, budget %d", avg, budget)
	}
}
