package core

import "runtime"

// PhaseAllocs accumulates heap allocation counts and bytes per coarse DISC
// phase across all strides since construction or the last ResetStats. The
// counters are populated only under WithAllocTracking: each Advance brackets
// its phases with runtime.ReadMemStats, which is far too expensive for
// production but lets the bench harness report allocs/op without a separate
// -benchmem run. CLUSTER covers both the ex-core and neo-core walks (the
// tree deletion between them included).
type PhaseAllocs struct {
	CollectObjs, CollectBytes   uint64
	ClusterObjs, ClusterBytes   uint64
	FinalizeObjs, FinalizeBytes uint64
	Strides                     uint64 // Advance calls sampled
}

// accumulate folds one stride's four ReadMemStats samples (taken before
// COLLECT, after COLLECT, after CLUSTER, after finalize) into the totals.
// Mallocs/TotalAlloc are monotonic, so differences are valid even when the
// GC runs mid-phase.
func (a *PhaseAllocs) accumulate(m0, m1, m2, m3 *runtime.MemStats) {
	a.CollectObjs += m1.Mallocs - m0.Mallocs
	a.CollectBytes += m1.TotalAlloc - m0.TotalAlloc
	a.ClusterObjs += m2.Mallocs - m1.Mallocs
	a.ClusterBytes += m2.TotalAlloc - m1.TotalAlloc
	a.FinalizeObjs += m3.Mallocs - m2.Mallocs
	a.FinalizeBytes += m3.TotalAlloc - m2.TotalAlloc
	a.Strides++
}

// TotalObjs returns the allocation count summed over all phases.
func (a PhaseAllocs) TotalObjs() uint64 {
	return a.CollectObjs + a.ClusterObjs + a.FinalizeObjs
}

// TotalBytes returns the allocated bytes summed over all phases.
func (a PhaseAllocs) TotalBytes() uint64 {
	return a.CollectBytes + a.ClusterBytes + a.FinalizeBytes
}

// PhaseAllocs returns the accumulated per-phase allocation counters. All
// zeros unless the engine was built with WithAllocTracking(true).
func (e *Engine) PhaseAllocs() PhaseAllocs { return e.allocs }
