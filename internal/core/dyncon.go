package core

import (
	"fmt"
	"time"

	"disc/internal/dyncon"
)

// This file wires the dynamic-connectivity forest (internal/dyncon) into
// the CLUSTER pipeline as an alternative connectivity strategy.
//
// With ConnDynamic the engine maintains a dyncon.Forest over the core-
// adjacency graph of the current window — vertices are the cores, edges the
// ε-adjacent core pairs — applying only the stride's delta right after the
// capture fan-outs: every edge incident to an ex-core is removed (its
// surviving-core neighbors are the capture's bond-tagged words, its fellow
// ex-cores the frontier-tagged ones), ex-core vertices go, neo-core vertices
// arrive, and every edge incident to a neo-core is added (bond + frontier
// words). The forest is keyed by point id, not by slot: this file translates
// at its own edge, so the forest's shape — and the order edges are offered
// to it, smaller id first — does not depend on how an engine numbered its
// slots. Ex-core↔neo-core edges cannot exist: an ex-core is not a core
// of the current window and a neo-core was not a core of the previous one,
// so no edge of either graph joins them. Edges between two ex-cores (and
// between two neo-cores) appear in both endpoints' captures and are
// deduplicated by processing only the smaller-id direction.
//
// The phase-C component query (forestConnectivityInto) then replaces the
// MS-BFS traversal: one read-only root walk per bonding core, components in
// first-seen starter order — exactly the canonical order the traversal
// strategies report (see msbfs.go) — and member enumeration only in the
// split case. Queries are read-only, so the existing phase-C fan-out runs
// them concurrently, unchanged.
//
// Every forest mutation is strict (returns false when the forest disagrees
// with the expected state). Any strict failure means the engine's view has
// desynced from the forest — a bug, a corrupted restore, or a caller
// violating the single-writer contract — and the engine falls back to a
// full rebuild from the spatial index, which restores the invariant for
// every subsequent stride. Restores always rebuild (the forest is scratch
// state and is never serialized; see persist.go).

// ConnStrategy selects how the CLUSTER phase answers density-connectivity
// queries over minimal bonding cores.
type ConnStrategy uint8

const (
	// ConnMSBFS recomputes components per stride with the Multi-Starter
	// BFS traversal (Algorithm 3) — the always-available reference.
	ConnMSBFS ConnStrategy = iota
	// ConnDynamic answers from a maintained dynamic-connectivity forest
	// over the core-adjacency graph, updated incrementally as cores gain
	// and lose bonding edges each stride.
	ConnDynamic
)

// String returns the stride-log / metrics label of the strategy.
func (s ConnStrategy) String() string {
	if s == ConnDynamic {
		return "dynamic"
	}
	return "msbfs"
}

// WithConnectivity selects the connectivity strategy (default ConnMSBFS).
// Every strategy produces bit-identical labels, statistics, and event
// streams; they differ only in per-stride cost. Like every option it is not
// checkpoint state: LoadEngine builds the forest only when given this
// option, from the restored window.
func WithConnectivity(s ConnStrategy) Option {
	return func(e *Engine) {
		e.connStrategy = s
		if s == ConnDynamic && e.forest == nil {
			e.forest = dyncon.New()
		}
	}
}

// forestConnectivityInto answers one phase-C component query from the
// maintained forest: deduplicate the bonding cores' component roots in
// first-seen order; a single root means connected, several mean a split, in
// which case every component's members are enumerated (tour order) for
// relabeling. Read-only — safe under the concurrent phase-C fan-out — and
// allocation-free in the steady state (scratch pooled on res).
func (e *Engine) forestConnectivityInto(bonding []int32, res *connResult) {
	f := e.forest
	for _, s := range bonding {
		c, ok := f.Root(e.ids[s])
		if !ok {
			// Bonding vertices are verified present before the fan-out
			// (verifyForestBonding); a miss here is an engine bug.
			panic(fmt.Sprintf("disc: bonding core %d missing from connectivity forest", e.ids[s]))
		}
		if !containsComponent(res.roots, c) {
			res.roots = append(res.roots, c)
		}
	}
	res.ncc = len(res.roots)
	if res.ncc <= 1 {
		return
	}
	for _, c := range res.roots {
		res.memberIDs = f.AppendMembers(c, res.memberIDs[:0])
		for _, id := range res.memberIDs {
			res.closed = append(res.closed, e.slotOf[id])
		}
		res.closedOff = append(res.closedOff, len(res.closed))
	}
}

// containsComponent reports whether the (small) root scratch already holds
// c — the linear-scan-over-map trade the cid dedup also makes.
func containsComponent(s []dyncon.Component, c dyncon.Component) bool {
	for _, x := range s {
		if x == c {
			return true
		}
	}
	return false
}

// verifyForestBonding checks, before the concurrent phase-C fan-out, that
// every bonding core of every queued component is a forest vertex; on a
// miss the forest has desynced and is rebuilt serially, here, where a
// rebuild is still safe. After syncForest succeeded this never fires —
// bonding cores are surviving cores, which the update left in place.
func (e *Engine) verifyForestBonding() {
	for _, ci := range e.connWork {
		for _, s := range e.bonding(&e.exComps[ci]) {
			if !e.forest.HasVertex(e.ids[s]) {
				e.rebuildForest()
				return
			}
		}
	}
}

// syncForest brings the forest from the previous window's core graph to the
// current one by applying the stride's delta, captured by the (already
// completed) ex-core and neo-core capture fan-outs. Any strict-mutation
// failure abandons the delta and rebuilds. Runs single-threaded.
func (e *Engine) syncForest(exCores, neoCores []int32) {
	start := time.Now()
	statsBefore := e.forest.Stats()
	if !e.updateForest(exCores, neoCores) {
		e.rebuildForest()
	}
	statsAfter := e.forest.Stats()
	e.strideForestOps += statsAfter.Ops() - statsBefore.Ops()
	e.strideForestReplSearches += statsAfter.ReplacementSearches - statsBefore.ReplacementSearches
	e.strideForestReplScans += statsAfter.ReplacementScans - statsBefore.ReplacementScans
	e.strideForestDur += time.Since(start)
}

// updateForest applies the stride's core-graph delta; false on the first
// strict-mutation mismatch (desync).
func (e *Engine) updateForest(exCores, neoCores []int32) bool {
	f, ids := e.forest, e.ids
	// edges offers f every captured edge of one core: those to surviving
	// cores first, then those to fellow ex- (neo-) cores, which both
	// endpoints captured — keep the smaller-id direction.
	edges := func(s int32, cp *capture, apply func(u, v int64) bool) bool {
		id, words := ids[s], e.words(cp)
		for _, w := range words {
			if w&tagBond != 0 && !apply(id, ids[w&slotMask]) {
				return false
			}
		}
		for _, w := range words {
			if q := ids[w&slotMask]; w&tagFrontier != 0 && id < q && !apply(id, q) {
				return false
			}
		}
		return true
	}
	// 1. Every edge incident to an ex-core leaves.
	for i, s := range exCores {
		if !edges(s, &e.exCaps[i], f.RemoveEdge) {
			return false
		}
	}
	// 2. Ex-core vertices leave (now isolated).
	for _, s := range exCores {
		if !f.RemoveVertex(ids[s]) {
			return false
		}
	}
	// 3. Neo-core vertices arrive.
	for _, s := range neoCores {
		if !f.AddVertex(ids[s]) {
			return false
		}
	}
	// 4. Every edge incident to a neo-core arrives.
	for i, s := range neoCores {
		if !edges(s, &e.neoCaps[i], f.AddEdge) {
			return false
		}
	}
	return true
}

// rebuildForest reconstructs the forest from scratch out of the current
// window: one read-only ε-search per core, adding each core-core edge once
// (from its smaller-id endpoint). The searches use SearchBallRO and bypass
// engine statistics entirely, so a rebuild never perturbs the bit-identical-
// stats contract.
func (e *Engine) rebuildForest() {
	f := e.forest
	f.Reset()
	for s := range e.hot {
		if e.isCoreNow(&e.hot[s]) {
			f.AddVertex(e.ids[s])
		}
	}
	for s := range e.hot {
		if e.isCoreNow(&e.hot[s]) {
			e.rebuildSelf = int32(s)
			e.tree.SearchBallRO(e.pos[s], e.cfg.Eps, e.rebuildFn)
		}
	}
	e.forestRebuilds++
	e.strideForestRebuilds++
}

// rebuildVisit is rebuildForest's bound-once search callback: add the edge
// (rebuildSelf, q) once, from the smaller-id side.
func (e *Engine) rebuildVisit(q int32) bool {
	if self := e.rebuildSelf; e.ids[self] < e.ids[q] && e.isCoreNow(&e.hot[q]) {
		e.forest.AddEdge(e.ids[self], e.ids[q])
	}
	return true
}
