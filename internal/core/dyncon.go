package core

import (
	"fmt"
	"time"

	"disc/internal/dyncon"
	"disc/internal/geom"
	"disc/internal/trace"
)

// This file wires the dynamic-connectivity forest (internal/dyncon) into
// the CLUSTER pipeline as an alternative connectivity strategy.
//
// With ConnDynamic the engine maintains a dyncon.Forest over the core-
// adjacency graph of the current window — vertices are the cores, edges the
// ε-adjacent core pairs — applying only the stride's delta right after the
// capture fan-outs: every edge incident to an ex-core is removed (its
// surviving-core neighbors are the capture's bonding list, its fellow
// ex-cores the frontier list), ex-core vertices go, neo-core vertices
// arrive, and every edge incident to a neo-core is added (bondIDs +
// frontier). Ex-core↔neo-core edges cannot exist: an ex-core is not a core
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
func (e *Engine) forestConnectivityInto(bonding []int64, res *connResult) {
	f := e.forest
	for _, id := range bonding {
		c, ok := f.Root(id)
		if !ok {
			// Bonding vertices are verified present before the fan-out
			// (verifyForestBonding); a miss here is an engine bug.
			panic(fmt.Sprintf("disc: bonding core %d missing from connectivity forest", id))
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
		res.closedIDs = f.AppendMembers(c, res.closedIDs)
		res.closedOff = append(res.closedOff, len(res.closedIDs))
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
		for _, id := range e.exComps[ci].bonding {
			if !e.forest.HasVertex(id) {
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
func (e *Engine) syncForest(exCores, neoCores []int64) {
	start := time.Now()
	statsBefore := e.forest.Stats()
	tr := e.curTrace
	var sp *trace.Span
	if tr != nil {
		sp = tr.StartSpanAt("forest.sync", e.phaseSpan, start,
			trace.Int("ex_cores", len(exCores)), trace.Int("neo_cores", len(neoCores)))
	}
	if !e.updateForest(exCores, neoCores) {
		e.rebuildForest()
	}
	statsAfter := e.forest.Stats()
	e.strideForestOps += statsAfter.Ops() - statsBefore.Ops()
	e.strideForestReplSearches += statsAfter.ReplacementSearches - statsBefore.ReplacementSearches
	e.strideForestReplScans += statsAfter.ReplacementScans - statsBefore.ReplacementScans
	e.strideForestDur += time.Since(start)
	if sp != nil {
		sp.SetInt("forest_ops", int(statsAfter.Ops()-statsBefore.Ops()))
		sp.SetInt("rebuilds", int(e.strideForestRebuilds))
		sp.EndNow()
	}
}

// updateForest applies the stride's core-graph delta; false on the first
// strict-mutation mismatch (desync).
func (e *Engine) updateForest(exCores, neoCores []int64) bool {
	f := e.forest
	// 1. Every edge incident to an ex-core leaves: to surviving cores
	// (captured as bonding) and to fellow ex-cores (captured as frontier,
	// present in both directions — keep the smaller-id one).
	for i, eid := range exCores {
		cp := &e.exCaps[i]
		for _, b := range cp.bonding {
			if !f.RemoveEdge(eid, b) {
				return false
			}
		}
		for _, fid := range cp.frontier {
			if eid < fid && !f.RemoveEdge(eid, fid) {
				return false
			}
		}
	}
	// 2. Ex-core vertices leave (now isolated).
	for _, eid := range exCores {
		if !f.RemoveVertex(eid) {
			return false
		}
	}
	// 3. Neo-core vertices arrive.
	for _, nid := range neoCores {
		if !f.AddVertex(nid) {
			return false
		}
	}
	// 4. Every edge incident to a neo-core arrives: to surviving cores
	// (bondIDs) and to fellow neo-cores (frontier, deduplicated as above).
	for i, nid := range neoCores {
		cp := &e.neoCaps[i]
		for _, b := range cp.bondIDs {
			if !f.AddEdge(nid, b) {
				return false
			}
		}
		for _, fid := range cp.frontier {
			if nid < fid && !f.AddEdge(nid, fid) {
				return false
			}
		}
	}
	return true
}

// rebuildForest reconstructs the forest from scratch out of the current
// window: one read-only ε-search per core, adding each core-core edge once
// (from its smaller-id endpoint). Point iteration order does not matter —
// the edge set is deterministic and tour shapes are unobservable. The
// searches use SearchBallRO and bypass engine statistics entirely, so a
// rebuild never perturbs the bit-identical-stats contract.
func (e *Engine) rebuildForest() {
	f := e.forest
	f.Reset()
	for id, st := range e.pts {
		if e.isCoreNow(st) {
			f.AddVertex(id)
		}
	}
	for id, st := range e.pts {
		if !e.isCoreNow(st) {
			continue
		}
		e.rebuildSelf = id
		e.tree.SearchBallRO(st.pos, e.cfg.Eps, e.rebuildFn)
	}
	e.rebuildSelf = 0
	e.forestRebuilds++
	e.strideForestRebuilds++
}

// rebuildVisit is rebuildForest's bound-once search callback: add the edge
// (rebuildSelf, qid) once, from the smaller-id side.
func (e *Engine) rebuildVisit(qid int64, _ geom.Vec) bool {
	if qid <= e.rebuildSelf {
		return true
	}
	if q := e.pts[qid]; e.isCoreNow(q) {
		e.forest.AddEdge(e.rebuildSelf, qid)
	}
	return true
}
