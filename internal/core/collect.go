package core

import (
	"runtime"

	"disc/internal/geom"
	"disc/internal/model"
)

// This file implements the parallel half of COLLECT (Algorithm 1). COLLECT
// dominates per-stride cost (Fig. 7 of the paper): one ε-range search per
// point of Δin ∪ Δout, each an independent read against the spatial index.
// The step is restructured into three phases so those searches can fan out
// over a worker pool without changing a single resulting bit:
//
//  1. Structural phase (sequential): mark every Δout departure Deleted,
//     remove non-core departures from the index, insert every Δin arrival.
//     After this phase neither the index nor any pstate field read by a
//     search changes until phase 3.
//  2. Search phase (parallel): every point of Δout ∪ Δin runs one read-only
//     ε-range search (SearchBallRO) that accumulates its findings — counter
//     deltas, hint candidate, touched neighbor ids — into a private
//     collectDelta buffer owned by that point alone. Workers share nothing
//     but the immutable index and pstates; each also counts its search and
//     node-access work privately.
//  3. Merge phase (sequential): the buffers are folded into the engine in
//     Δout-then-Δin slice order. Because every buffer is keyed by its
//     point's position in the input and the fold order is fixed, the merged
//     state is identical for any worker count — including 1, where phase 2
//     runs inline without spawning goroutines.
//
// Exactness relative to the interleaved formulation of Algorithm 1 follows
// from three observations (see DESIGN.md for the full argument):
//
//   - Departure searches must decrement nε of surviving neighbors exactly
//     once. Marking all departures Deleted up front makes every departure
//     search skip every other departure; the interleaved code reached the
//     same totals because a departure's own nε is forced to zero anyway.
//   - Arrival searches in the interleaved code saw only earlier-inserted
//     co-arrivals, crediting each close pair exactly once (+1 to both
//     sides). With all arrivals pre-inserted each pair is seen from both
//     ends, so only the smaller-id endpoint records it ("pairs" below) and
//     the merge credits both sides — the same single +1/+1.
//   - Everything else a search reads (label, wasCore, enterStamp, position)
//     is written only in phase 1 or in previous strides.

// collectDelta is the private buffer one phase-2 search writes. Slices are
// retained across strides (resetDeltas) to keep the steady state
// allocation-free.
type collectDelta struct {
	selfN   int32   // arrivals: surviving neighbors found (adds to own nε)
	coreDeg int32   // arrivals: surviving cores among them
	hint    int64   // arrivals: first surviving core in traversal order; valid iff coreDeg > 0
	touched []int64 // surviving neighbors whose nε this point changes
	pairs   []int64 // arrivals: co-arriving neighbors with a larger id
	nodes   int64   // index nodes the search traversed
}

// resetDeltas returns buf resized to n cleared entries, reusing the inner
// slice capacity accumulated by earlier strides.
func resetDeltas(buf []collectDelta, n int) []collectDelta {
	if cap(buf) < n {
		buf = append(buf[:cap(buf)], make([]collectDelta, n-cap(buf))...)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i].selfN, buf[i].coreDeg = 0, 0
		buf[i].touched = buf[i].touched[:0]
		buf[i].pairs = buf[i].pairs[:0]
		buf[i].nodes = 0
	}
	return buf
}

// searchCtx carries the per-call parameters of the hot-path search
// callbacks. One context lives per fan-out worker slot; each callback is a
// func value bound exactly once at construction, capturing only the stable
// context pointer, so issuing an ε-search creates no closure and therefore
// allocates nothing — the same trick msScratch.visit uses. A context must
// never be shared between concurrently running searches; the per-worker
// ownership fanOut guarantees is exactly that.
type searchCtx struct {
	e      *Engine
	selfID int64         // center point of the current search
	exited bool          // captureExCore: the ex-core left the window
	d      *collectDelta // COLLECT departure/arrival buffer
	xcp    *exCapture    // CLUSTER ex-core capture buffer
	ncp    *neoCapture   // CLUSTER neo-core capture buffer

	depFn func(qid int64, p geom.Vec) bool
	arrFn func(qid int64, p geom.Vec) bool
	exFn  func(qid int64, p geom.Vec) bool
	neoFn func(qid int64, p geom.Vec) bool
}

func newSearchCtx(e *Engine) *searchCtx {
	c := &searchCtx{e: e}
	c.depFn = c.onDeparture
	c.arrFn = c.onArrival
	c.exFn = c.onExCore
	c.neoFn = c.onNeoCore
	return c
}

// ensureSearchCtxs guarantees at least n per-worker search contexts.
func (e *Engine) ensureSearchCtxs(n int) {
	for len(e.searchCtxs) < n {
		e.searchCtxs = append(e.searchCtxs, newSearchCtx(e))
	}
}

// searchDeparture runs the phase-2 search for one Δout point: record every
// surviving neighbor whose nε must drop. Departures (label Deleted) and
// this stride's arrivals (which never counted the departure) are skipped.
func (c *searchCtx) searchDeparture(p model.Point, d *collectDelta) {
	e := c.e
	st := e.pts[p.ID]
	c.selfID, c.d = p.ID, d
	d.nodes = e.tree.SearchBallRO(st.pos, e.cfg.Eps, c.depFn)
	c.d = nil
}

func (c *searchCtx) onDeparture(qid int64, _ geom.Vec) bool {
	e := c.e
	if qid == c.selfID {
		return true
	}
	q := e.pts[qid]
	if q.label == model.Deleted || q.enterStamp == e.stride {
		return true
	}
	c.d.touched = append(c.d.touched, qid)
	return true
}

// searchArrival runs the phase-2 search for one Δin point: count surviving
// neighbors (crediting their nε and, for previous-window cores, the
// arrival's coreDeg and border hint) and record co-arriving pairs once, from
// the smaller-id endpoint.
func (c *searchCtx) searchArrival(p model.Point, d *collectDelta) {
	e := c.e
	st := e.pts[p.ID]
	c.selfID, c.d = p.ID, d
	d.nodes = e.tree.SearchBallRO(st.pos, e.cfg.Eps, c.arrFn)
	c.d = nil
}

func (c *searchCtx) onArrival(qid int64, _ geom.Vec) bool {
	e := c.e
	if qid == c.selfID {
		return true
	}
	q := e.pts[qid]
	if q.label == model.Deleted {
		return true
	}
	d := c.d
	if q.enterStamp == e.stride {
		if c.selfID < qid {
			d.pairs = append(d.pairs, qid)
		}
		return true
	}
	d.touched = append(d.touched, qid)
	d.selfN++
	// Initialize coreDeg against cores surviving from the previous
	// window; transitions (ex-cores, neo-cores) correct it later.
	if q.wasCore {
		if d.coreDeg == 0 {
			d.hint = qid
		}
		d.coreDeg++
	}
	return true
}

// collectSearch is the bound-once phase-2 dispatcher fanOut invokes: Δout
// departures occupy work indices [0, len(fanOutPts)), Δin arrivals the rest.
func (e *Engine) collectSearch(w, k int) {
	c := e.searchCtxs[w]
	if out := e.fanOutPts; k < len(out) {
		c.searchDeparture(out[k], &e.outDeltas[k])
	} else {
		k -= len(out)
		c.searchArrival(e.fanInPts[k], &e.inDeltas[k])
	}
}

// fanOutSearches runs phase 2: one search per Δout and Δin point, fanned
// over the engine's shared worker dispatcher (fanOut, also used by CLUSTER;
// inline when one worker suffices). Search and node-access counts land in
// the private buffers and are summed in fixed slice order afterwards,
// keeping the totals identical to a sequential run — the same searches
// against the same fixed tree touch the same nodes.
func (e *Engine) fanOutSearches(in, out []model.Point) {
	total := len(out) + len(in)
	if total == 0 {
		return
	}
	e.ensureSearchCtxs(min(e.workers, total))
	e.fanInPts, e.fanOutPts = in, out
	if e.curTrace != nil {
		e.fanSpanName, e.fanParent = "collect.worker", e.phaseSpan
	}
	e.fanOut(total, e.collectFanFn)
	e.fanInPts, e.fanOutPts = nil, nil
	var nodes int64
	for i := range e.outDeltas {
		nodes += e.outDeltas[i].nodes
	}
	for i := range e.inDeltas {
		nodes += e.inDeltas[i].nodes
	}
	e.stats.RangeSearches += int64(total)
	e.stats.NodeAccesses += nodes
}

// defaultWorkers resolves the WithWorkers argument: n <= 0 selects
// GOMAXPROCS.
func defaultWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
