package core

import (
	"math"
	"runtime"

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
//     Departures are resolved to their slots and arrivals given theirs here;
//     after this phase neither the index nor any point-state field read by
//     a search changes until phase 3.
//  2. Search phase (parallel): every point of Δout ∪ Δin runs one read-only
//     ε-range search (SearchBallRO) that records the neighbours it changes —
//     one word each, in ball order — as a capture: a run in its worker's
//     word slab, owned by that search alone. Workers share nothing but the
//     immutable index and arena; each also counts its node accesses
//     privately.
//  3. Merge phase (sequential): the captures are folded into the engine in
//     Δout-then-Δin input order. Because every capture is keyed by its
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
//   - Everything else a search reads (label, wasCore, the entered mark,
//     position) is written only in phase 1 or in previous strides.

// capture is what one fan-out search produced: a run of words in the slab of
// the worker that ran it, and the index work it cost. A word is the slot of
// one neighbour, in ball order, with tag bits above slotBits saying what the
// search learned about it; the folds replay the words single-threaded. There
// is no slice per search: a worker's searches append to one slab, which is
// reset once per fan-out phase and released when it has grown far past what
// strides now need (trimScratch).
type capture struct {
	off, n int32 // the run is words[off : off+n] of worker w's slab
	nodes  int32 // index nodes (cells) the search touched
	w      int16
	seen   bool // CLUSTER assembly: already pulled into a component
}

const (
	slotBits = 27 // MaxPoints == 1 << slotBits
	slotMask = 1<<slotBits - 1

	// COLLECT arrival words.
	tagPair uint32 = 1 << slotBits // co-arriving neighbour with a larger id

	// CLUSTER capture words (cluster.go).
	tagBond     uint32 = 1 << slotBits       // surviving core: M⁻ / M⁺ candidate
	tagFrontier uint32 = 1 << (slotBits + 1) // fellow ex-core (neo-core): R⁻ (R⁺) edge
	tagCore     uint32 = 1 << (slotBits + 2) // ex-core ball: a current core, a hint for the ex-core itself
	tagNoDec    uint32 = 1 << (slotBits + 3) // ex-core ball: the neighbour never counted this core
	tagDeparted uint32 = 1 << (slotBits + 4) // ex-core ball: the neighbour left the window; nothing to undo on it
)

// words returns the run a capture names.
func (e *Engine) words(cp *capture) []uint32 {
	return e.searchCtxs[cp.w].words[cp.off : cp.off+cp.n]
}

// searchCtx is one fan-out worker's private state: the word slab its searches
// append to, the parameters of the search in flight, and the hot-path search
// callbacks. Each callback is a func value bound exactly once at
// construction, capturing only the stable context pointer, so issuing an
// ε-search creates no closure and therefore allocates nothing — the same
// trick msScratch.visit uses. A context must never be shared between
// concurrently running searches; the per-worker ownership fanOut guarantees
// is exactly that.
type searchCtx struct {
	e      *Engine
	id     int16 // worker index, stamped into captures
	words  []uint32
	peak   int        // largest len(words) since the last trimScratch
	hot    []hotState // e.hot for the duration of a search
	self   int32      // center point of the current search
	selfID int64      // its id: co-arriving pairs are recorded by the smaller id
	exited bool       // ex-core capture: the ex-core left the window
	minPts int32

	depFn func(q int32) bool
	arrFn func(q int32) bool
	exFn  func(q int32) bool
	neoFn func(q int32) bool
}

func newSearchCtx(e *Engine, id int) *searchCtx {
	c := &searchCtx{e: e, id: int16(id), minPts: int32(e.cfg.MinPts)}
	c.depFn = c.onDeparture
	c.arrFn = c.onArrival
	c.exFn = c.onExCore
	c.neoFn = c.onNeoCore
	return c
}

// ensureSearchCtxs guarantees at least n per-worker search contexts.
func (e *Engine) ensureSearchCtxs(n int) {
	for len(e.searchCtxs) < n {
		e.searchCtxs = append(e.searchCtxs, newSearchCtx(e, len(e.searchCtxs)))
	}
}

// resetWords empties every worker's slab at the start of a fan-out phase
// whose captures replace all earlier ones, remembering the high-water mark.
func (e *Engine) resetWords() {
	for _, c := range e.searchCtxs {
		c.peak = max(c.peak, len(c.words))
		c.words = c.words[:0]
	}
}

// search runs one capture search around the point in slot s.
func (c *searchCtx) search(s int32, fn func(q int32) bool, cp *capture) {
	e := c.e
	c.self, c.hot = s, e.hot
	off := len(c.words)
	nodes := e.tree.SearchBallRO(e.pos[s], e.cfg.Eps, fn)
	*cp = capture{off: int32(off), n: int32(len(c.words) - off), nodes: int32(nodes), w: c.id}
}

// onDeparture is the phase-2 callback of a Δout point: record every surviving
// neighbor, whose nε must drop. Departures (label Deleted) and this stride's
// arrivals (which never counted the departure) are skipped.
func (c *searchCtx) onDeparture(q int32) bool {
	if h := &c.hot[q]; q != c.self && h.label != model.Deleted && h.marks&markEntered == 0 {
		c.words = append(c.words, uint32(q))
	}
	return true
}

// onArrival is the phase-2 callback of a Δin point: record surviving
// neighbors (the fold credits their nε and, for previous-window cores, the
// arrival's coreDeg and border hint) and co-arriving pairs once, from the
// smaller-id endpoint.
func (c *searchCtx) onArrival(q int32) bool {
	h := &c.hot[q]
	switch {
	case q == c.self || h.label == model.Deleted:
	case h.marks&markEntered == 0:
		c.words = append(c.words, uint32(q))
	case c.selfID < c.e.ids[q]:
		c.words = append(c.words, uint32(q)|tagPair)
	}
	return true
}

// collectSearch is the bound-once phase-2 dispatcher fanOut invokes: Δout
// departures occupy work indices [0, len(outSlots)), Δin arrivals the rest.
func (e *Engine) collectSearch(w, k int) {
	c := e.searchCtxs[w]
	if nOut := len(e.outSlots); k < nOut {
		c.search(e.outSlots[k], c.depFn, &e.deltaCaps[k])
	} else {
		s := e.inSlots[k-nOut]
		c.selfID = e.ids[s]
		c.search(s, c.arrFn, &e.deltaCaps[k])
	}
}

// fanOutSearches runs phase 2: one search per Δout and Δin point, fanned
// over the engine's shared worker dispatcher (fanOut, also used by CLUSTER;
// inline when one worker suffices). Node-access counts land in the captures
// and are summed in fixed order afterwards, keeping the totals identical to
// a sequential run — the same searches against the same fixed index touch
// the same nodes.
func (e *Engine) fanOutSearches() {
	total := len(e.outSlots) + len(e.inSlots)
	e.deltaCaps = grow(e.deltaCaps, total)
	if total == 0 {
		return
	}
	e.ensureSearchCtxs(min(e.workers, total))
	e.resetWords()
	e.fanOut(total, e.collectFanFn)
	var nodes int64
	for i := range e.deltaCaps {
		nodes += int64(e.deltaCaps[i].nodes)
	}
	e.stats.RangeSearches += int64(total)
	e.stats.NodeAccesses += nodes
}

// defaultWorkers resolves the WithWorkers argument: n <= 0 selects
// GOMAXPROCS. A capture names its worker in 16 bits.
func defaultWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return min(n, math.MaxInt16)
}
