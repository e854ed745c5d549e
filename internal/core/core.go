// Package core implements DISC (Density-based Incremental Striding
// Clustering), the primary contribution of Kim et al., ICDE 2021: an exact
// incremental density-based clustering algorithm for the sliding-window
// stream model that produces clusterings identical to DBSCAN while touching
// only the neighborhood of change.
//
// Each window advance runs two steps (Fig. 2 of the paper):
//
//   - COLLECT (Algorithm 1) batch-updates the ε-neighbor count nε(p) of every
//     point affected by the stride's arrivals (Δin) and departures (Δout) and
//     identifies the ex-cores (were cores, no longer are or left the window)
//     and neo-cores (are cores, were not or just arrived).
//   - CLUSTER (Algorithm 2) resolves cluster evolution: for every connected
//     component of ex-cores (one retro-reachable set R⁻) it gathers the
//     minimal bonding cores M⁻ — the surviving cores directly ε-adjacent to
//     the component — and checks their density-connectedness with MS-BFS
//     (Algorithm 3) over epoch-stamped scratch state (msbfs.go); a
//     disconnected M⁻ is a cluster split. Neo-core components (R⁺) only
//     inspect the cluster ids of their bonding cores M⁺ to decide emergence,
//     expansion, or merger — no connectivity search is ever needed for them.
//     Both phases fan their searches over the WithWorkers pool and fold the
//     results deterministically (cluster.go).
//
// Label maintenance (§V of the paper) is folded into the same range searches:
// every point keeps the count of its current core ε-neighbors, which changes
// exactly when a neighbor is an ex-core or neo-core — points we already
// search around once per stride — so border/noise status updates are free,
// and each border keeps a "hint" (the slot of one core neighbor) through which
// its cluster id resolves even across later splits and merges.
//
// Points live in a slot arena (arena.go): flat slabs indexed by an int32
// slot. Everything below the exported surface — the index, the search
// callbacks, every stride list — deals in slots; ids are resolved on the way
// in and on the way out.
package core

import (
	"fmt"
	"runtime"
	"time"

	"disc/internal/dsu"
	"disc/internal/dyncon"
	"disc/internal/geom"
	"disc/internal/model"
)

// compactInterval is the number of strides between cluster-id compactions
// (rewriting every stored cid to its union-find representative and resetting
// the forest, so the id space does not grow without bound).
const compactInterval = 1024

// Option configures optional behaviors of the engine. An engine's
// configuration is exactly what New or LoadEngine was given: no option is
// part of a checkpoint.
type Option func(*Engine)

// WithMSBFS enables (default) or disables the Multi-Starter BFS. When
// disabled, connectivity of minimal bonding cores is checked by sequential
// single-source BFS traversals that explore entire components. This and
// WithEpochProbing are the Fig. 8 ablation switches; internal/bench is
// their only caller outside tests.
func WithMSBFS(on bool) Option { return func(e *Engine) { e.useMSBFS = on } }

// WithEpochProbing enables (default) or disables epoch-stamped reuse of the
// connectivity scratch (the descendant of the paper's Algorithm 4: visited
// marks survive between checks and are invalidated in O(1) by bumping an
// instance tick). When disabled — the "no reuse" ablation — every
// connectivity check clears the whole slot-indexed visited table, paying
// per check the O(window) pass the stamped path avoids, with identical
// traversal order and statistics. It allocates no more than the stamped
// path: the table is pooled either way.
func WithEpochProbing(on bool) Option { return func(e *Engine) { e.useEpoch = on } }

// WithWorkers sets how many goroutines the per-stride search work fans out
// over — COLLECT's ε-range searches and CLUSTER's capture searches and
// MS-BFS connectivity checks alike; n <= 0 selects GOMAXPROCS and 1 (the
// default) runs everything inline. Every worker count produces bit-identical
// engine state, event streams, and statistics: the parallel work is
// read-only and fills private buffers that are folded single-threaded in a
// fixed order (see collect.go and cluster.go).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = defaultWorkers(n) } }

// WithAllocTracking enables per-phase heap-allocation accounting: Advance
// brackets each phase with runtime.ReadMemStats and accumulates the deltas
// readable via PhaseAllocs. This is bench instrumentation — the stops-the-
// world sampling distorts latency — so it is off by default and costs only
// a bool check when off.
func WithAllocTracking(on bool) Option { return func(e *Engine) { e.trackAllocs = on } }

// Engine is the DISC clustering engine. It implements model.Engine. The
// zero value is unusable; construct with New. Not safe for concurrent use,
// with one exception: Assignment, Snapshot, Stats, SaveSnapshot and
// CheckInvariants perform no writes, not even hidden ones (no union-find
// path compression, no search counters), so any number of them may run at
// once while no Advance or other mutation is in flight.
type Engine struct {
	cfg  model.Config
	tree spatialIndex
	arena
	cids    *dsu.Int
	nextCID int
	stride  uint64 // current stride number

	useMSBFS bool
	useEpoch bool
	workers  int // per-stride search fan-out (COLLECT and CLUSTER); 1 = inline
	onEvent  func(Event)
	observer Observer

	// Connectivity strategy (dyncon.go). With ConnDynamic the engine keeps
	// forest — a dynamic-connectivity structure over the core-adjacency
	// graph — in sync with every stride's core delta and answers phase-C
	// component queries from it instead of traversing. forestRebuilds counts
	// lifetime full rebuilds (restores and desync fallbacks).
	connStrategy   ConnStrategy
	forest         *dyncon.Forest
	forestRebuilds int64

	stats       model.Stats
	trackAllocs bool
	allocs      PhaseAllocs

	// Per-stride telemetry tallies, reset at the top of Advance and read by
	// observeStride; plain int fields so maintaining them costs one
	// increment on paths that already allocate Event values.
	strideEvents         [numEventTypes]int
	strideMerges         int64
	strideClusterWorkers int
	strideConnChecks     int

	// Connectivity telemetry for the stride: traversal work (MS-BFS modes),
	// phase-C wall time, and — under ConnDynamic — the forest maintenance
	// cost. None of this feeds model.Stats; engine statistics are
	// strategy-independent by contract (see msbfs.go).
	strideConnSearches       int64
	strideConnNodes          int64
	strideConnDur            time.Duration
	strideForestDur          time.Duration
	strideForestOps          int64
	strideForestReplSearches int64
	strideForestReplScans    int64
	strideForestRebuilds     int64

	// Scratch reused across strides, all of it slot lists and flat slabs.
	// None of this is observable state and none of it is persisted
	// (persist.go serializes an explicit field list); it exists purely to
	// keep the steady state allocation-free, and trimScratch keeps it
	// proportional to recent churn. affected doubles as the stride's output:
	// Delta.Points reads it until the next Advance.
	affected []int32

	// COLLECT stride buffers: the slots of Δout and Δin in input order (Δin's,
	// with inPos, feed one BulkInsert per stride), one capture per search, and
	// the transition lists collect produces.
	outSlots    []int32
	inSlots     []int32
	inPos       []geom.Vec
	deltaCaps   []capture
	exCoresBuf  []int32
	neoCoresBuf []int32
	coutBuf     []int32

	// Assignment delta (delta.go): the stride's cid unions and the two flags
	// that decide whether the next delta is full.
	strideUnions []CIDUnion
	deltaFull    bool
	deltaUnread  bool

	// censusIdx maps cluster id -> index into the caller's ClustersInto
	// buffer; pooled so repeated censuses allocate nothing.
	censusIdx map[int]int32

	// CLUSTER pipeline scratch (cluster.go, msbfs.go).
	exCaps      []capture
	neoCaps     []capture
	exComps     []exComponent
	bondBuf     []int32 // every component's M⁻, back to back
	connWork    []int32
	connResults []connResult
	walkQ       []int32
	cidScratch  []int
	scratches   []*msScratch

	// Bound-once fan-out dispatchers and per-worker search contexts. Building
	// a closure per ε-search (or per fan-out) was the last steady-state
	// allocation on the Advance path; instead each hot callback is a func
	// value created once at construction that reads its per-call parameters
	// from stable engine or context fields (the msScratch.visit trick).
	searchCtxs   []*searchCtx
	collectFanFn func(worker, k int)
	exCapFanFn   func(worker, k int)
	neoCapFanFn  func(worker, k int)
	connFanFn    func(worker, k int)
	hintFn       func(q int32) bool
	hintSelf     int32
	hintFound    int32
	rebuildFn    func(q int32) bool
	rebuildSelf  int32
}

// New returns a DISC engine for the given configuration. It panics on an
// invalid configuration; use cfg.Validate to pre-check user input.
func New(cfg model.Config, opts ...Option) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{
		cfg:      cfg,
		arena:    arena{slotOf: make(idTable)},
		cids:     dsu.NewInt(),
		nextCID:  1,
		useMSBFS: true,
		useEpoch: true,
		workers:  1,

		deltaFull:   true,
		deltaUnread: true,
	}
	// Method values allocate; bind the hot-path dispatchers exactly once.
	e.collectFanFn = e.collectSearch
	e.exCapFanFn = e.exCapSearch
	e.neoCapFanFn = e.neoCapSearch
	e.connFanFn = e.connCheck
	e.hintFn = e.hintVisit
	e.rebuildFn = e.rebuildVisit
	for _, o := range opts {
		o(e)
	}
	if e.tree == nil {
		e.tree = newEpsGrid(cfg.Dims, cfg.Eps)
	}
	return e
}

// Name implements model.Engine.
func (e *Engine) Name() string { return "DISC" }

// Advance implements model.Engine: it slides the window by one stride,
// running COLLECT and CLUSTER and finalizing every affected label.
func (e *Engine) Advance(in, out []model.Point) {
	e.stride++
	e.trimScratch()
	e.affected = e.affected[:0]
	// A stride whose delta nobody read — or that panicked half-way — cannot
	// be skipped over: the next delta must then cover everything.
	e.deltaFull = e.deltaUnread
	e.deltaUnread = true
	e.strideUnions = e.strideUnions[:0]
	e.strideEvents = [numEventTypes]int{}
	e.strideMerges = 0
	e.strideClusterWorkers = 0
	e.strideConnChecks = 0
	e.strideConnSearches, e.strideConnNodes = 0, 0
	e.strideConnDur, e.strideForestDur = 0, 0
	e.strideForestOps, e.strideForestReplSearches, e.strideForestReplScans = 0, 0, 0
	e.strideForestRebuilds = 0
	poolBefore := e.poolGrows()
	statsBefore := e.stats

	var m0, m1, m2, m3 runtime.MemStats
	if e.trackAllocs {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	exCores, neoCores, cout := e.collect(in, out)
	t1 := time.Now()
	if e.trackAllocs {
		runtime.ReadMemStats(&m1)
	}
	// Both capture fan-outs run up front, against the same index contents
	// (exited ex-cores still resident), in every connectivity mode: the
	// dynamic forest needs the full core-graph delta — neo-core edges
	// included — before the ex-core phase queries it, and running the
	// captures at the same point regardless of strategy is what keeps the
	// search statistics strategy-identical.
	e.captureCores(exCores, neoCores)
	if e.connStrategy == ConnDynamic {
		e.syncForest(exCores, neoCores)
	}
	e.clusterExCores(exCores)
	// Algorithm 2 line 8: ex-cores that exited the window stay in the index
	// through the ex-core phase (retro-reachability needs them) and are
	// removed before neo-cores are processed.
	for _, s := range cout {
		e.tree.Delete(s, e.pos[s])
	}
	t2 := time.Now()
	e.clusterNeoCores(neoCores)
	t3 := time.Now()
	if e.trackAllocs {
		runtime.ReadMemStats(&m2)
	}
	e.finalize()
	t4 := time.Now()
	if e.trackAllocs {
		runtime.ReadMemStats(&m3)
		e.allocs.accumulate(&m0, &m1, &m2, &m3)
	}

	e.stats.Strides++
	e.stats.MemoryItems = int64(len(e.slotOf))

	if e.observer != nil {
		e.observeStride(in, out, len(exCores), len(neoCores),
			t0, t1, t2, t3, t4, statsBefore, e.poolGrows()-poolBefore)
	}

	if e.stride%compactInterval == 0 {
		e.compactCIDs()
	}
}

// markAffected adds slot s to the stride's affected set exactly once.
func (e *Engine) markAffected(s int32) {
	if h := &e.hot[s]; h.marks&markAffected == 0 {
		h.marks |= markAffected
		e.affected = append(e.affected, s)
	}
}

// collect is the COLLECT step (Algorithm 1), restructured into three phases
// (see collect.go): structural index mutations first, then one read-only
// ε-range search per point of Δout ∪ Δin — fanned over e.workers goroutines
// into private captures — and finally a deterministic single-threaded merge.
// It returns the ex-cores, neo-cores, and the exited ex-cores C_out (still
// resident in the index), as slots.
func (e *Engine) collect(in, out []model.Point) (exCores, neoCores, cout []int32) {
	cout = e.coutBuf[:0]
	// Phase 1 — structural mutations, applied up front so every phase-2
	// search runs against one fixed index and immutable point state. This is
	// the one place a stride consults the id table, and the one place a slot
	// changes hands.
	e.outSlots = e.outSlots[:0]
	for _, p := range out {
		s, ok := e.slotOf[p.ID]
		if !ok {
			panic(fmt.Sprintf("disc: point %d left the window but was never inserted", p.ID))
		}
		h := &e.hot[s]
		if h.label == model.Core {
			cout = append(cout, s) // keep in the index until CLUSTER ends
		} else {
			e.tree.Delete(s, e.pos[s])
		}
		h.label = model.Deleted
		h.n = 0
		e.outSlots = append(e.outSlots, s)
	}
	e.inSlots = e.inSlots[:0]
	e.inPos = e.inPos[:0]
	for _, p := range in {
		if _, dup := e.slotOf[p.ID]; dup {
			panic(fmt.Sprintf("disc: duplicate point id %d entered the window", p.ID))
		}
		s := e.alloc()
		e.hot[s] = hotState{n: 1, hint: noSlot, label: model.Unclassified, marks: markEntered}
		e.pos[s], e.cid[s], e.ids[s] = p.Pos, 0, p.ID
		e.slotOf[p.ID] = s
		e.inSlots = append(e.inSlots, s)
		e.inPos = append(e.inPos, p.Pos)
	}
	e.tree.BulkInsert(e.inSlots, e.inPos)

	// Phase 2 — the parallel search fan-out.
	e.fanOutSearches()

	// Phase 3 — fold the captures into the engine, Δout then Δin, in input
	// order; the fixed order makes the result independent of workers.
	hot := e.hot
	for k, s := range e.outSlots {
		for _, w := range e.words(&e.deltaCaps[k]) {
			hot[w].n--
			e.markAffected(int32(w))
		}
		e.markAffected(s)
	}
	caps := e.deltaCaps[len(e.outSlots):]
	for k, s := range e.inSlots {
		st := &hot[s]
		words := e.words(&caps[k])
		// Surviving neighbours first, then co-arrivals, as two passes over
		// the ball: the affected set lists them in that order.
		for _, w := range words {
			if w&tagPair != 0 {
				continue
			}
			q := &hot[w]
			q.n++
			st.n++
			// Initialize coreDeg against cores surviving from the previous
			// window, hinting at the first in ball order; transitions
			// (ex-cores, neo-cores) correct both later.
			if q.wasCore {
				if st.coreDeg == 0 {
					st.hint = int32(w)
				}
				st.coreDeg++
			}
			e.markAffected(int32(w))
		}
		// Each co-arriving pair was recorded once, by its smaller-id
		// endpoint; credit both sides here.
		for _, w := range words {
			if w&tagPair != 0 {
				q := w &^ tagPair
				hot[q].n++
				st.n++
				e.markAffected(int32(q))
			}
		}
		e.markAffected(s)
	}

	// Every point whose nε changed is in the affected set; core-status
	// transitions can only happen there (Definitions 1 and 2).
	exCores = e.exCoresBuf[:0]
	neoCores = e.neoCoresBuf[:0]
	minPts := int32(e.cfg.MinPts)
	for _, s := range e.affected {
		st := &hot[s]
		if st.label == model.Deleted {
			if st.wasCore {
				exCores = append(exCores, s)
			}
			continue
		}
		isCore := st.n >= minPts
		switch {
		case st.wasCore && !isCore:
			exCores = append(exCores, s)
		case !st.wasCore && isCore:
			neoCores = append(neoCores, s)
		}
	}
	// Retain whatever growth the buffers saw for the next stride.
	e.exCoresBuf, e.neoCoresBuf, e.coutBuf = exCores, neoCores, cout
	return exCores, neoCores, cout
}

// isExCore reports whether st is an ex-core this stride: a previous-window
// core that exited or fell below the density threshold.
func (e *Engine) isExCore(st *hotState) bool {
	return st.wasCore && (st.label == model.Deleted || st.n < int32(e.cfg.MinPts))
}

// isCoreNow reports whether st is a core of the current window.
func (e *Engine) isCoreNow(st *hotState) bool {
	return st.label != model.Deleted && st.n >= int32(e.cfg.MinPts)
}

// finalize recomputes the label of every affected point from its maintained
// counters, refreshes wasCore for the next stride, re-acquires invalidated
// border hints (one early-terminating range search each — the paper's
// "updated later by examining labels of their ε-neighbors"), clears the
// stride's marks, and frees the slots of departed points.
func (e *Engine) finalize() {
	minPts := int32(e.cfg.MinPts)
	for _, s := range e.affected {
		st := &e.hot[s]
		st.marks = 0
		if st.label == model.Deleted {
			// The slot keeps its id and its Deleted label until an arrival
			// takes it — Delta.Points reports the departure from them — and
			// that is the next stride's phase 1 at the earliest. Nothing can
			// still hint at it: every neighbour of a departing core received
			// the core's clear-op and is re-derived below.
			delete(e.slotOf, e.ids[s])
			e.free = append(e.free, s)
			continue
		}
		if st.n >= minPts {
			if e.cid[s] == 0 {
				panic(fmt.Sprintf("disc: core point %d finalized without a cluster id", e.ids[s]))
			}
			st.label = model.Core
			st.wasCore = true
			continue
		}
		st.wasCore = false
		e.cid[s] = 0
		if st.coreDeg > 0 {
			st.label = model.Border
			if !e.hintValid(st) {
				st.hint = e.findHint(s, st)
			}
		} else {
			st.label = model.Noise
			st.hint = noSlot
		}
	}
}

// hintValid reports whether st's stored hint still names a live core.
func (e *Engine) hintValid(st *hotState) bool {
	return st.hint != noSlot && e.isCoreNow(&e.hot[st.hint])
}

// findHint locates one core ε-neighbor of the border point in slot s,
// terminating the range search as soon as one is found. finalize runs
// single-threaded, so one engine-level parameter slot (hintSelf/hintFound)
// serves the bound-once callback.
func (e *Engine) findHint(s int32, st *hotState) int32 {
	e.hintSelf, e.hintFound = s, noSlot
	e.stats.RangeSearches++
	e.stats.NodeAccesses += e.tree.SearchBallRO(e.pos[s], e.cfg.Eps, e.hintFn)
	if e.hintFound == noSlot {
		panic(fmt.Sprintf("disc: point %d has coreDeg=%d but no core ε-neighbor", e.ids[s], st.coreDeg))
	}
	return e.hintFound
}

// hintVisit is findHint's search callback.
func (e *Engine) hintVisit(q int32) bool {
	if q != e.hintSelf && e.isCoreNow(&e.hot[q]) {
		e.hintFound = q
		return false
	}
	return true
}

// compactCIDs rewrites every stored cluster id to its representative and
// resets the union-find forest, bounding its growth.
func (e *Engine) compactCIDs() {
	for s, cid := range e.cid {
		if cid != 0 {
			e.cid[s] = e.cids.Find(cid)
		}
	}
	e.cids.Reset()
	e.deltaFull = true
}

// Assignment implements model.Engine.
func (e *Engine) Assignment(id int64) (model.Assignment, bool) {
	s, ok := e.slotOf[id]
	if !ok {
		return model.Assignment{}, false
	}
	return e.assignmentOf(s), true
}

// Snapshot implements model.Engine. The returned map is freshly allocated
// and owned by the caller; use SnapshotInto to reuse a map across strides.
func (e *Engine) Snapshot() map[int64]model.Assignment {
	return e.SnapshotInto(nil)
}

// SnapshotInto fills dst with the assignment of every windowed point,
// clearing it first, and returns it (allocating a map only when dst is nil).
// Callers that poll a snapshot every stride — benchmarks, metrics probes —
// reuse one map and stay allocation-free in the steady state. Unlike
// Snapshot it mutates dst, so the caller must not share dst with concurrent
// readers.
func (e *Engine) SnapshotInto(dst map[int64]model.Assignment) map[int64]model.Assignment {
	if dst == nil {
		dst = make(map[int64]model.Assignment, len(e.slotOf))
	} else {
		clear(dst)
	}
	for s := range e.hot {
		if s := int32(s); e.resident(s) {
			dst[e.ids[s]] = e.assignmentOf(s)
		}
	}
	return dst
}

// assignmentOf resolves the current assignment of the point in slot s. It is
// genuinely read-only — cluster ids resolve through the non-compressing
// FindRO and a stale border hint is healed by a statistics-free re-search —
// so any number of callers may run concurrently between Advance calls.
func (e *Engine) assignmentOf(s int32) model.Assignment {
	switch e.hot[s].label {
	case model.Core:
		return model.Assignment{Label: model.Core, ClusterID: e.cids.FindRO(e.cid[s])}
	case model.Border:
		if h := e.borderAnchor(s); h != noSlot {
			return model.Assignment{Label: model.Border, ClusterID: e.cids.FindRO(e.cid[h])}
		}
	}
	return model.Assignment{Label: model.Noise, ClusterID: model.NoCluster}
}

// borderAnchor returns the slot of the core through which the border point
// in slot s resolves its cluster: the stored hint, or — when that names a
// departed or demoted point, possible only after a corrupted checkpoint or an
// internal inconsistency — any live core ε-neighbor found by a read-only
// search, so a query degrades gracefully instead of crashing the serving
// process. noSlot means there is none and the point reads as noise.
func (e *Engine) borderAnchor(s int32) int32 {
	if st := &e.hot[s]; e.hintValid(st) {
		return st.hint
	}
	anchor := noSlot
	e.tree.SearchBallRO(e.pos[s], e.cfg.Eps, func(q int32) bool {
		if q != s && e.isCoreNow(&e.hot[q]) {
			anchor = q
			return false
		}
		return true
	})
	return anchor
}

// Config returns the engine's clustering configuration. Restore paths use
// it to reject checkpoints taken under different thresholds or
// dimensionality than the target deployment.
func (e *Engine) Config() model.Config { return e.cfg }

// Stats implements model.Engine.
func (e *Engine) Stats() model.Stats { return e.stats }

// ResetStats implements model.Engine. It also zeroes the allocation
// counters.
func (e *Engine) ResetStats() {
	e.stats = model.Stats{}
	e.allocs = PhaseAllocs{}
}

// WindowSize returns the number of points currently tracked.
func (e *Engine) WindowSize() int { return len(e.slotOf) }
