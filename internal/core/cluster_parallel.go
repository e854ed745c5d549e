package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"disc/internal/geom"
	"disc/internal/model"
	"disc/internal/trace"
)

// This file implements the parallel CLUSTER step (Algorithm 2), restructured
// the way collect.go restructured COLLECT: read-only searches fan out over
// the WithWorkers pool into private capture buffers, and every side effect
// the serial walks applied inline is replayed single-threaded in a fixed
// order, so any worker count — including 1, which runs the fan-outs inline —
// produces bit-identical clusterings, event streams, and statistics.
//
// The ex-core phase runs as four sub-phases:
//
//	A. Capture (parallel): one SearchBallRO per ex-core — COLLECT already
//	   identified every ex-core, and retro-reachable components consist of
//	   nothing else — classifying each neighbor into the capture's buffers
//	   (coreDeg decrements, hint operations, affected ids, M⁻ candidates,
//	   R⁻ frontier edges) in ball order. Captures read only fields frozen
//	   during CLUSTER (pos, n, label, wasCore, enterStamp) and write only
//	   their own buffer, so they are trivially race-free. Advance hoists
//	   both capture fan-outs (ex-core AND neo-core) ahead of everything
//	   else, in every connectivity mode: the dynamic forest consumes the
//	   captured edge delta before phase C queries it, and identical capture
//	   timing is what keeps search statistics strategy-independent.
//	B. Assembly (sequential): a BFS over the captured frontier lists
//	   partitions the ex-cores into retro-reachable components, visiting
//	   members and deduplicating M⁻ (via bondTick/bondStamp) in exactly the
//	   order the serial walk did.
//	C. Connectivity (parallel): components with |M⁻| ≥ 2 run their MS-BFS
//	   checks on the worker pool, each against a per-worker scratch,
//	   recording results into a per-component connResult (msbfs.go).
//	D. Fold (sequential, in component order): replay each member's captured
//	   effects, then the component's connectivity effects, then decide
//	   dissipation / shrink / split, allocate fresh cluster ids, relabel,
//	   and emit the event — byte-for-byte the serial sequence.
//
// Determinism of the fold order is what resolves the hard case of two
// components whose neighbor balls overlap on a shared non-core point: both
// record hint writes for it, and the fold applies them in component order,
// so the point ends with the hint the serial walk would have left.
// Conditional effects — the serial walk clears a neighbor's hint only `if
// q.hint == eid` — are recorded as conditional hintOps and evaluated at
// fold time against the evolving state, which is exactly the state the
// serial walk would have seen at that step.
//
// The neo-core phase is the same shape but needs no connectivity sub-phase:
// captures fan out in parallel (hoisted; see above), then assembly and fold
// run fused, per-component, in seed order. Bonding cores are captured as
// point ids and resolved through pts[id].cid + cids.Find at fold time,
// because both an ex-core split folded earlier in the stride (which rewrites
// raw cids) and a merger folded earlier in the neo phase (which mutates the
// union-find) must be observed by later components.
//
// All buffers live on the Engine and are pooled across strides; nothing
// here is observable state and none of it is persisted (persist.go stores
// an explicit field list).

// hintOp is one deferred border-hint write captured during a read-only
// CLUSTER search, replayed by the fold.
type hintOp struct {
	target int64 // point whose hint is written
	arg    int64 // clear: the core id to test against; set: the new hint
	clear  bool  // true: "if hint == arg, clear it"; false: "hint = arg"
}

// applyHintOps replays recorded hint operations against live state. Must
// run single-threaded, in recording order.
func (e *Engine) applyHintOps(ops []hintOp) {
	for _, op := range ops {
		q := e.pts[op.target]
		if op.clear {
			if q.hint == op.arg {
				q.hasHint = false
			}
		} else {
			q.hint, q.hasHint = op.arg, true
		}
	}
}

// exCapture is the private buffer one phase-A search around one ex-core
// fills. Slices are retained across strides; every list preserves ball
// (traversal) order so the fold replays the serial effect sequence.
type exCapture struct {
	degDec   []int64  // neighbors whose coreDeg drops
	hints    []hintOp // conditional clears + the ex-core's own hint updates
	affected []int64  // neighbors to mark affected
	bonding  []int64  // surviving-core neighbors: M⁻ candidates (pre-dedup)
	frontier []int64  // ex-core neighbors: R⁻ expansion edges
	nodes    int64    // index nodes the search touched
}

// neoCapture is the dual buffer for one neo-core. The same neighbor set
// receives the coreDeg credit, the hint refresh, and the affected mark, so
// one list serves all three.
type neoCapture struct {
	touched  []int64 // non-departed neighbors, ball order
	bondIDs  []int64 // surviving-core neighbors (M⁺); cids resolve at fold time
	frontier []int64 // neo-core neighbors: R⁺ expansion edges
	nodes    int64
}

// exComponent is one retro-reachable component: capture indices of its
// members in BFS discovery order plus its deduplicated M⁻.
type exComponent struct {
	seed    int64
	members []int32 // indices into exCores / e.exCaps
	bonding []int64 // M⁻, serial discovery order
}

// grow extends buf to n entries, preserving the pooled inner slices of
// entries beyond the previous length (the resetDeltas pattern).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = append(buf[:cap(buf)], make([]T, n-cap(buf))...)
	}
	return buf[:n]
}

func resetExCaps(buf []exCapture, n int) []exCapture {
	buf = grow(buf, n)
	for i := range buf {
		buf[i].degDec = buf[i].degDec[:0]
		buf[i].hints = buf[i].hints[:0]
		buf[i].affected = buf[i].affected[:0]
		buf[i].bonding = buf[i].bonding[:0]
		buf[i].frontier = buf[i].frontier[:0]
		buf[i].nodes = 0
	}
	return buf
}

func resetNeoCaps(buf []neoCapture, n int) []neoCapture {
	buf = grow(buf, n)
	for i := range buf {
		buf[i].touched = buf[i].touched[:0]
		buf[i].bondIDs = buf[i].bondIDs[:0]
		buf[i].frontier = buf[i].frontier[:0]
		buf[i].nodes = 0
	}
	return buf
}

func resetConnResults(buf []connResult, n int) []connResult {
	buf = grow(buf, n)
	for i := range buf {
		buf[i].reset()
	}
	return buf
}

// fanOutChunk is how many work items a worker claims from the shared cursor
// at a time — coarse enough to keep the atomic off the hot path, fine
// enough to balance skewed per-item cost (dense neighborhoods, large
// components).
const fanOutChunk = 8

// fanOut runs fn(worker, k) for every k in [0, total) across
// min(e.workers, total) goroutines — inline, without spawning, when that is
// one — and returns the width actually used. fn is invoked exactly once per
// k; distinct invocations must not share mutable state except through the
// per-worker slot index.
func (e *Engine) fanOut(total int, fn func(worker, k int)) int {
	workers := e.workers
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		for k := 0; k < total; k++ {
			fn(0, k)
		}
		return 1
	}
	// Per-worker span parameters, captured before the spawn so workers
	// never read mutable engine fields. tr is nil for untraced strides
	// (the common case), leaving one nil check per worker.
	tr, fanName, fanParent := e.curTrace, e.fanSpanName, e.fanParent
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sp *trace.Span
			if tr != nil {
				sp = tr.StartSpan(fanName, fanParent, trace.Int("worker", w))
			}
			items := 0
			for {
				hi := cursor.Add(fanOutChunk)
				lo := hi - fanOutChunk
				if int(lo) >= total {
					break
				}
				if int(hi) > total {
					hi = int64(total)
				}
				for k := int(lo); k < int(hi); k++ {
					fn(w, k)
					items++
				}
			}
			if sp != nil {
				sp.SetInt("items", items)
				sp.EndNow()
			}
		}(w)
	}
	wg.Wait()
	return workers
}

// ensureScratches guarantees at least n per-worker connectivity scratches.
func (e *Engine) ensureScratches(n int) {
	for len(e.scratches) < n {
		e.scratches = append(e.scratches, newMSScratch(e))
	}
}

// poolGrows sums the growth counters of every pooled CLUSTER structure; the
// per-stride delta is the observer's PoolGrows (zero in the steady state).
func (e *Engine) poolGrows() int64 {
	var g int64
	for _, s := range e.scratches {
		g += s.grown + s.qpool.Grown()
	}
	return g
}

// noteClusterWorkers records the widest CLUSTER fan-out of the stride.
func (e *Engine) noteClusterWorkers(w int) {
	if w > e.strideClusterWorkers {
		e.strideClusterWorkers = w
	}
}

// captureExCore runs the phase-A search for one ex-core, recording the
// effects the serial walk would have applied while scanning its ε-ball.
func (c *searchCtx) captureExCore(eid int64, cp *exCapture) {
	e := c.e
	est := e.pts[eid]
	c.selfID, c.exited, c.xcp = eid, est.label == model.Deleted, cp
	cp.nodes = e.tree.SearchBallRO(est.pos, e.cfg.Eps, c.exFn)
	c.xcp = nil
}

func (c *searchCtx) onExCore(qid int64, _ geom.Vec) bool {
	e, cp, eid := c.e, c.xcp, c.selfID
	if qid == eid {
		return true
	}
	q := e.pts[qid]
	if q.label != model.Deleted {
		// The neighbor lost the core point eid. A point that entered
		// this stride never counted an exited core in its coreDeg
		// initialization, so skip that combination.
		if !(c.exited && q.enterStamp == e.stride) {
			cp.degDec = append(cp.degDec, qid)
		}
		cp.hints = append(cp.hints, hintOp{target: qid, arg: eid, clear: true})
		cp.affected = append(cp.affected, qid)
	}
	if e.isCoreNow(q) {
		// Any current core serves as a border hint for the ex-core
		// itself once it is demoted.
		cp.hints = append(cp.hints, hintOp{target: eid, arg: qid})
		if q.wasCore {
			cp.bonding = append(cp.bonding, qid)
		}
	} else if e.isExCore(q) {
		cp.frontier = append(cp.frontier, qid)
	}
	return true
}

// exCapSearch is the bound-once phase-A dispatcher for ex-core captures.
func (e *Engine) exCapSearch(w, k int) {
	e.searchCtxs[w].captureExCore(e.fanExCores[k], &e.exCaps[k])
}

// neoCapSearch is its neo-core counterpart.
func (e *Engine) neoCapSearch(w, k int) {
	e.searchCtxs[w].captureNeoCore(e.fanNeoCores[k], &e.neoCaps[k])
}

// connCheck is the bound-once phase-C dispatcher: one connectivity check per
// component queued in connWork, each against its worker's private scratch.
func (e *Engine) connCheck(w, k int) {
	ci := e.connWork[k]
	e.connectivityInto(e.exComps[ci].bonding, e.scratches[w], &e.connResults[ci])
}

// captureExCores is phase A of the ex-core pipeline: capture searches fan
// out over the worker pool. Advance calls it before the C_out points leave
// the index (retro-reachability needs them) and before any fold mutates
// engine state.
func (e *Engine) captureExCores(exCores []int64) {
	if len(exCores) == 0 {
		return
	}
	e.exCaps = resetExCaps(e.exCaps, len(exCores))
	for i, id := range exCores {
		st := e.pts[id]
		st.capStamp = e.stride
		st.capIdx = int32(i)
	}
	e.ensureSearchCtxs(min(e.workers, len(exCores)))
	e.fanExCores = exCores
	if e.curTrace != nil {
		e.fanSpanName, e.fanParent = "cluster.excap.worker", e.phaseSpan
	}
	e.noteClusterWorkers(e.fanOut(len(exCores), e.exCapFanFn))
	e.fanExCores = nil
}

// clusterExCores processes cluster evolution driven by ex-cores: for each
// retro-reachable component it computes the minimal bonding cores M⁻ and
// checks their density-connectedness. Theorem 1 of the paper justifies
// retiring the entire component after a single check — and, since distinct
// components share no minimal bonding cores, running those checks
// concurrently. Phase A (captureExCores) has already run. See the file
// header for the phase structure.
func (e *Engine) clusterExCores(exCores []int64) {
	if len(exCores) == 0 {
		return
	}

	// Phase B — assemble retro-reachable components from the captured
	// frontier lists, replaying the serial BFS discovery order.
	ncomp := 0
	for _, seed := range exCores {
		if e.pts[seed].exStamp == e.stride {
			continue // already covered by an earlier component (Alg. 2 line 7)
		}
		e.exComps = grow(e.exComps, ncomp+1)
		c := &e.exComps[ncomp]
		ncomp++
		c.seed = seed
		c.members = c.members[:0]
		c.bonding = c.bonding[:0]
		e.bondTick++
		e.walkQ = append(e.walkQ[:0], e.pts[seed].capIdx)
		e.pts[seed].exStamp = e.stride
		for head := 0; head < len(e.walkQ); head++ {
			ci := e.walkQ[head]
			c.members = append(c.members, ci)
			cp := &e.exCaps[ci]
			for _, qid := range cp.bonding {
				if q := e.pts[qid]; q.bondStamp != e.bondTick {
					q.bondStamp = e.bondTick
					c.bonding = append(c.bonding, qid)
				}
			}
			for _, fid := range cp.frontier {
				if q := e.pts[fid]; q.exStamp != e.stride {
					q.exStamp = e.stride
					e.walkQ = append(e.walkQ, q.capIdx)
				}
			}
		}
	}

	// Phase C — connectivity checks fan out over the components that need
	// one (|M⁻| ≥ 2; smaller sets decide without a traversal).
	e.connResults = resetConnResults(e.connResults, ncomp)
	e.connWork = e.connWork[:0]
	for i := 0; i < ncomp; i++ {
		if len(e.exComps[i].bonding) >= 2 {
			e.connWork = append(e.connWork, int32(i))
		}
	}
	if len(e.connWork) > 0 {
		e.strideConnChecks += len(e.connWork)
		if e.connStrategy == ConnDynamic {
			// Serial pre-verify: every bonding core must be a forest vertex
			// before the concurrent (read-only) queries run; a miss means
			// desync and triggers a rebuild here, where mutating is safe.
			e.verifyForestBonding()
		}
		cw := e.workers
		if cw > len(e.connWork) {
			cw = len(e.connWork)
		}
		if cw < 1 {
			cw = 1
		}
		e.ensureScratches(cw)
		var spConn *trace.Span
		if tr := e.curTrace; tr != nil {
			spConn = tr.StartSpan("connectivity", e.phaseSpan,
				trace.Int("checks", len(e.connWork)))
			e.fanSpanName, e.fanParent = "connectivity.worker", spConn
		}
		connStart := time.Now()
		e.noteClusterWorkers(e.fanOut(len(e.connWork), e.connFanFn))
		e.strideConnDur += time.Since(connStart)
		spConn.EndNow()
	}

	// Phase D — fold, in component order.
	for i := 0; i < ncomp; i++ {
		c := &e.exComps[i]
		// All retro-reachable ex-cores shared one cluster in the previous
		// window; remember it for event reporting before labels change.
		oldCID := e.cids.Find(e.pts[c.seed].cid)
		for _, ci := range c.members {
			cp := &e.exCaps[ci]
			for _, qid := range cp.degDec {
				e.pts[qid].coreDeg--
			}
			e.applyHintOps(cp.hints)
			for _, qid := range cp.affected {
				e.markAffected(qid, e.pts[qid])
			}
			e.stats.RangeSearches++
			e.stats.NodeAccesses += cp.nodes
		}
		res := &e.connResults[i]
		e.applyConnResult(res)

		// Decide the evolution of the component's previous cluster: an
		// empty M⁻ is a dissipation, a connected M⁻ a shrink, a
		// disconnected M⁻ a split (Algorithm 2 lines 4-6).
		size := len(c.members)
		if len(c.bonding) == 0 {
			e.emit(Event{Type: Dissipation, ClusterID: oldCID, Cores: size})
			continue
		}
		if len(c.bonding) == 1 || res.ncc <= 1 {
			e.emit(Event{Type: Shrink, ClusterID: oldCID, Cores: size})
			continue
		}
		e.stats.Splits += int64(res.ncc - 1)
		var fresh []int
		for k := 0; k < res.components(); k++ {
			cid := e.nextCID
			e.nextCID++
			fresh = append(fresh, cid)
			// Canonical member order: the recording order is traversal
			// (MS-BFS / sequential) or Euler-tour (forest) shaped, and the
			// relabel order feeds the affected set, whose order is
			// observable one stride later (it decides the next stride's
			// ex-core order). Sorting makes it strategy-independent.
			members := res.component(k)
			slices.Sort(members)
			for _, id := range members {
				st := e.pts[id]
				st.cid = cid
				e.markAffected(id, st)
			}
		}
		e.emit(Event{Type: Split, ClusterID: oldCID, NewClusters: fresh, Cores: size})
	}
}

// captureNeoCore runs the capture search for one neo-core.
func (c *searchCtx) captureNeoCore(nid int64, cp *neoCapture) {
	e := c.e
	nst := e.pts[nid]
	c.selfID, c.ncp = nid, cp
	cp.nodes = e.tree.SearchBallRO(nst.pos, e.cfg.Eps, c.neoFn)
	c.ncp = nil
}

func (c *searchCtx) onNeoCore(qid int64, _ geom.Vec) bool {
	e, cp := c.e, c.ncp
	if qid == c.selfID {
		return true
	}
	q := e.pts[qid]
	if q.label == model.Deleted {
		return true
	}
	// The neighbor gains the core point nid: +1 coreDeg, hint refresh,
	// affected mark — one list drives all three at fold time.
	cp.touched = append(cp.touched, qid)
	if !e.isCoreNow(q) {
		return true
	}
	if q.wasCore {
		// The id, not the cid: the fold reads pts[qid].cid and resolves it
		// through cids.Find, so both an ex-core split relabel and a merger
		// folded earlier in this stride are observed.
		cp.bondIDs = append(cp.bondIDs, qid)
	} else {
		cp.frontier = append(cp.frontier, qid)
	}
	return true
}

// captureNeoCores is the neo-core capture fan-out, hoisted by Advance next
// to captureExCores (see the file header): it runs while the C_out points
// are still resident in the index — they are skipped by label — and before
// any fold mutates engine state.
func (e *Engine) captureNeoCores(neoCores []int64) {
	if len(neoCores) == 0 {
		return
	}
	e.neoCaps = resetNeoCaps(e.neoCaps, len(neoCores))
	for i, id := range neoCores {
		st := e.pts[id]
		st.capStamp = e.stride
		st.capIdx = int32(i)
	}
	e.ensureSearchCtxs(min(e.workers, len(neoCores)))
	e.fanNeoCores = neoCores
	if e.curTrace != nil {
		e.fanSpanName, e.fanParent = "cluster.neocap.worker", e.phaseSpan
	}
	e.noteClusterWorkers(e.fanOut(len(neoCores), e.neoCapFanFn))
	e.fanNeoCores = nil
}

// clusterNeoCores processes cluster evolution driven by neo-cores: each
// nascent-reachable component gathers the cluster ids of its minimal
// bonding cores M⁺; no ids means a new cluster emerges, one id means the
// cluster expands, several mean those clusters merge (Algorithm 2 lines
// 9-13). Captures already fanned out (captureNeoCores); assembly and fold
// run fused per component, in seed order, so merger order — and therefore
// every union in the cid forest — matches the serial walk.
func (e *Engine) clusterNeoCores(neoCores []int64) {
	if len(neoCores) == 0 {
		return
	}
	for _, seed := range neoCores {
		if e.pts[seed].neoStamp == e.stride {
			continue // covered by an earlier component
		}
		// Assemble and fold one nascent-reachable component. walkQ is a
		// head-indexed ring, never shifted, so after the loop it holds the
		// full member list for relabeling; cidScratch deduplicates resolved
		// cluster ids in first-encounter order.
		e.walkQ = append(e.walkQ[:0], e.pts[seed].capIdx)
		e.cidScratch = e.cidScratch[:0]
		e.pts[seed].neoStamp = e.stride
		for head := 0; head < len(e.walkQ); head++ {
			ci := e.walkQ[head]
			nid := neoCores[ci]
			e.markAffected(nid, e.pts[nid])
			cp := &e.neoCaps[ci]
			for _, qid := range cp.touched {
				q := e.pts[qid]
				q.coreDeg++
				q.hint, q.hasHint = nid, true
				e.markAffected(qid, q)
			}
			for _, bid := range cp.bondIDs {
				cid := e.cids.Find(e.pts[bid].cid)
				if !containsCID(e.cidScratch, cid) {
					e.cidScratch = append(e.cidScratch, cid)
				}
			}
			for _, fid := range cp.frontier {
				if q := e.pts[fid]; q.neoStamp != e.stride {
					q.neoStamp = e.stride
					e.walkQ = append(e.walkQ, q.capIdx)
				}
			}
			e.stats.RangeSearches++
			e.stats.NodeAccesses += cp.nodes
		}

		var cid int
		switch len(e.cidScratch) {
		case 0: // emergence
			cid = e.nextCID
			e.nextCID++
			e.emit(Event{Type: Emergence, ClusterID: cid, Cores: len(e.walkQ)})
		case 1: // expansion
			cid = e.cidScratch[0]
			e.emit(Event{Type: Expansion, ClusterID: cid, Cores: len(e.walkQ)})
		default: // merger
			cid = e.cidScratch[0]
			for _, c := range e.cidScratch[1:] {
				if c < cid {
					cid = c
				}
			}
			var absorbed []int
			for _, c := range e.cidScratch {
				if c != cid {
					e.cids.UnionInto(cid, c)
					e.strideUnions = append(e.strideUnions, CIDUnion{Into: cid, From: c})
					e.stats.Merges++
					absorbed = append(absorbed, c)
				}
			}
			e.emit(Event{Type: Merger, ClusterID: cid, Absorbed: absorbed, Cores: len(e.walkQ)})
		}
		for _, ci := range e.walkQ {
			e.pts[neoCores[ci]].cid = cid
		}
	}
}

// containsCID reports whether the (small) dedup scratch already holds cid —
// a linear scan beats a map for the handful of clusters a component
// typically bonds to, and allocates nothing.
func containsCID(s []int, cid int) bool {
	for _, c := range s {
		if c == cid {
			return true
		}
	}
	return false
}
