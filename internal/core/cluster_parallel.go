package core

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"disc/internal/model"
	"disc/internal/trace"
)

// This file implements the parallel CLUSTER step (Algorithm 2), restructured
// the way collect.go restructured COLLECT: read-only searches fan out over
// the WithWorkers pool into private captures, and every side effect the
// serial walks applied inline is replayed single-threaded in a fixed order,
// so any worker count — including 1, which runs the fan-outs inline —
// produces bit-identical clusterings, event streams, and statistics.
//
// The ex-core phase runs as four sub-phases:
//
//	A. Capture (parallel): one SearchBallRO per ex-core — COLLECT already
//	   identified every ex-core, and retro-reachable components consist of
//	   nothing else — recording one tagged word per neighbour, in ball
//	   order, into the worker's slab (collect.go): the tags say whether the
//	   neighbour loses a core (and whether it ever counted it), whether it
//	   is a current core (a hint for the ex-core once demoted), an M⁻
//	   candidate, or an R⁻ frontier edge. Captures read only fields frozen
//	   during CLUSTER (pos, n, label, wasCore, the entered mark) and write
//	   only their worker's slab, so they are trivially race-free. Advance
//	   hoists both capture fan-outs (ex-core AND neo-core) ahead of
//	   everything else, in every connectivity mode: the dynamic forest
//	   consumes the captured edge delta before phase C queries it, and
//	   identical capture timing is what keeps search statistics strategy-
//	   independent.
//	B. Assembly (sequential): a BFS over the captured frontier words
//	   partitions the ex-cores into retro-reachable components, visiting
//	   members and deduplicating M⁻ (via the bonded mark) in exactly the
//	   order the serial walk did.
//	C. Connectivity (parallel): components with |M⁻| ≥ 2 run their MS-BFS
//	   checks on the worker pool, each against a per-worker scratch,
//	   recording results into a per-component connResult (msbfs.go).
//	D. Fold (sequential, in component order): replay each member's captured
//	   words, then the component's connectivity effects, then decide
//	   dissipation / shrink / split, allocate fresh cluster ids, relabel,
//	   and emit the event — byte-for-byte the serial sequence.
//
// Determinism of the fold order is what resolves the hard case of two
// components whose neighbor balls overlap on a shared non-core point: both
// record hint writes for it, and the fold applies them in component order,
// so the point ends with the hint the serial walk would have left.
// Conditional effects — the serial walk clears a neighbor's hint only `if
// q.hint == ex-core` — are evaluated at fold time against the evolving
// state, which is exactly the state the serial walk would have seen at that
// step. Replaying a ball word by word, rather than effect list by effect
// list, leaves the same state: the coreDeg decrements commute, hint writes
// keep their relative order, affected marks keep theirs, and the three touch
// disjoint fields.
//
// The neo-core phase is the same shape but needs no connectivity sub-phase:
// captures fan out in parallel (hoisted; see above), then assembly and fold
// run fused, per-component, in seed order. Bonding cores are captured as
// slots and resolved through cid[slot] + cids.Find at fold time, because
// both an ex-core split folded earlier in the stride (which rewrites raw
// cids) and a merger folded earlier in the neo phase (which mutates the
// union-find) must be observed by later components.
//
// All buffers live on the Engine and are pooled across strides; nothing
// here is observable state and none of it is persisted (persist.go stores
// an explicit field list).

// exComponent is one retro-reachable component: its members — capture
// indices, in BFS discovery order — are walkQ[mOff:mEnd], its deduplicated
// M⁻, in serial discovery order, bondBuf[bOff:bEnd].
type exComponent struct {
	seed       int32 // slot of the ex-core the component was grown from
	mOff, mEnd int32
	bOff, bEnd int32
}

// grow extends buf to n entries, keeping what entries beyond the previous
// length hold (connResults pool their inner slices there).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = append(buf[:cap(buf)], make([]T, n-cap(buf))...)
	}
	return buf[:n]
}

func resetConnResults(buf []connResult, n int) []connResult {
	buf = grow(buf, n)
	for i := range buf {
		buf[i].reset()
	}
	return buf
}

// The release rule. Stride scratch grows to whatever the largest stride ever
// needed — the stride that fills the window is typically twenty times an
// ordinary one — and would keep that for the life of the stream. At the top
// of every Advance a buffer whose capacity exceeds scratchSlack times what
// the previous stride used (and scratchFloor entries) is dropped, to be
// regrown by append: retained scratch follows recent churn. Steady strides
// never trip it; a constant, not an option.
const (
	scratchSlack = 4
	scratchFloor = 1 << 10
)

func trim[T any](buf []T, used int) []T {
	if cap(buf) > scratchFloor && cap(buf) > scratchSlack*used {
		return nil
	}
	return buf
}

// trimScratch applies the release rule; every buffer still has the length
// the previous stride left it with. The word slabs are judged together:
// which worker ran which search varies from stride to stride.
func (e *Engine) trimScratch() {
	var used, held int
	for _, c := range e.searchCtxs {
		used += max(c.peak, len(c.words))
		held += cap(c.words)
		c.peak = 0
	}
	if held > scratchFloor && held > scratchSlack*used {
		for _, c := range e.searchCtxs {
			c.words = nil
		}
	}
	e.affected = trim(e.affected, len(e.affected))
	e.outSlots = trim(e.outSlots, len(e.outSlots))
	e.inSlots = trim(e.inSlots, len(e.inSlots))
	e.inPos = trim(e.inPos, len(e.inPos))
	e.deltaCaps = trim(e.deltaCaps, len(e.deltaCaps))
	e.coutBuf = trim(e.coutBuf, len(e.coutBuf))
	e.exCoresBuf = trim(e.exCoresBuf, len(e.exCoresBuf))
	e.neoCoresBuf = trim(e.neoCoresBuf, len(e.neoCoresBuf))
	e.exCaps = trim(e.exCaps, len(e.exCaps))
	e.neoCaps = trim(e.neoCaps, len(e.neoCaps))
	e.walkQ = trim(e.walkQ, max(len(e.exCoresBuf), len(e.neoCoresBuf)))
	e.bondBuf = trim(e.bondBuf, len(e.bondBuf))
	e.exComps = trim(e.exComps, len(e.exComps))
	e.connResults = trim(e.connResults, len(e.connResults))
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

// onExCore is the phase-A callback of one ex-core's search: one word per
// neighbour the serial walk would have acted on while scanning the ball.
func (c *searchCtx) onExCore(q int32) bool {
	if q == c.self {
		return true
	}
	h, w := &c.hot[q], uint32(q)
	switch {
	case h.label == model.Deleted:
		if !h.wasCore {
			return true
		}
		w |= tagDeparted | tagFrontier // an exited ex-core: an R⁻ edge, no state to undo
	case h.n >= c.minPts:
		// Any current core serves as a border hint for the ex-core itself
		// once it is demoted; a surviving one is an M⁻ candidate.
		w |= tagCore
		if h.wasCore {
			w |= tagBond
		}
	case h.wasCore:
		w |= tagFrontier // a demoted ex-core
	}
	// The neighbor loses a core — unless it entered this stride and the
	// ex-core exited: an arrival never counted an exited core in its coreDeg
	// initialization.
	if c.exited && h.marks&markEntered != 0 {
		w |= tagNoDec
	}
	c.words = append(c.words, w)
	return true
}

// onNeoCore is the capture callback of one neo-core's search. Every
// non-departed neighbour gains a core: +1 coreDeg, hint refresh, affected
// mark — the fold does all three per word. A surviving core among them is an
// M⁺ candidate, a fellow neo-core an R⁺ edge.
func (c *searchCtx) onNeoCore(q int32) bool {
	h, w := &c.hot[q], uint32(q)
	if q == c.self || h.label == model.Deleted {
		return true
	}
	if h.n >= c.minPts {
		if h.wasCore {
			w |= tagBond
		} else {
			w |= tagFrontier
		}
	}
	c.words = append(c.words, w)
	return true
}

// exCapSearch is the bound-once phase-A dispatcher for ex-core captures.
func (e *Engine) exCapSearch(w, k int) {
	c, s := e.searchCtxs[w], e.exCoresBuf[k]
	c.exited = e.hot[s].label == model.Deleted
	c.search(s, c.exFn, &e.exCaps[k])
}

// neoCapSearch is its neo-core counterpart.
func (e *Engine) neoCapSearch(w, k int) {
	c := e.searchCtxs[w]
	c.search(e.neoCoresBuf[k], c.neoFn, &e.neoCaps[k])
}

// connCheck is the bound-once phase-C dispatcher: one connectivity check per
// component queued in connWork, each against its worker's private scratch.
func (e *Engine) connCheck(w, k int) {
	ci := e.connWork[k]
	e.connectivityInto(e.bonding(&e.exComps[ci]), e.scratches[w], &e.connResults[ci])
}

// bonding returns a component's M⁻.
func (e *Engine) bonding(c *exComponent) []int32 { return e.bondBuf[c.bOff:c.bEnd] }

// captureCores is phase A of both CLUSTER pipelines: one capture search per
// ex-core, then one per neo-core, fanned over the worker pool into the word
// slabs. Advance calls it before the C_out points leave the index (retro-
// reachability needs them; neo-core searches skip them by label) and before
// any fold mutates engine state.
func (e *Engine) captureCores(exCores, neoCores []int32) {
	e.resetWords() // COLLECT's captures are folded; the slabs start over
	e.exCaps = grow(e.exCaps, len(exCores))
	e.neoCaps = grow(e.neoCaps, len(neoCores))
	e.captureFan(exCores, e.exCapFanFn, "cluster.excap.worker")
	e.captureFan(neoCores, e.neoCapFanFn, "cluster.neocap.worker")
}

func (e *Engine) captureFan(cores []int32, fn func(worker, k int), span string) {
	if len(cores) == 0 {
		return
	}
	for i, s := range cores {
		e.capIdx[s] = int32(i)
	}
	e.ensureSearchCtxs(min(e.workers, len(cores)))
	if e.curTrace != nil {
		e.fanSpanName, e.fanParent = span, e.phaseSpan
	}
	e.noteClusterWorkers(e.fanOut(len(cores), fn))
}

// clusterExCores processes cluster evolution driven by ex-cores: for each
// retro-reachable component it computes the minimal bonding cores M⁻ and
// checks their density-connectedness. Theorem 1 of the paper justifies
// retiring the entire component after a single check — and, since distinct
// components share no minimal bonding cores, running those checks
// concurrently. Phase A (captureCores) has already run. See the file header
// for the phase structure.
func (e *Engine) clusterExCores(exCores []int32) {
	e.walkQ, e.bondBuf, e.exComps = e.walkQ[:0], e.bondBuf[:0], e.exComps[:0]
	e.connResults = e.connResults[:0]
	if len(exCores) == 0 {
		return
	}
	hot := e.hot

	// Phase B — assemble retro-reachable components from the captured
	// frontier words, replaying the serial BFS discovery order.
	for i, seed := range exCores {
		if e.exCaps[i].seen {
			continue // already covered by an earlier component (Alg. 2 line 7)
		}
		c := exComponent{seed: seed, mOff: int32(len(e.walkQ)), bOff: int32(len(e.bondBuf))}
		e.exCaps[i].seen = true
		e.walkQ = append(e.walkQ, int32(i))
		for head := int(c.mOff); head < len(e.walkQ); head++ {
			for _, w := range e.words(&e.exCaps[e.walkQ[head]]) {
				switch q := int32(w & slotMask); {
				case w&tagBond != 0:
					if h := &hot[q]; h.marks&markBonded == 0 {
						h.marks |= markBonded
						e.bondBuf = append(e.bondBuf, q)
					}
				case w&tagFrontier != 0:
					if f := &e.exCaps[e.capIdx[q]]; !f.seen {
						f.seen = true
						e.walkQ = append(e.walkQ, e.capIdx[q])
					}
				}
			}
		}
		c.mEnd, c.bEnd = int32(len(e.walkQ)), int32(len(e.bondBuf))
		for _, b := range e.bonding(&c) {
			hot[b].marks &^= markBonded
		}
		e.exComps = append(e.exComps, c)
	}
	ncomp := len(e.exComps)

	// Phase C — connectivity checks fan out over the components that need
	// one (|M⁻| ≥ 2; smaller sets decide without a traversal).
	e.connResults = resetConnResults(e.connResults, ncomp)
	e.connWork = e.connWork[:0]
	for i := range e.exComps {
		if c := &e.exComps[i]; c.bEnd-c.bOff >= 2 {
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
		e.ensureScratches(max(1, min(e.workers, len(e.connWork))))
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
	for i := range e.exComps {
		c := &e.exComps[i]
		// All retro-reachable ex-cores shared one cluster in the previous
		// window; remember it for event reporting before labels change.
		oldCID := e.cids.Find(e.cid[c.seed])
		for _, ci := range e.walkQ[c.mOff:c.mEnd] {
			cp, ex := &e.exCaps[ci], exCores[ci]
			for _, w := range e.words(cp) {
				if w&tagDeparted != 0 {
					continue
				}
				q := int32(w & slotMask)
				h := &hot[q]
				if w&tagNoDec == 0 {
					h.coreDeg--
				}
				if h.hint == ex {
					h.hint = noSlot
				}
				e.markAffected(q)
				if w&tagCore != 0 {
					hot[ex].hint = q
				}
			}
			e.stats.RangeSearches++
			e.stats.NodeAccesses += int64(cp.nodes)
		}
		res := &e.connResults[i]
		e.applyConnResult(res)

		// Decide the evolution of the component's previous cluster: an
		// empty M⁻ is a dissipation, a connected M⁻ a shrink, a
		// disconnected M⁻ a split (Algorithm 2 lines 4-6).
		size, bonds := int(c.mEnd-c.mOff), int(c.bEnd-c.bOff)
		if bonds == 0 {
			e.emit(Event{Type: Dissipation, ClusterID: oldCID, Cores: size})
			continue
		}
		if bonds == 1 || res.ncc <= 1 {
			e.emit(Event{Type: Shrink, ClusterID: oldCID, Cores: size})
			continue
		}
		e.stats.Splits += int64(res.ncc - 1)
		var fresh []int
		for k := 0; k < res.components(); k++ {
			cid := e.nextCID
			e.nextCID++
			fresh = append(fresh, cid)
			// Canonical member order, ascending point id: the recording order
			// is traversal (MS-BFS / sequential) or Euler-tour (forest)
			// shaped, and the relabel order feeds the affected set, whose
			// order is observable one stride later (it decides the next
			// stride's ex-core order). Sorting by id — not by slot, which a
			// restored engine numbers differently — makes it independent of
			// both the strategy and the engine's history.
			members := res.component(k)
			slices.SortFunc(members, func(a, b int32) int { return cmp.Compare(e.ids[a], e.ids[b]) })
			for _, s := range members {
				e.cid[s] = cid
				e.markAffected(s)
			}
		}
		e.emit(Event{Type: Split, ClusterID: oldCID, NewClusters: fresh, Cores: size})
	}
}

// clusterNeoCores processes cluster evolution driven by neo-cores: each
// nascent-reachable component gathers the cluster ids of its minimal
// bonding cores M⁺; no ids means a new cluster emerges, one id means the
// cluster expands, several mean those clusters merge (Algorithm 2 lines
// 9-13). Captures already fanned out (captureCores); assembly and fold run
// fused per component, in seed order, so merger order — and therefore every
// union in the cid forest — matches the serial walk.
func (e *Engine) clusterNeoCores(neoCores []int32) {
	e.walkQ = e.walkQ[:0]
	hot := e.hot
	for i := range neoCores {
		if e.neoCaps[i].seen {
			continue // covered by an earlier component
		}
		// Assemble and fold one nascent-reachable component. walkQ is
		// head-indexed, never shifted, so after the loop the component's
		// members are walkQ[start:]; cidScratch deduplicates resolved cluster
		// ids in first-encounter order. Neighbouring bonding cores mostly
		// carry the same raw cid, and no union happens until the component is
		// folded, so the last resolution is remembered rather than repeated.
		start := len(e.walkQ)
		e.neoCaps[i].seen = true
		e.walkQ = append(e.walkQ, int32(i))
		e.cidScratch = e.cidScratch[:0]
		lastRaw, lastCID := 0, 0 // no core carries raw cid 0
		for head := start; head < len(e.walkQ); head++ {
			ci := e.walkQ[head]
			neo := neoCores[ci]
			e.markAffected(neo)
			cp := &e.neoCaps[ci]
			for _, w := range e.words(cp) {
				q := int32(w & slotMask)
				h := &hot[q]
				h.coreDeg++
				h.hint = neo
				e.markAffected(q)
				switch {
				case w&tagBond != 0:
					if raw := e.cid[q]; raw != lastRaw {
						lastRaw, lastCID = raw, e.cids.Find(raw)
						if !containsCID(e.cidScratch, lastCID) {
							e.cidScratch = append(e.cidScratch, lastCID)
						}
					}
				case w&tagFrontier != 0:
					if f := &e.neoCaps[e.capIdx[q]]; !f.seen {
						f.seen = true
						e.walkQ = append(e.walkQ, e.capIdx[q])
					}
				}
			}
			e.stats.RangeSearches++
			e.stats.NodeAccesses += int64(cp.nodes)
		}
		members := e.walkQ[start:]

		var cid int
		switch len(e.cidScratch) {
		case 0: // emergence
			cid = e.nextCID
			e.nextCID++
			e.emit(Event{Type: Emergence, ClusterID: cid, Cores: len(members)})
		case 1: // expansion
			cid = e.cidScratch[0]
			e.emit(Event{Type: Expansion, ClusterID: cid, Cores: len(members)})
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
			e.emit(Event{Type: Merger, ClusterID: cid, Absorbed: absorbed, Cores: len(members)})
		}
		for _, ci := range members {
			e.cid[neoCores[ci]] = cid
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
