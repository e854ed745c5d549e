package core

import (
	"disc/internal/dsu"
	"disc/internal/dyncon"
	"disc/internal/queue"
)

// This file implements the density-connectedness check for a set of minimal
// bonding cores: Multi-Starter BFS (Algorithm 3 of the paper), plus the
// degraded sequential variant used by the Fig. 8 ablation study.
//
// # Read-only traversal and the scratch pool contract
//
// Since the CLUSTER phase went parallel (cluster.go), connectivity
// checks for independent components may run concurrently, so a check must
// not write anything another check could read: every expansion search uses
// SearchBallRO, the visited set lives outside the index, and the check's
// outputs (component count, members, work counters) are recorded into a
// caller-owned connResult. The paper's in-tree epoch probing (Algorithm 4)
// is therefore retired from this path — its entry stamps are writes into
// shared index pages — and its idea survives as the instance tick below;
// only internal/rtree keeps SearchBallEpoch, for the single-threaded
// internal/incdbscan.
//
// A connectivity check is free of engine side effects by contract: it must
// answer exactly the same observable question as the maintained dyncon
// forest (WithConnectivity(ConnDynamic)), which performs no traversal at
// all, so nothing the traversal incidentally touches may leak into engine
// state. Border-hint refreshes and affected-set marks are owned entirely by
// the capture/fold pipeline (every border adjacent to a dying core is
// marked affected by that core's capture, and finalize re-derives any hint
// the stride invalidated), and the traversal's search/node counts feed
// per-stride telemetry (StrideRecord.ConnSearches/ConnNodes), not
// model.Stats. For the same reason closed components are reported in a
// strategy-independent canonical order: ascending minimum starter
// (bonding-core) index. Sequential BFS produces that order naturally; MS-
// BFS closes components in an emergent round-robin order and sorts them
// (canonicalizeComponents); the forest reports roots in first-seen starter
// order, which is the same order by construction.
//
// All per-instance state lives in an msScratch owned by one goroutine
// (the engine keeps one per CLUSTER worker slot) and reused across
// instances and strides:
//
//   - the visited table is a slab indexed by arena slot and epoch-stamped:
//     each instance bumps s.tick and entries from older instances are
//     treated as absent, so there is no per-instance clearing pass and no
//     lookup beyond an index (it is cleared when the 32-bit tick wraps);
//   - group structs, their member slices, the round-robin active list, the
//     thread union-find, and every queue node are pooled and recycled, so a
//     steady-state connectivity check performs zero heap allocations
//     (pinned by TestConnectivityZeroAlloc and BenchmarkConnectivitySteady);
//   - the search callback is built once per scratch and parameterized
//     through scratch fields, keeping closures off the per-expansion path.
//
// An msScratch must never be shared between concurrently running checks,
// and a connResult must not be read before the check that fills it returns.
// With WithEpochProbing(false) the visited table is cleared per instance —
// the "no reuse" ablation — with identical traversal order and statistics.
//
// # Composition of MS-BFS with visit-on-expansion
//
// For MS-BFS to detect that two search threads meet, a vertex must remain
// discoverable while it sits in a queue and may only be hidden once it has
// been expanded. We therefore stamp a core when it is dequeued and its own
// expansion search runs (the ball around a core covers the core itself),
// and record thread ownership separately at enqueue time.
//
// Why no merge is ever missed: suppose threads s and t both finish without
// merging although their regions are connected; then some edge (u, v) exists
// with u expanded by s's group and v by t's group. Consider the earlier of
// the two expansions, say v by t. At that moment u was not yet expanded, so
// u was not stamped and t's search of v returned u. If u was already owned
// by s's group, the merge was detected — contradiction. Otherwise t enqueued
// u and u would have been expanded by t's group, not s's — contradiction.
// Non-core points never join the traversal; they are stamped on first touch
// since nothing revisits them within one instance.

// visitEntry flags.
const (
	visitOwned   uint8 = 1 << iota // a thread owns this core (owner valid)
	visitStamped                   // hidden from later expansion searches
)

// visitEntry is one epoch-stamped visited-table entry; it is current only
// when its tick matches the scratch's instance tick.
type visitEntry struct {
	tick  uint32
	owner int32
	flags uint8
}

// group is one MS-BFS search thread: its frontier queue and the cores it has
// expanded so far. Merged groups concatenate both. Groups are pooled on the
// scratch; reset reuses the member slice's capacity.
type group struct {
	q        queue.Q
	members  []int32
	closed   bool // finished a whole connected component
	dead     bool // absorbed into another thread
	root     int  // current starter index whose slot points at this group
	minStart int  // smallest starter index merged into this thread
}

func (g *group) reset(i int) {
	g.members = g.members[:0]
	g.closed, g.dead = false, false
	g.root = i
	g.minStart = i
}

// msScratch is the pooled per-goroutine state of connectivity checks; see
// the header comment for the reuse contract.
type msScratch struct {
	e       *Engine
	tick    uint32
	visited []visitEntry // indexed by arena slot

	groupArr []group   // backing storage for this instance's groups
	slots    []*group  // starter index → owning group (aliased after merges)
	active   []*group  // round-robin worklist
	threads  dsu.Dense // starter-index union-find
	qpool    queue.Pool
	seqQ     queue.Q // sequentialBFS frontier

	// Per-expansion parameters of the prebuilt search callback.
	center  int32
	coreBuf []int32 // un-stamped core neighbors found by the last expansion

	visit func(q int32) bool
	grown int64 // pooled-structure growth events (with qpool: pool misses)
}

func newMSScratch(e *Engine) *msScratch {
	s := &msScratch{e: e}
	// Built once: the callback reads its per-expansion parameters from the
	// scratch so the hot path creates no closures (and so allocates nothing).
	s.visit = func(q int32) bool {
		en := &s.visited[q]
		if en.tick != s.tick {
			*en = visitEntry{tick: s.tick}
		} else if en.flags&visitStamped != 0 {
			return true
		}
		// Stamped — hidden from the rest of the instance — are the expanded
		// vertex itself (visit-on-expansion), exited ex-cores still in the
		// index, and non-core neighbors, which are not part of the traversal.
		// No side effect is recorded for those (see the header contract):
		// their hint and affected state are owned by the capture/fold
		// pipeline and finalize. Cores stay discoverable until expanded.
		if q == s.center || !e.isCoreNow(&e.hot[q]) {
			en.flags |= visitStamped
			return true
		}
		s.coreBuf = append(s.coreBuf, q)
		return true
	}
	return s
}

// begin opens a new instance: size the table to the arena and bump the epoch
// (older entries become stale in O(1)). With reuse=false (the
// WithEpochProbing(false) ablation) the table is cleared instead, paying per
// instance the pass the stamped path avoids.
func (s *msScratch) begin(reuse bool) {
	if n := len(s.e.hot); len(s.visited) < n {
		if cap(s.visited) < n {
			s.grown++
		}
		s.visited = grow(s.visited, n)
	}
	s.tick++
	if !reuse || s.tick == 0 {
		clear(s.visited)
		s.tick = 1
	}
}

func (s *msScratch) owner(q int32) (int, bool) {
	en := s.visited[q]
	if en.tick != s.tick || en.flags&visitOwned == 0 {
		return 0, false
	}
	return int(en.owner), true
}

func (s *msScratch) setOwner(q int32, w int) {
	en := &s.visited[q]
	if en.tick != s.tick {
		*en = visitEntry{tick: s.tick}
	}
	en.owner = int32(w)
	en.flags |= visitOwned
}

// ensureGroups sizes the pooled group storage and slot table for n starters,
// preserving the member-slice capacities accumulated by earlier instances.
func (s *msScratch) ensureGroups(n int) {
	if cap(s.groupArr) < n {
		s.groupArr = append(s.groupArr[:cap(s.groupArr)], make([]group, n-cap(s.groupArr))...)
		s.grown++
	}
	s.groupArr = s.groupArr[:n]
	if cap(s.slots) < n {
		s.slots = make([]*group, n)
		s.grown++
	}
	s.slots = s.slots[:n]
}

// connResult records everything one connectivity check computed — the check
// itself mutates nothing shared. All slices are pooled by reset. Closed
// components are stored flattened, as slots: component i is
// closed[closedOff[i]:closedOff[i+1]], in the canonical strategy-
// independent order (ascending minimum starter index).
type connResult struct {
	ncc      int
	merges   int64 // MS-BFS thread merges
	searches int64 // expansion searches run
	nodes    int64 // index nodes those searches touched

	closed    []int32
	closedOff []int
	closedMin []int // per closed component: minimum starter index (MS-BFS)

	// Canonicalization and forest-query scratch, pooled like the rest.
	ordIdx    []int32
	tmp       []int32
	tmpOff    []int
	roots     []dyncon.Component
	memberIDs []int64 // forest members come back as point ids
}

func (r *connResult) reset() {
	r.ncc, r.merges, r.searches, r.nodes = 0, 0, 0, 0
	r.closed = r.closed[:0]
	r.closedOff = append(r.closedOff[:0], 0)
	r.closedMin = r.closedMin[:0]
	r.roots = r.roots[:0]
}

// components returns how many closed components were recorded. MS-BFS
// records none when the set proves connected (early exit); the sequential
// variant records every component it traverses.
func (r *connResult) components() int { return len(r.closedOff) - 1 }

func (r *connResult) component(i int) []int32 {
	return r.closed[r.closedOff[i]:r.closedOff[i+1]]
}

// closeComponent flattens a finished component's members into the result.
func (r *connResult) closeComponent(members []int32) {
	r.closed = append(r.closed, members...)
	r.closedOff = append(r.closedOff, len(r.closed))
}

// connectivityInto determines how many density-connected components the
// given bonding cores span in the current window's core graph, recording
// results and side effects into res. It reads only state that is frozen
// during CLUSTER, so checks for disjoint components may run concurrently,
// each with its own scratch and result.
//
// When the set is connected (res.ncc == 1 via MS-BFS), the check stops as
// soon as all threads have merged — the early exit that makes the common
// shrink case cheap — and no component is recorded: nothing needs
// relabeling. When a split is detected (some thread exhausts a component),
// the traversal runs to completion and EVERY component is recorded in full.
// The caller then assigns a fresh cluster id to each; no component may keep
// the previous cluster's id, because one old cluster can be severed by
// several independent retro-reachable ex-core components in a single
// stride, and two "survivor" components each keeping the old id would
// silently share it (a bug found by fuzzing; see
// TestMultiCutSplitRegression).
func (e *Engine) connectivityInto(bonding []int32, s *msScratch, res *connResult) {
	res.reset()
	if len(bonding) == 0 {
		return
	}
	if e.connStrategy == ConnDynamic {
		e.forestConnectivityInto(bonding, res)
		return
	}
	s.begin(e.useEpoch)
	if e.useMSBFS {
		e.multiStarterBFS(bonding, s, res)
	} else {
		e.sequentialBFS(bonding, s, res)
	}
}

// applyConnResult folds a check's work counters into the per-stride
// connectivity telemetry. Deliberately NOT model.Stats: the traversal work
// is an implementation cost of the MS-BFS strategy, and engine statistics
// must stay bit-identical when the dyncon forest answers the same query
// with no traversal at all. Must run single-threaded.
func (e *Engine) applyConnResult(res *connResult) {
	e.strideConnSearches += res.searches
	e.strideConnNodes += res.nodes
	e.strideMerges += res.merges
}

// expand runs the read-only expansion search around core center, collecting
// every un-stamped core neighbor into s.coreBuf (valid until the next
// expand on this scratch).
func (e *Engine) expand(center int32, s *msScratch, res *connResult) {
	s.center = center
	s.coreBuf = s.coreBuf[:0]
	res.nodes += e.tree.SearchBallRO(e.pos[center], e.cfg.Eps, s.visit)
	res.searches++
}

// multiStarterBFS is Algorithm 3: one BFS thread per bonding core, run
// round-robin; threads merge when they meet, an emptied queue closes one
// connected component, and the instance stops as soon as a single live
// thread remains.
func (e *Engine) multiStarterBFS(bonding []int32, s *msScratch, res *connResult) {
	n := len(bonding)
	s.ensureGroups(n)
	s.threads.Reset(n)
	s.active = s.active[:0]
	for i, m := range bonding {
		g := &s.groupArr[i]
		g.reset(i)
		g.q.PushPool(&s.qpool, int64(m))
		s.setOwner(m, i)
		s.slots[i] = g
		s.active = append(s.active, g)
	}
	live := n

	// Round-robin over the live threads only; absorbed and closed threads
	// are compacted out of the active list so each round costs O(live), not
	// O(|M⁻|). While no component has closed, a single surviving thread
	// means "connected" and the instance exits early; once any component
	// closed (a split), every thread drains fully so all components are
	// recorded complete.
	for live > 0 {
		if live == 1 && res.ncc == 0 {
			res.ncc = 1
			// Early exit abandons non-empty frontiers; recycle their nodes
			// so the next instance still runs allocation-free.
			for i := range s.groupArr {
				s.groupArr[i].q.Recycle(&s.qpool)
			}
			return
		}
		w := s.active[:0]
		for _, g := range s.active {
			if g.dead || g.closed {
				continue
			}
			w = append(w, g)
			if g.q.Empty() {
				// This thread exhausted a whole connected component.
				g.closed = true
				live--
				res.closeComponent(g.members)
				res.closedMin = append(res.closedMin, g.minStart)
				res.ncc++
				continue
			}
			cur := int32(g.q.PopPool(&s.qpool))
			g.members = append(g.members, cur)
			e.expand(cur, s, res)
			for _, q := range s.coreBuf {
				j, seen := s.owner(q)
				if !seen {
					s.setOwner(q, g.root)
					g.q.PushPool(&s.qpool, int64(q))
					continue
				}
				other := s.slots[s.threads.Find(j)]
				if other == g {
					continue // already ours
				}
				// Two searches met: merge the other thread into this one
				// (Algorithm 3 line 11). Group identity, not starter index,
				// decides "ours": after a union the dense-DSU root may be
				// either starter, so the winning root's slot is re-pointed
				// at g and recorded as g's root.
				s.threads.Union(g.root, j)
				res.merges++
				g.q.Concat(&other.q)
				g.members = append(g.members, other.members...)
				other.members = other.members[:0]
				other.dead = true
				if other.minStart < g.minStart {
					g.minStart = other.minStart
				}
				g.root = s.threads.Find(g.root)
				s.slots[g.root] = g
				live--
			}
		}
		s.active = w
	}
	canonicalizeComponents(res)
}

// canonicalizeComponents reorders the closed components into the canonical
// strategy-independent order: ascending minimum starter index (closedMin).
// MS-BFS closes components in an emergent order — whichever thread drains
// first — which depends on traversal geometry; the other strategies produce
// the canonical order natively, and split relabeling assigns fresh cluster
// ids per component in recorded order, so the order is observable and must
// match. All scratch is pooled on the result; the common already-sorted
// case costs one scan.
func canonicalizeComponents(res *connResult) {
	n := res.components()
	if n <= 1 {
		return
	}
	sorted := true
	for i := 1; i < n; i++ {
		if res.closedMin[i] < res.closedMin[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	res.ordIdx = res.ordIdx[:0]
	for i := 0; i < n; i++ {
		res.ordIdx = append(res.ordIdx, int32(i))
	}
	// Insertion sort: component counts are small and a closure-based sort
	// would allocate on this otherwise allocation-free path.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && res.closedMin[res.ordIdx[j]] < res.closedMin[res.ordIdx[j-1]]; j-- {
			res.ordIdx[j], res.ordIdx[j-1] = res.ordIdx[j-1], res.ordIdx[j]
		}
	}
	res.tmp = res.tmp[:0]
	res.tmpOff = append(res.tmpOff[:0], 0)
	for _, k := range res.ordIdx {
		res.tmp = append(res.tmp, res.component(int(k))...)
		res.tmpOff = append(res.tmpOff, len(res.tmp))
	}
	// Swap the buffers so both stay pooled; closedMin is stale afterwards
	// but is only consumed by this ordering pass.
	res.closed, res.tmp = res.tmp, res.closed
	res.closedOff, res.tmpOff = res.tmpOff, res.closedOff
}

// sequentialBFS is the ablation fallback: classic one-source BFS repeated
// from each not-yet-covered bonding core. Every component is traversed to
// completion and recorded (the caller relabels only when more than one
// component exists).
func (e *Engine) sequentialBFS(bonding []int32, s *msScratch, res *connResult) {
	for idx, m := range bonding {
		if _, seen := s.owner(m); seen {
			continue
		}
		s.seqQ.PushPool(&s.qpool, int64(m))
		s.setOwner(m, idx)
		for !s.seqQ.Empty() {
			cur := int32(s.seqQ.PopPool(&s.qpool))
			res.closed = append(res.closed, cur)
			e.expand(cur, s, res)
			for _, q := range s.coreBuf {
				if _, seen := s.owner(q); !seen {
					s.setOwner(q, idx)
					s.seqQ.PushPool(&s.qpool, int64(q))
				}
			}
		}
		res.closedOff = append(res.closedOff, len(res.closed))
		res.ncc++
	}
}
