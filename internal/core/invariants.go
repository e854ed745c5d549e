package core

import (
	"fmt"

	"disc/internal/model"
)

// CheckInvariants validates the engine's maintained state against a
// recomputation from first principles: the arena's bookkeeping, ε-neighbor
// counts, core-neighbor degrees, label consistency, border hints, and
// cluster-id connectivity. It is O(n·search), so a check between strides,
// not on them. It writes nothing — searches go through SearchBallRO, cluster
// ids resolve through FindRO — so it may run beside Assignment, Snapshot and
// SaveSnapshot callers; and it walks slots in order, so the failure it
// reports for a given state is always the same one. A nil return means every
// invariant holds.
func (e *Engine) CheckInvariants() error {
	minPts := int32(e.cfg.MinPts)
	resident := 0
	for s := range e.hot {
		if !e.resident(int32(s)) {
			continue
		}
		resident++
		if got, ok := e.slotOf[e.ids[s]]; !ok || got != int32(s) {
			return fmt.Errorf("point %d lives in slot %d, the id table says %d (present: %v)", e.ids[s], s, got, ok)
		}
	}
	if resident != len(e.slotOf) {
		return fmt.Errorf("%d resident slots, id table holds %d points", resident, len(e.slotOf))
	}
	if resident+len(e.free) != len(e.hot) {
		return fmt.Errorf("%d resident + %d free slots, arena holds %d", resident, len(e.free), len(e.hot))
	}
	if got := e.tree.Len(); got != resident {
		return fmt.Errorf("index holds %d entries, state holds %d points", got, resident)
	}
	for s := range e.hot {
		s, st := int32(s), &e.hot[s]
		if st.label == model.Deleted {
			continue
		}
		id := e.ids[s]
		if st.label == model.Unclassified {
			return fmt.Errorf("point %d finalized with transient label %v", id, st.label)
		}
		if st.marks != 0 {
			return fmt.Errorf("point %d keeps stride marks %#x", id, st.marks)
		}
		// Recompute nε and coreDeg by brute search.
		var n, coreDeg int32
		hintSeen := false
		e.tree.SearchBallRO(e.pos[s], e.cfg.Eps, func(q int32) bool {
			n++
			if q == s {
				return true
			}
			if e.hot[q].n >= minPts {
				coreDeg++
			}
			if q == st.hint {
				hintSeen = true
			}
			return true
		})
		if st.n != n {
			return fmt.Errorf("point %d: maintained nε=%d, actual %d", id, st.n, n)
		}
		if st.coreDeg != coreDeg {
			return fmt.Errorf("point %d: maintained coreDeg=%d, actual %d", id, st.coreDeg, coreDeg)
		}
		// A hint slot never outlives its core: whatever the point's label, a
		// stored hint names a resident core inside the ball. (A slot is
		// reused only after every hint at it has been cleared; were one left
		// behind it would silently name the slot's next occupant.)
		if h := st.hint; h != noSlot {
			switch {
			case !e.resident(h):
				return fmt.Errorf("point %d hints at absent point %d", id, e.ids[h])
			case e.hot[h].n < minPts:
				return fmt.Errorf("point %d hints at non-core %d", id, e.ids[h])
			case !hintSeen:
				return fmt.Errorf("point %d hints at out-of-range point %d", id, e.ids[h])
			}
		}
		// Label consistency with the recomputed counts.
		switch {
		case n >= minPts:
			if st.label != model.Core {
				return fmt.Errorf("point %d: nε=%d >= τ but labeled %v", id, n, st.label)
			}
			if e.cid[s] == 0 {
				return fmt.Errorf("core point %d without cluster id", id)
			}
			if !st.wasCore {
				return fmt.Errorf("core point %d with stale wasCore=false", id)
			}
		case coreDeg > 0:
			if st.label != model.Border {
				return fmt.Errorf("point %d: coreDeg=%d but labeled %v", id, coreDeg, st.label)
			}
			if st.hint == noSlot {
				return fmt.Errorf("border point %d carries no hint", id)
			}
			if st.wasCore {
				return fmt.Errorf("border point %d with stale wasCore=true", id)
			}
		default:
			if st.label != model.Noise {
				return fmt.Errorf("point %d: isolated but labeled %v", id, st.label)
			}
			if st.wasCore {
				return fmt.Errorf("noise point %d with stale wasCore=true", id)
			}
		}
	}
	// Cluster-id soundness: ε-adjacent cores must share a resolved id, and
	// non-adjacent clusters must not leak ids across components. The first
	// half suffices: together with the transitivity of resolution it implies
	// each cluster is a union of components; the equivalence tests against
	// DBSCAN cover the rest.
	for s := range e.hot {
		s := int32(s)
		if e.hot[s].label != model.Core {
			continue
		}
		cid := e.cids.FindRO(e.cid[s])
		var bad error
		e.tree.SearchBallRO(e.pos[s], e.cfg.Eps, func(q int32) bool {
			if qcid := e.cids.FindRO(e.cid[q]); q != s && e.hot[q].n >= minPts && qcid != cid {
				bad = fmt.Errorf("adjacent cores %d and %d in clusters %d and %d", e.ids[s], e.ids[q], cid, qcid)
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}
