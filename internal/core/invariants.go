package core

import (
	"fmt"

	"disc/internal/geom"
	"disc/internal/model"
)

// CheckInvariants validates the engine's maintained state against a
// recomputation from first principles: ε-neighbor counts, core-neighbor
// degrees, label consistency, border hints, and cluster-id connectivity.
// It is O(n·search) and intended for tests and debugging, not production
// paths. A nil return means every invariant holds.
func (e *Engine) CheckInvariants() error {
	minPts := int32(e.cfg.MinPts)
	if got, want := e.tree.Len(), len(e.pts); got != want {
		return fmt.Errorf("index holds %d entries, state holds %d points", got, want)
	}
	for id, st := range e.pts {
		if st.label == model.Deleted || st.label == model.Unclassified {
			return fmt.Errorf("point %d finalized with transient label %v", id, st.label)
		}
		// Recompute nε and coreDeg by brute search.
		var n, coreDeg int32
		hintSeen := false
		e.tree.SearchBall(st.pos, e.cfg.Eps, func(qid int64, _ geom.Vec) bool {
			n++
			if qid == id {
				return true
			}
			q := e.pts[qid]
			if q.n >= minPts {
				coreDeg++
			}
			if qid == st.hint {
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
		// Label consistency with the recomputed counts.
		switch {
		case n >= minPts:
			if st.label != model.Core {
				return fmt.Errorf("point %d: nε=%d >= τ but labeled %v", id, n, st.label)
			}
			if st.cid == 0 {
				return fmt.Errorf("core point %d without cluster id", id)
			}
			if !st.wasCore {
				return fmt.Errorf("core point %d with stale wasCore=false", id)
			}
		case coreDeg > 0:
			if st.label != model.Border {
				return fmt.Errorf("point %d: coreDeg=%d but labeled %v", id, coreDeg, st.label)
			}
			if !st.hasHint {
				return fmt.Errorf("border point %d carries no hint", id)
			}
			h, ok := e.pts[st.hint]
			if !ok {
				return fmt.Errorf("border point %d hints at absent point %d", id, st.hint)
			}
			if h.n < minPts {
				return fmt.Errorf("border point %d hints at non-core %d", id, st.hint)
			}
			if !hintSeen {
				return fmt.Errorf("border point %d hints at out-of-range point %d", id, st.hint)
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
	for id, st := range e.pts {
		if st.label != model.Core {
			continue
		}
		cid := e.cids.Find(st.cid)
		var bad error
		e.tree.SearchBall(st.pos, e.cfg.Eps, func(qid int64, _ geom.Vec) bool {
			if qid == id {
				return true
			}
			q := e.pts[qid]
			if q.n >= minPts && e.cids.Find(q.cid) != cid {
				bad = fmt.Errorf("adjacent cores %d and %d in clusters %d and %d",
					id, qid, cid, e.cids.Find(q.cid))
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
