package core

import "disc/internal/model"

// This file hands out each stride's assignment delta. §V's label maintenance
// never stores a resolved cluster id: a core carries a raw cid that resolves
// through the cid forest, a border carries the id of one core neighbour (its
// hint) and inherits that core's cluster. A merger or a split therefore
// re-homes arbitrarily many points by touching a handful of fields — and a
// consumer that wants to track assignments in O(Δ) has to keep the same two
// indirections (inside the engine the hint is a slot; on the way out it is the
// hint core's id). Delta reports exactly the fields that moved, in that raw form:
// the stride's affected set as finalize left it, plus the cid unions the
// stride performed. Resolving a RawAssignment the way assignmentOf does (cores
// through the unions seen so far, borders through their hint core) reproduces
// Snapshot bit for bit; TestDeltaReproducesSnapshot pins it.

// CIDUnion records one merge in the cluster-id forest: every raw cid that
// resolved to From resolves to Into afterwards. Both were roots when the
// union was made.
type CIDUnion struct{ Into, From int }

// RawAssignment is one point's assignment in the engine's own indirect form.
type RawAssignment struct {
	ID int64
	// Label is Core, Border or Noise — or Deleted for a point that left the
	// window this stride.
	Label model.Label
	// Ref is the raw cluster id of a core (resolve it through the unions) and
	// the id of the hint core of a border; 0 otherwise.
	Ref int64
}

// Delta is what one stride changed. It is valid until the next Advance.
type Delta struct {
	// Full means Points visits every resident point and everything derived
	// from earlier deltas, unions included, is void: the engine is fresh or
	// restored, the stride compacted the cid forest (every compactInterval-th
	// does, rewriting all raw cids), or an earlier stride's delta was never
	// read. Unions is empty then — the visited cids are all roots.
	Full bool
	// Unions are the stride's merges, in the order they were made. Apply
	// them before the points: a raw cid among those may be one a union
	// absorbed.
	Unions []CIDUnion

	eng *Engine
}

// Delta returns the assignment delta of the last completed Advance (a Full
// one before the first).
func (e *Engine) Delta() Delta {
	e.deltaUnread = false
	if e.deltaFull {
		return Delta{Full: true, eng: e}
	}
	return Delta{Unions: e.strideUnions, eng: e}
}

// Points calls visit for every point whose label, raw cid or hint may have
// changed, each exactly once, in no particular order: O(|affected|) unless
// Full. A point not visited kept all three — though the cluster it resolves
// to may still have changed, through a union or through its hint core's new
// cid.
func (d Delta) Points(visit func(RawAssignment)) {
	e := d.eng
	if d.Full {
		for s := range e.hot {
			if s := int32(s); e.resident(s) {
				visit(e.rawOf(s))
			}
		}
		return
	}
	for _, s := range e.affected {
		if e.resident(s) {
			visit(e.rawOf(s))
		} else {
			// A departure: its slot is free but not yet reused, so the id is
			// still there to report.
			visit(RawAssignment{ID: e.ids[s], Label: model.Deleted})
		}
	}
}

// rawOf is assignmentOf without the resolution step.
func (e *Engine) rawOf(s int32) RawAssignment {
	id := e.ids[s]
	switch e.hot[s].label {
	case model.Core:
		return RawAssignment{ID: id, Label: model.Core, Ref: int64(e.cid[s])}
	case model.Border:
		if h := e.borderAnchor(s); h != noSlot {
			return RawAssignment{ID: id, Label: model.Border, Ref: e.ids[h]}
		}
	}
	return RawAssignment{ID: id, Label: model.Noise}
}
