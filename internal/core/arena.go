package core

import (
	"fmt"
	"slices"

	"disc/internal/geom"
	"disc/internal/model"
)

// This file holds the engine's point storage: a slot arena. Every resident
// point (and, until its slot is reused, every point that departed in the
// last stride) owns one int32 slot, and its state lives in flat slabs indexed
// by that slot. Slots are the only currency inside the engine — the index
// stores them, searches report them, every stride list carries them — and a
// point's id is consulted only at the edges: Δin/Δout resolution in phase 1
// of COLLECT, Assignment(id), LoadEngine, and whatever leaves the engine
// (snapshots, deltas, censuses). DESIGN §11 has the layout, its cost per
// point, and the three arguments the scheme rests on.

// noSlot is the "no point" slot value (an absent border hint).
const noSlot int32 = -1

// MaxPoints is the most points an engine can hold resident, and so the
// largest window a stream can run: search captures pack a slot and its tag
// bits into one 32-bit word (cluster.go).
const MaxPoints = 1 << 27

// hotState is the part of a point's state the search callbacks and the fold
// loops touch for every neighbour: 16 bytes, so a neighbour costs one cache
// line and four records share it.
type hotState struct {
	n       int32       // nε: neighbors within ε, the point itself included
	coreDeg int32       // current core points within ε, itself excluded
	hint    int32       // slot of one core ε-neighbor justifying Border status; noSlot if none
	label   model.Label // finalized label as of the last completed stride
	wasCore bool        // was a core at the end of the previous stride
	marks   uint8       // stride-scoped mark bits below; finalize clears them
}

// Stride-scoped marks. Every marked point is in the affected set (arrivals
// and affected points by construction) or in the component being assembled
// (bonded), so the walk that consumes the set also clears the bit: no
// per-stride clearing pass, and no stamp to compare.
const (
	markAffected uint8 = 1 << iota // member of the stride's affected set
	markEntered                    // member of Δin
	markBonded                     // already collected into the current component's M⁻
)

// arena is the slab set. All slabs have one entry per slot and grow together
// (phase 1 of COLLECT, single-threaded); nothing in them is a pointer, so the
// collector never scans them.
type arena struct {
	hot    []hotState
	pos    []geom.Vec
	cid    []int   // raw cluster id for cores; resolve through Engine.cids
	capIdx []int32 // this stride's ex-/neo-core: index of its CLUSTER capture
	ids    []int64 // the way out: slot -> point id
	free   []int32 // recycled slots, reused LIFO

	slotOf idTable
}

// idTable is the one id -> slot table. Any int64 is a legal id, so it is a
// hash table; it is read on the edges named above and nowhere else.
type idTable map[int64]int32

// alloc returns a slot for an arriving point: the most recently freed one,
// or a new one at the end of every slab.
func (a *arena) alloc() int32 {
	if k := len(a.free); k > 0 {
		s := a.free[k-1]
		a.free = a.free[:k-1]
		return s
	}
	s := len(a.hot)
	if s == MaxPoints {
		panic(fmt.Sprintf("disc: more than %d points resident", MaxPoints))
	}
	a.hot = append(a.hot, hotState{})
	a.pos = append(a.pos, geom.Vec{})
	a.cid = append(a.cid, 0)
	a.capIdx = append(a.capIdx, 0)
	a.ids = append(a.ids, 0)
	return int32(s)
}

// reserve makes room for n more points in every slab at once, for the one
// caller that knows how many are coming (LoadEngine).
func (a *arena) reserve(n int) {
	a.hot = slices.Grow(a.hot, n)
	a.pos = slices.Grow(a.pos, n)
	a.cid = slices.Grow(a.cid, n)
	a.capIdx = slices.Grow(a.capIdx, n)
	a.ids = slices.Grow(a.ids, n)
	a.slotOf = make(idTable, n)
}

// resident reports whether slot s holds a point of the current window. A
// freed slot keeps its Deleted label (and its id) until an arrival reuses it.
func (a *arena) resident(s int32) bool { return a.hot[s].label != model.Deleted }
