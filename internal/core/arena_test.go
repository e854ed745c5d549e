package core

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"disc/internal/datasets"
	"disc/internal/dbscan"
	"disc/internal/geom"
	"disc/internal/metrics"
	"disc/internal/model"
	"disc/internal/window"
)

// slabBytes is the memory a slice's backing array holds.
func slabBytes[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// idTableBytes is what one id-table entry costs: a Go map keeps 8-slot groups
// of (int64, int32) pairs padded to 16 bytes plus a control byte each, and
// runs between half and 7/8 full.
const idTableBytes = 28

// footprint is the memory an ε-grid engine retains between strides, summed
// from slab capacities — deterministic, unlike a heap profile. It leaves out
// only the linked queue nodes of the MS-BFS pools (internal/queue keeps them
// private) and the cid forest, neither of which scales with the window.
func (e *Engine) footprint() int {
	b := slabBytes(e.hot) + slabBytes(e.pos) + slabBytes(e.cid) + slabBytes(e.capIdx) +
		slabBytes(e.ids) + slabBytes(e.free) + len(e.slotOf)*idTableBytes
	slab, records, table := e.tree.(*epsGrid).footprint()
	b += slab + records + table
	for _, c := range e.searchCtxs {
		b += slabBytes(c.words)
	}
	b += slabBytes(e.affected) + slabBytes(e.outSlots) + slabBytes(e.inSlots) + slabBytes(e.inPos) +
		slabBytes(e.deltaCaps) + slabBytes(e.exCoresBuf) + slabBytes(e.neoCoresBuf) + slabBytes(e.coutBuf) +
		slabBytes(e.exCaps) + slabBytes(e.neoCaps) + slabBytes(e.exComps) + slabBytes(e.bondBuf) +
		slabBytes(e.connWork) + slabBytes(e.connResults) + slabBytes(e.walkQ) + slabBytes(e.cidScratch) +
		slabBytes(e.strideUnions)
	for _, r := range e.connResults[:cap(e.connResults)] {
		b += slabBytes(r.closed) + slabBytes(r.closedOff) + slabBytes(r.closedMin) + slabBytes(r.ordIdx) +
			slabBytes(r.tmp) + slabBytes(r.tmpOff) + slabBytes(r.roots) + slabBytes(r.memberIDs)
	}
	for _, s := range e.scratches {
		b += slabBytes(s.visited) + slabBytes(s.groupArr) + slabBytes(s.slots) + slabBytes(s.active) + slabBytes(s.coreBuf)
		for i := range s.groupArr[:cap(s.groupArr)] {
			b += slabBytes(s.groupArr[:cap(s.groupArr)][i].members) // by index: a group holds a queue
		}
	}
	return b
}

// TestScratchFollowsChurn pins what the flat scratch layout and its release
// rule are for, on the benchmark's dtg_stride5 shape: the stride that fills
// the 20 000-point window is twenty times an ordinary one, and what an engine
// retains fifty strides later must be a function of the window and of recent
// strides — not of that fill. (Before the arena an engine held ≈ 2.8 kB per
// resident point here, two thirds of it capture buffers at their fill-stride
// high-water mark.) The yardstick is an engine that never saw the fill:
// restored from a snapshot and advanced over the same ten strides.
func TestScratchFollowsChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("a 20 000-point window of 40-neighbour balls")
	}
	cfg := model.Config{Dims: 2, Eps: 0.002, MinPts: 40}
	const win, stride = 20000, 1000
	steps, err := window.Steps(datasets.DTG(win+stride*60, 1).Points, win, stride)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cfg)
	for _, st := range steps[:51] {
		eng.Advance(st.In, st.Out)
	}
	var snap bytes.Buffer
	if err := eng.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEngine(&snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps[51:] {
		eng.Advance(st.In, st.Out)
		restored.Advance(st.In, st.Out)
	}
	live, fresh := eng.footprint()/win, restored.footprint()/win
	t.Logf("retained per resident point: %d B live, %d B restored ten strides ago", live, fresh)
	if live > 700 {
		t.Errorf("engine retains %d B per resident point, want at most 700", live)
	}
	if 2*live > 3*fresh {
		t.Errorf("engine retains %d B per resident point, over 1.5x the %d B of one that never saw the fill stride", live, fresh)
	}
}

// TestSlotReuse walks one slot through its life: a border's hint core departs
// (the border must re-derive its hint before anything can take the slot), an
// arrival in the same cell takes the slot in the next stride, and the departed
// id re-enters later under a different slot. The engine equals DBSCAN and
// passes its own audit after every stride.
func TestSlotReuse(t *testing.T) {
	cfg := cfg2(1, 4)
	at := func(id int64, x, y float64) model.Point { return model.Point{ID: id, Pos: geom.NewVec(x, y)} }
	eng := New(cfg)
	var win []model.Point
	step := func(in, out []model.Point) {
		t.Helper()
		eng.Advance(in, out)
		for _, p := range out {
			win = slices.DeleteFunc(win, func(q model.Point) bool { return q.ID == p.ID })
		}
		win = append(win, in...)
		if err := metrics.SameClustering(eng.Snapshot(), dbscan.Run(win, cfg), win, cfg); err != nil {
			t.Fatal(err)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// 1, 2, 3, 4, 6 are mutual neighbours; 7 is a core beside them, held up by
	// 8; 5 is a border within ε of exactly two cores, 3 and 7.
	pts := map[int64]model.Point{
		1: at(1, 0, 0), 2: at(2, 0.5, 0), 3: at(3, 1, 0), 4: at(4, 0.5, 0.5), 6: at(6, 0.5, -0.5),
		5: at(5, 1.9, 0), 7: at(7, 1.45, 0.6), 8: at(8, 1.6, 1.2),
	}
	var fill []model.Point
	for id := int64(1); id <= 8; id++ {
		fill = append(fill, pts[id])
	}
	step(fill, nil)
	border := eng.slotOf[5]
	if l := eng.hot[border].label; l != model.Border {
		t.Fatalf("point 5 is %v, want a border", l)
	}
	hintSlot := eng.hot[border].hint
	hintID := eng.ids[hintSlot]
	other := int64(3 + 7 - hintID)
	if hintID != 3 && hintID != 7 {
		t.Fatalf("point 5 hints at %d, want 3 or 7", hintID)
	}

	// The hint core departs: the border re-derives its hint in the same
	// stride, and the id is gone although the slot still remembers it.
	step(nil, []model.Point{pts[hintID]})
	if _, ok := eng.Assignment(hintID); ok {
		t.Fatalf("departed point %d still has an assignment", hintID)
	}
	if h := eng.hot[border].hint; h == hintSlot || eng.ids[h] != other {
		t.Fatalf("point 5 hints at slot %d (point %d) after core %d left; want point %d", h, eng.ids[h], hintID, other)
	}
	if eng.resident(hintSlot) || eng.ids[hintSlot] != hintID {
		t.Fatalf("freed slot %d: resident=%v id=%d, want the departed id %d kept for the delta", hintSlot, eng.resident(hintSlot), eng.ids[hintSlot], hintID)
	}

	// An arrival in the same cell takes the slot, most recently freed first.
	step([]model.Point{at(100, pts[hintID].Pos[0], pts[hintID].Pos[1])}, nil)
	if s := eng.slotOf[100]; s != hintSlot {
		t.Fatalf("arrival got slot %d, want the freed slot %d", s, hintSlot)
	}
	if _, ok := eng.Assignment(hintID); ok {
		t.Fatalf("point %d reappeared when its slot was reused", hintID)
	}

	// The departed id re-enters, elsewhere in the arena.
	step([]model.Point{pts[hintID]}, []model.Point{pts[1]})
	if s, ok := eng.slotOf[hintID]; !ok || s == hintSlot {
		t.Fatalf("re-entered point %d: slot %d (present %v), want a slot other than %d", hintID, s, ok, hintSlot)
	}
	step(nil, []model.Point{at(100, 0, 0)})
	step([]model.Point{pts[1]}, []model.Point{pts[8]})
}
