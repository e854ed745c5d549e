package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"

	"disc/internal/geom"
	"disc/internal/model"
	"disc/internal/wire"
)

// This file implements checkpointing: a long-running stream processor can
// persist the engine between strides and resume after a restart without
// replaying the window. The snapshot stores the per-point bookkeeping with
// cluster ids compacted to their union-find representatives; the spatial
// index is not serialized — LoadEngine refills whichever index its options
// select with one bulk load, which is both faster and smaller than
// persisting index pages.

// A snapshot is columns over the resident points in ascending id order, built
// from internal/wire (DESIGN §9 has the byte-level table):
//
//	0xD3 version  dims eps minPts  nextCID stride stats×6  n
//	ids (first zig-zag, then uvarint gaps ≥ 1)  n×dims float64
//	nε  coreDeg  state bytes (label | wasCore<<3 | hasHint<<4)  cids
//	one row index per point that has a hint
//
// Snapshots written before this layout are gob streams of persistedEngine,
// which no magic byte can open (wire.IsGob). Only the decoder still knows gob.
const (
	snapshotMagic = 0xD3
	// snapshotVersion guards the wire format, in both generations.
	snapshotVersion = 1

	stateLabelMask = 0x07
	stateWasCore   = 1 << 3
	stateHasHint   = 1 << 4
)

// persistedPoint is one point's decoded state. It knows nothing of slots:
// a hint is the hint core's id, and stride-scoped marks are dropped (they are
// meaningless across restarts).
type persistedPoint struct {
	ID      int64
	Pos     geom.Vec
	N       int32
	CoreDeg int32
	CID     int
	Hint    int64
	Label   model.Label
	WasCore bool
	// HasHint says Hint names a point. Snapshots written before the flag
	// existed (persistedEngine.HintFlags false) marked "no hint" as id -1.
	HasHint bool
}

// legacyNoHint is how snapshots without hint flags spelled "no hint".
const legacyNoHint = int64(-1)

// persistedEngine is what either generation of snapshot decodes into, and the
// gob generation's wire schema. SaveSnapshot writes the fields it names by hand,
// which is what keeps runtime-only state — the CLUSTER capture buffers, MS-BFS
// scratches, queue pools, and every other per-stride scratch field on Engine —
// structurally unable to leak into a snapshot. TestSnapshotOmitsScratch pins
// this by checking snapshots taken before and after heavy scratch growth decode
// to identical state.
type persistedEngine struct {
	Version int
	Cfg     model.Config
	NextCID int
	Stride  uint64
	Stats   model.Stats
	Points  []persistedPoint

	// HintFlags marks a snapshot whose points carry HasHint.
	HintFlags bool

	// Earlier snapshots recorded how their engine had been built: the
	// ablation switches, the index choice, the worker count and the
	// connectivity strategy. An engine's configuration is what its
	// constructor was given (LoadEngine's options) and nothing else; the
	// fields remain so those snapshots decode, and are neither read nor
	// written.
	UseMSBFS     bool
	UseEpoch     bool
	IndexKind    uint8
	GridSide     float64
	Workers      int
	ConnStrategy uint8
}

// SaveSnapshot writes the engine's full state to w. It must not be called
// concurrently with Advance, but it performs no writes of its own — not
// even hidden ones: cluster ids are compacted into the wire form through
// the non-compressing FindRO, leaving the in-memory union-find forest and
// the arena untouched (TestSaveSnapshotLeavesEngineUntouched pins
// this), so saving may run concurrently with queries. The union-find
// forest need not be serialized because the persisted ids are already
// representatives. Points are written in ascending id order and a hint as its
// core's row, so the bytes are a pure function of engine state — not of slot
// numbering, options or history (equal states ⇒ equal snapshots ⇒ equal
// checkpoint bytes).
func (e *Engine) SaveSnapshot(w io.Writer) error {
	rows := make([]int32, 0, len(e.slotOf)) // row -> slot
	for s := range e.hot {
		if e.resident(int32(s)) {
			rows = append(rows, int32(s))
		}
	}
	slices.SortFunc(rows, func(a, b int32) int { return cmp.Compare(e.ids[a], e.ids[b]) })
	rowOf := make([]int32, len(e.hot)) // slot -> row
	for i, s := range rows {
		rowOf[s] = int32(i)
	}

	dims := e.cfg.Dims
	b := make([]byte, 0, 128+len(rows)*(8*dims+10))
	b = append(b, snapshotMagic, snapshotVersion)
	b = binary.AppendUvarint(b, uint64(dims))
	b = wire.AppendFloat64(b, e.cfg.Eps)
	b = binary.AppendUvarint(b, uint64(e.cfg.MinPts))
	b = binary.AppendVarint(b, int64(e.nextCID))
	b = binary.AppendUvarint(b, e.stride)
	for _, v := range statsFields(&e.stats) {
		b = binary.AppendVarint(b, *v)
	}
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for i, s := range rows {
		if i == 0 {
			b = binary.AppendVarint(b, e.ids[s])
		} else {
			b = binary.AppendUvarint(b, uint64(e.ids[s])-uint64(e.ids[rows[i-1]]))
		}
	}
	for _, s := range rows {
		for d := 0; d < dims; d++ {
			b = wire.AppendFloat64(b, e.pos[s][d])
		}
	}
	for _, s := range rows {
		b = binary.AppendUvarint(b, uint64(e.hot[s].n))
	}
	for _, s := range rows {
		b = binary.AppendUvarint(b, uint64(e.hot[s].coreDeg))
	}
	for _, s := range rows {
		st := &e.hot[s]
		state := byte(st.label)
		if st.wasCore {
			state |= stateWasCore
		}
		if st.hint != noSlot {
			state |= stateHasHint
		}
		b = append(b, state)
	}
	for _, s := range rows {
		cid := e.cid[s]
		if cid != 0 {
			cid = e.cids.FindRO(cid)
		}
		b = binary.AppendVarint(b, int64(cid))
	}
	for _, s := range rows {
		if h := e.hot[s].hint; h != noSlot {
			b = binary.AppendUvarint(b, uint64(rowOf[h]))
		}
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("disc: writing snapshot: %w", err)
	}
	return nil
}

// statsFields lists the counters of s in wire order.
func statsFields(s *model.Stats) [6]*int64 {
	return [6]*int64{&s.RangeSearches, &s.NodeAccesses, &s.Strides, &s.Splits, &s.Merges, &s.MemoryItems}
}

// readInt32 reads a non-negative integer that fits an int32.
func readInt32(c *wire.Cursor) int {
	v := c.Uvarint()
	if v > math.MaxInt32 {
		c.Failf("integer %d overflows int32", v)
		return 0
	}
	return int(v)
}

// decodeSnapshot reads the columnar layout into the form both generations
// share. Whatever it accepts re-encodes to the same bytes once LoadEngine has
// validated it: ids ascend by construction, every integer is in its shortest
// form, and no bit is left undefined.
func decodeSnapshot(b []byte) (*persistedEngine, error) {
	c := wire.NewCursor(b)
	c.Magic(snapshotMagic, "an engine snapshot")
	ps := &persistedEngine{Version: int(c.Byte()), HintFlags: true}
	ps.Cfg.Dims = readInt32(c)
	dims := ps.Cfg.Dims
	if dims < 1 || dims > geom.MaxDims {
		c.Failf("dims %d out of range [1,%d]", dims, geom.MaxDims)
	}
	ps.Cfg.Eps = c.Float64()
	ps.Cfg.MinPts = readInt32(c)
	ps.NextCID = int(c.Varint())
	ps.Stride = c.Uvarint()
	for _, v := range statsFields(&ps.Stats) {
		*v = c.Varint()
	}
	// A row is at least an id, dims coordinates, nε, coreDeg, a state byte
	// and a cid.
	pts := make([]persistedPoint, c.Count(5+8*dims))
	for i := range pts {
		if i == 0 {
			pts[i].ID = c.Varint()
			continue
		}
		prev := pts[i-1].ID
		pts[i].ID = int64(uint64(prev) + c.Uvarint())
		if pts[i].ID <= prev {
			c.Failf("row %d: ids do not ascend", i)
		}
	}
	for i := range pts {
		for d := 0; d < dims; d++ {
			pts[i].Pos[d] = c.Float64()
		}
	}
	for i := range pts {
		pts[i].N = int32(readInt32(c))
	}
	for i := range pts {
		pts[i].CoreDeg = int32(readInt32(c))
	}
	for i := range pts {
		state := c.Byte()
		if state&^(stateLabelMask|stateWasCore|stateHasHint) != 0 {
			c.Failf("row %d: unknown state bits %#x", i, state)
		}
		pts[i].Label = model.Label(state & stateLabelMask)
		pts[i].WasCore = state&stateWasCore != 0
		pts[i].HasHint = state&stateHasHint != 0
	}
	for i := range pts {
		pts[i].CID = int(c.Varint())
	}
	for i := range pts {
		if !pts[i].HasHint {
			continue
		}
		row := c.Uvarint()
		if row >= uint64(len(pts)) {
			c.Failf("row %d: hint names row %d of %d", i, row, len(pts))
			break
		}
		pts[i].Hint = pts[row].ID
	}
	ps.Points = pts
	if err := c.Finish(); err != nil {
		return nil, err
	}
	return ps, nil
}

// LoadEngine reconstructs an engine from a snapshot written by SaveSnapshot:
// the engine New(cfg, opts...) would build for the snapshot's configuration,
// holding the snapshot's state. A snapshot carries state only — how the
// engine is built (index, workers, connectivity strategy, handlers) comes
// from opts alone, exactly as it does for New. Snapshots of either generation
// load, and get the same validation.
func LoadEngine(r io.Reader, opts ...Option) (*Engine, error) {
	b, err := wire.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("disc: reading snapshot: %w", err)
	}
	var ps *persistedEngine
	if wire.IsGob(b) {
		ps = new(persistedEngine)
		err = gob.NewDecoder(bytes.NewReader(b)).Decode(ps)
	} else {
		ps, err = decodeSnapshot(b)
	}
	if err != nil {
		return nil, fmt.Errorf("disc: decoding snapshot: %w", err)
	}
	if ps.Version != snapshotVersion {
		return nil, fmt.Errorf("disc: snapshot version %d not supported (want %d)", ps.Version, snapshotVersion)
	}
	if err := ps.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("disc: snapshot carries invalid config: %w", err)
	}
	if len(ps.Points) > MaxPoints {
		return nil, fmt.Errorf("disc: snapshot holds %d points, more than the %d an engine can", len(ps.Points), MaxPoints)
	}
	e := New(ps.Cfg, opts...)
	e.nextCID = ps.NextCID
	e.stride = ps.Stride
	e.stats = ps.Stats
	// Slots are handed out in snapshot order — ascending id for anything
	// SaveSnapshot wrote — and the index is loaded in the same order.
	e.reserve(len(ps.Points))
	slots := make([]int32, 0, len(ps.Points))
	for _, pp := range ps.Points {
		if _, dup := e.slotOf[pp.ID]; dup {
			return nil, fmt.Errorf("disc: snapshot contains duplicate point id %d", pp.ID)
		}
		if pp.Label != model.Core && pp.Label != model.Border && pp.Label != model.Noise {
			return nil, fmt.Errorf("disc: snapshot point %d carries the label %v, which no finished stride leaves", pp.ID, pp.Label)
		}
		if pp.N < 0 || pp.CoreDeg < 0 {
			return nil, fmt.Errorf("disc: snapshot point %d carries negative neighbour counts (%d, %d)", pp.ID, pp.N, pp.CoreDeg)
		}
		for d, x := range pp.Pos {
			if math.IsNaN(x) || math.IsInf(x, 0) || (d >= ps.Cfg.Dims && x != 0) {
				return nil, fmt.Errorf("disc: snapshot point %d has coordinate %d = %v", pp.ID, d, x)
			}
		}
		s := e.alloc()
		e.hot[s] = hotState{n: pp.N, coreDeg: pp.CoreDeg, hint: noSlot, label: pp.Label, wasCore: pp.WasCore}
		e.pos[s], e.cid[s], e.ids[s] = pp.Pos, pp.CID, pp.ID
		e.slotOf[pp.ID] = s
		slots = append(slots, s)
	}
	// Hints arrive as ids and become slots. Border hints are dereferenced on
	// every query; validate them now so a corrupt or hand-edited snapshot
	// surfaces as a load error instead of a degraded (self-healed) assignment
	// at some later query. Any other point's hint is advisory — nothing reads
	// it before a stride rewrites it — so one naming an absent point is dropped.
	for i, pp := range ps.Points {
		hasHint := pp.HasHint
		if !ps.HintFlags {
			hasHint = pp.Hint != legacyNoHint
		}
		h, ok := e.slotOf[pp.Hint]
		switch {
		case hasHint && ok:
			e.hot[slots[i]].hint = h
		case pp.Label != model.Border:
		case !hasHint:
			return nil, fmt.Errorf("disc: snapshot border point %d carries no hint", pp.ID)
		default:
			return nil, fmt.Errorf("disc: snapshot border point %d hints at absent point %d", pp.ID, pp.Hint)
		}
	}
	e.tree.BulkLoad(slots, e.pos)
	if e.connStrategy == ConnDynamic {
		// The forest is never serialized; rebuild it from the restored
		// window so the first Advance finds it in sync.
		e.rebuildForest()
	}
	return e, nil
}
