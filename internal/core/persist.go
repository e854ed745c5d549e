package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"disc/internal/geom"
	"disc/internal/model"
)

// This file implements checkpointing: a long-running stream processor can
// persist the engine between strides and resume after a restart without
// replaying the window. The snapshot stores the per-point bookkeeping with
// cluster ids compacted to their union-find representatives; the spatial
// index is not serialized — LoadEngine refills whichever index its options
// select with one bulk load, which is both faster and smaller than
// persisting index pages.

// snapshotVersion guards the wire format.
const snapshotVersion = 1

// persistedPoint is one point's state on the wire. It knows nothing of slots:
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

// persistedEngine is the explicit wire schema. Listing fields by hand (as
// opposed to encoding *Engine) is what keeps runtime-only state — the
// CLUSTER capture buffers, MS-BFS scratches, queue pools, and every other
// per-stride scratch field on Engine — structurally unable to leak into a
// snapshot: a field absent here is never written. TestSnapshotOmitsScratch
// pins this by checking snapshots taken before and after heavy scratch
// growth decode to identical state.
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
// representatives. Points are written in ascending id order, making the
// bytes a pure function of engine state (equal states ⇒ equal snapshots ⇒
// equal checkpoint CRCs).
func (e *Engine) SaveSnapshot(w io.Writer) error {
	ps := persistedEngine{
		Version:   snapshotVersion,
		Cfg:       e.cfg,
		NextCID:   e.nextCID,
		Stride:    e.stride,
		Stats:     e.stats,
		Points:    make([]persistedPoint, 0, len(e.slotOf)),
		HintFlags: true,
	}
	for s := range e.hot {
		st := &e.hot[s]
		if st.label == model.Deleted {
			continue
		}
		cid := e.cid[s]
		if cid != 0 {
			cid = e.cids.FindRO(cid)
		}
		pp := persistedPoint{
			ID: e.ids[s], Pos: e.pos[s], N: st.n, CoreDeg: st.coreDeg,
			CID: cid, Label: st.label, WasCore: st.wasCore,
		}
		if st.hint != noSlot {
			pp.Hint, pp.HasHint = e.ids[st.hint], true
		}
		ps.Points = append(ps.Points, pp)
	}
	sort.Slice(ps.Points, func(i, j int) bool { return ps.Points[i].ID < ps.Points[j].ID })
	if err := gob.NewEncoder(w).Encode(&ps); err != nil {
		return fmt.Errorf("disc: encoding snapshot: %w", err)
	}
	return nil
}

// LoadEngine reconstructs an engine from a snapshot written by SaveSnapshot:
// the engine New(cfg, opts...) would build for the snapshot's configuration,
// holding the snapshot's state. A snapshot carries state only — how the
// engine is built (index, workers, connectivity strategy, handlers) comes
// from opts alone, exactly as it does for New.
func LoadEngine(r io.Reader, opts ...Option) (*Engine, error) {
	var ps persistedEngine
	if err := gob.NewDecoder(r).Decode(&ps); err != nil {
		return nil, fmt.Errorf("disc: decoding snapshot: %w", err)
	}
	if ps.Version != snapshotVersion {
		return nil, fmt.Errorf("disc: snapshot version %d not supported (want %d)", ps.Version, snapshotVersion)
	}
	if err := ps.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("disc: snapshot carries invalid config: %w", err)
	}
	e := New(ps.Cfg, opts...)
	e.nextCID = ps.NextCID
	e.stride = ps.Stride
	e.stats = ps.Stats
	// Slots are handed out in snapshot order — ascending id for anything
	// SaveSnapshot wrote — and the index is loaded in the same order.
	slots := make([]int32, 0, len(ps.Points))
	for _, pp := range ps.Points {
		if _, dup := e.slotOf[pp.ID]; dup {
			return nil, fmt.Errorf("disc: snapshot contains duplicate point id %d", pp.ID)
		}
		if pp.Label == model.Deleted {
			return nil, fmt.Errorf("disc: snapshot point %d carries the transient label %v", pp.ID, pp.Label)
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
