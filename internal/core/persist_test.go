package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"disc/internal/dbscan"
	"disc/internal/metrics"
	"disc/internal/model"
	"disc/internal/window"
	"disc/internal/wire"
)

// TestSnapshotRoundTrip: save mid-stream, restore, and verify the restored
// engine produces exactly the same clustering as the original both
// immediately and after further strides.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := clustered2D(rng, 1200)
	cfg := cfg2(2.5, 5)
	steps, err := window.Steps(data, 400, 40)
	if err != nil {
		t.Fatal(err)
	}
	orig := New(cfg)
	half := len(steps) / 2
	for _, st := range steps[:half] {
		orig.Advance(st.In, st.Out)
	}

	var buf bytes.Buffer
	if err := orig.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Immediate state must match point for point.
	a, b := orig.Snapshot(), restored.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("restored %d points, want %d", len(b), len(a))
	}
	for id, aa := range a {
		if b[id] != aa {
			t.Fatalf("point %d: restored %+v, original %+v", id, b[id], aa)
		}
	}
	if restored.Stats() != orig.Stats() {
		t.Errorf("stats not restored: %+v vs %+v", restored.Stats(), orig.Stats())
	}

	// Both engines must stay exact DBSCAN replicas over further strides.
	for i, st := range steps[half:] {
		orig.Advance(st.In, st.Out)
		restored.Advance(st.In, st.Out)
		want := dbscan.Run(st.Window, cfg)
		if err := metrics.SameClustering(restored.Snapshot(), want, st.Window, cfg); err != nil {
			t.Fatalf("restored engine diverged at post-restore step %d: %v", i, err)
		}
		if err := metrics.SameClustering(orig.Snapshot(), want, st.Window, cfg); err != nil {
			t.Fatalf("original engine diverged at post-restore step %d: %v", i, err)
		}
	}
}

func TestSnapshotEventHandlerReattach(t *testing.T) {
	eng := New(cfg2(1.1, 3))
	eng.Advance(clustered2D(rand.New(rand.NewSource(79)), 100), nil)
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fired := false
	restored, err := LoadEngine(&buf, WithEventHandler(func(Event) { fired = true }))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh dense blob must fire an emergence on the restored engine.
	blob := clustered2D(rand.New(rand.NewSource(80)), 50)
	for i := range blob {
		blob[i].ID += 10_000
	}
	restored.Advance(blob, nil)
	if !fired {
		t.Fatal("re-attached event handler never fired")
	}
}

func TestLoadEngineRejectsGarbage(t *testing.T) {
	if _, err := LoadEngine(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadEngine(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSnapshotEmptyEngine(t *testing.T) {
	eng := New(cfg2(1, 2))
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.WindowSize() != 0 {
		t.Fatal("empty engine restored with points")
	}
	// And it must be usable.
	restored.Advance(clustered2D(rand.New(rand.NewSource(81)), 100), nil)
	if restored.WindowSize() != 100 {
		t.Fatal("restored empty engine unusable")
	}
}

// TestSaveSnapshotLeavesEngineUntouched: SaveSnapshot is a read path. The
// original implementation called compactCIDs, rewriting every stored
// cluster id and resetting the union-find forest — a hidden write that
// contradicted the read-only contract of the query methods. The save must
// leave every observable piece of engine state identical: per-point
// bookkeeping, union-find resolution of every id, id allocator, stride
// counter, stats.
// engineImage renders every piece of engine state a read could disturb: the
// arena slabs, the free list, the id table, the cid forest (fmt prints maps in
// key order, so a path compression shows), and the counters.
func engineImage(e *Engine) string {
	return fmt.Sprintf("%v|%v|%v|%v|%v|%v|%v|%d|%d|%+v",
		e.hot, e.pos, e.cid, e.ids, e.free, e.slotOf, e.cids, e.nextCID, e.stride, e.stats)
}

func TestSaveSnapshotLeavesEngineUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	data := clustered2D(rng, 1200)
	steps, err := window.Steps(data, 400, 40)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cfg2(2.5, 5))
	for _, st := range steps {
		eng.Advance(st.In, st.Out)
	}

	before := engineImage(eng)
	if cl, _ := eng.Clusters(); len(cl) == 0 {
		t.Fatal("workload produced no clusters; test would be vacuous")
	}
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if after := engineImage(eng); after != before {
		t.Fatalf("SaveSnapshot mutated the engine:\nbefore: %s\nafter:  %s", before, after)
	}

	// Determinism bonus of the side-effect-free path: saving twice from
	// the same state yields byte-identical snapshots.
	var buf2 bytes.Buffer
	if err := eng.SaveSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two saves of the same state differ byte-wise")
	}

	// And the saved snapshot still restores to an equivalent engine.
	restored, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Snapshot(), eng.Snapshot()) {
		t.Fatal("snapshot saved without compaction restores differently")
	}
}

// TestSnapshotOmitsScratch: the CLUSTER capture buffers, MS-BFS scratches
// and queue pools are runtime-only — growing them between two saves of the
// same engine must not change the persisted state in any field.
func TestSnapshotOmitsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	data := clustered2D(rng, 1200)
	steps, err := window.Steps(data, 400, 40)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cfg2(2.5, 5), WithWorkers(8))
	for _, st := range steps {
		eng.Advance(st.In, st.Out)
	}
	decode := func(buf *bytes.Buffer) *persistedEngine {
		ps, err := decodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	var before bytes.Buffer
	if err := eng.SaveSnapshot(&before); err != nil {
		t.Fatal(err)
	}

	// Grow every scratch structure hard: extra worker scratches, repeated
	// connectivity checks over all surviving cores. None of this touches
	// logical engine state.
	var bonding []int32
	for s := range eng.hot {
		if st := &eng.hot[s]; st.wasCore && eng.isCoreNow(st) {
			bonding = append(bonding, int32(s))
		}
	}
	if len(bonding) < 2 {
		t.Fatal("workload produced too few surviving cores to exercise scratch")
	}
	eng.ensureScratches(4)
	var res connResult
	for i := 0; i < 3; i++ {
		for _, s := range eng.scratches {
			eng.connectivityInto(bonding, s, &res)
		}
	}

	var after bytes.Buffer
	if err := eng.SaveSnapshot(&after); err != nil {
		t.Fatal(err)
	}
	a, b := decode(&before), decode(&after)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scratch growth changed the snapshot:\nbefore: %+v\nafter:  %+v", a, b)
	}
}

// TestSettingsAreNotCheckpointState: how an engine was built is not in its
// snapshot. Engines built under every combination of the settings a
// snapshot used to carry (MS-BFS, epoch probing, workers, connectivity
// strategy) write the same bytes; LoadEngine with no options yields the
// default engine — also from an older snapshot that still carries the
// settings — and with options yields exactly those; and however it was
// restored, the engine's state, statistics and next 50 strides are
// bit-identical to the default restore's.
func TestSettingsAreNotCheckpointState(t *testing.T) {
	rng := rand.New(rand.NewSource(415))
	const win, stride, before, after = 300, 30, 10, 50
	steps, err := window.Steps(clustered2D(rng, win+stride*(before+after)), win, stride)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfg2(2.5, 5)

	type settings struct {
		msbfs, epoch bool
		workers      int
		conn         ConnStrategy
	}
	var combos []settings
	for _, msbfs := range []bool{true, false} {
		for _, epoch := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				for _, conn := range []ConnStrategy{ConnMSBFS, ConnDynamic} {
					combos = append(combos, settings{msbfs, epoch, workers, conn})
				}
			}
		}
	}
	options := func(s settings) []Option {
		return []Option{WithMSBFS(s.msbfs), WithEpochProbing(s.epoch), WithWorkers(s.workers), WithConnectivity(s.conn)}
	}
	check := func(t *testing.T, e *Engine, want settings) {
		t.Helper()
		got := settings{e.useMSBFS, e.useEpoch, e.workers, e.connStrategy}
		if got != want {
			t.Fatalf("restored engine runs %+v, want %+v", got, want)
		}
		if hasForest := e.forest != nil; hasForest != (want.conn == ConnDynamic) {
			t.Fatalf("forest present = %v under %v", hasForest, want.conn)
		}
	}
	defaults := settings{msbfs: true, epoch: true, workers: 1, conn: ConnMSBFS}

	var snap []byte
	for _, from := range combos {
		eng := New(cfg, options(from)...)
		for _, st := range steps[:1+before] {
			eng.Advance(st.In, st.Out)
		}
		var buf bytes.Buffer
		if err := eng.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			snap = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), snap) {
			t.Fatalf("an engine built with %+v writes a different snapshot than one built with %+v", from, combos[0])
		}
	}
	// A snapshot from before the fields became decode-only still carries
	// them; they are not read.
	old, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	old.UseMSBFS, old.UseEpoch, old.Workers, old.ConnStrategy, old.IndexKind = false, false, 64, uint8(ConnDynamic), 1
	var oldBuf bytes.Buffer
	if err := gob.NewEncoder(&oldBuf).Encode(old); err != nil {
		t.Fatal(err)
	}
	fromOld, err := LoadEngine(&oldBuf)
	if err != nil {
		t.Fatal(err)
	}
	check(t, fromOld, defaults)

	for _, to := range combos {
		t.Run(fmt.Sprintf("%+v", to), func(t *testing.T) {
			var refEvents, gotEvents []string
			ref, err := LoadEngine(bytes.NewReader(snap), recordEvents(&refEvents))
			if err != nil {
				t.Fatal(err)
			}
			check(t, ref, defaults)
			got, err := LoadEngine(bytes.NewReader(snap), append(options(to), recordEvents(&gotEvents))...)
			if err != nil {
				t.Fatal(err)
			}
			check(t, got, to)
			compareEngines(t, ref, got, refEvents, gotEvents, before, to.workers)
			for i, st := range steps[1+before:] {
				ref.Advance(st.In, st.Out)
				got.Advance(st.In, st.Out)
				compareEngines(t, ref, got, refEvents, gotEvents, 1+before+i, to.workers)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// gobSnapshot writes e the way SaveSnapshot did before the columnar layout:
// the bytes the hashes in testdata/pre_arena.golden were taken over, and the
// source of legacy inputs for the decoder's tests.
func gobSnapshot(t testing.TB, e *Engine) []byte {
	t.Helper()
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
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotEngine is a small engine a few strides into a clustered stream: all
// three labels, hints on borders and cores, two clusters.
func snapshotEngine(t testing.TB) *Engine {
	t.Helper()
	steps, err := window.Steps(clustered2D(rand.New(rand.NewSource(83)), 90), 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cfg2(2.5, 5))
	for _, st := range steps {
		eng.Advance(st.In, st.Out)
	}
	return eng
}

func saveBytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadAndSave loads a snapshot and writes the loaded engine back out.
func loadAndSave(snap []byte) ([]byte, error) {
	e, err := LoadEngine(bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = e.SaveSnapshot(&buf)
	return buf.Bytes(), err
}

// TestSnapshotGenerations: a snapshot opens with a byte no gob stream can, the
// gob snapshot of the same engine loads into the same state, and the loaded
// engines — whichever generation they came from — write the columnar bytes the
// original wrote.
func TestSnapshotGenerations(t *testing.T) {
	eng := snapshotEngine(t)
	snap, legacy := saveBytes(t, eng), gobSnapshot(t, eng)
	if snap[0] != snapshotMagic || wire.IsGob(snap) || !wire.IsGob(legacy) {
		t.Fatalf("first bytes %#x (columnar) and %#x (gob) do not tell the generations apart", snap[0], legacy[0])
	}
	var labels [model.Deleted + 1]int
	hints := 0
	for s := range eng.hot {
		labels[eng.hot[s].label]++
		if eng.hot[s].hint != noSlot {
			hints++
		}
	}
	if labels[model.Core] == 0 || labels[model.Border] == 0 || labels[model.Noise] == 0 || hints <= labels[model.Border] {
		t.Fatalf("the engine under test has labels %v and %d hints: not every column is exercised", labels, hints)
	}
	for name, in := range map[string][]byte{"columnar": snap, "gob": legacy} {
		got, err := loadAndSave(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, snap) {
			t.Errorf("%s: the loaded engine writes a different snapshot than the engine it was saved from", name)
		}
	}
	t.Logf("%d points: %d bytes columnar, %d bytes gob", eng.WindowSize(), len(snap), len(legacy))
}

// TestSnapshotFaultSweeps: every strict prefix of a snapshot is an error, and
// every single-bit flip is an error or a different state that passes LoadEngine's
// validation and saves back to exactly the flipped bytes.
func TestSnapshotFaultSweeps(t *testing.T) {
	snap := saveBytes(t, snapshotEngine(t))
	for cut := 0; cut < len(snap); cut++ {
		if _, err := LoadEngine(bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("snapshot cut to %d of %d bytes loaded", cut, len(snap))
		}
	}
	accepted := 0
	for off := range snap {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(snap)
			flipped[off] ^= 1 << bit
			again, err := loadAndSave(flipped)
			if err != nil {
				continue
			}
			accepted++
			if !bytes.Equal(again, flipped) {
				t.Fatalf("flip %d/%d: loaded, but saves back differently", off, bit)
			}
		}
	}
	if accepted == 0 {
		t.Error("no flip was accepted: the sweep never saw a different valid state")
	}
}

// TestLoadEngineValidates: states no finished stride leaves are load errors in
// either generation's form, not engines.
func TestLoadEngineValidates(t *testing.T) {
	eng := snapshotEngine(t)
	bad := map[string]func(e *Engine){
		"transient label":     func(e *Engine) { e.hot[0].label = model.Unclassified },
		"unknown label":       func(e *Engine) { e.hot[0].label = model.Label(6) },
		"NaN coordinate":      func(e *Engine) { e.pos[1][0] = math.NaN() },
		"infinite coordinate": func(e *Engine) { e.pos[1][1] = math.Inf(1) },
		"border without hint": func(e *Engine) {
			for s := range e.hot {
				if e.hot[s].label == model.Border {
					e.hot[s].hint = noSlot
				}
			}
		},
		"duplicate id": func(e *Engine) { e.ids[2] = e.ids[3] },
	}
	for name, mutate := range bad {
		e, err := LoadEngine(bytes.NewReader(saveBytes(t, eng)))
		if err != nil {
			t.Fatal(err)
		}
		mutate(e)
		if _, err := LoadEngine(bytes.NewReader(gobSnapshot(t, e))); err == nil {
			t.Errorf("%s: loaded from gob", name)
		}
		if _, err := LoadEngine(bytes.NewReader(saveBytes(t, e))); err == nil {
			t.Errorf("%s: loaded from the columnar form", name)
		}
	}
}

// FuzzLoadEngine: LoadEngine never panics on arbitrary bytes, an input in the
// columnar form costs no more memory than a constant plus a small multiple of
// its length (a row count of 2³² in forty bytes is an error, not a make), and a
// columnar input that loads is the snapshot the loaded engine writes.
func FuzzLoadEngine(f *testing.F) {
	eng := snapshotEngine(f)
	f.Add(saveBytes(f, eng))
	f.Add(gobSnapshot(f, eng))
	f.Add(saveBytes(f, New(cfg2(1, 1))))
	f.Add([]byte{snapshotMagic, snapshotVersion, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 3, 2, 0, 0, 0, 0, 0, 0, 0,
		0x80, 0x80, 0x80, 0x80, 0x10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		columnar := len(data) > 0 && !wire.IsGob(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		again, err := loadAndSave(data)
		runtime.ReadMemStats(&after)
		// A row is at least 13 bytes and costs a decoded row, its arena slot, an
		// id-table entry and its share of a grid cell — and the same again for
		// the save; an empty engine is a few tens of kilobytes.
		if grew := after.TotalAlloc - before.TotalAlloc; columnar && grew > 64*uint64(len(data))+(1<<20) {
			t.Fatalf("loading %d bytes allocated %d", len(data), grew)
		}
		if err == nil && columnar && !bytes.Equal(again, data) {
			t.Fatalf("loaded % x, which the loaded engine saves as % x", data, again)
		}
	})
}
