package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"disc/internal/dbscan"
	"disc/internal/metrics"
	"disc/internal/window"
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
	decode := func(buf *bytes.Buffer) persistedEngine {
		var ps persistedEngine
		if err := gob.NewDecoder(buf).Decode(&ps); err != nil {
			t.Fatal(err)
		}
		sort.Slice(ps.Points, func(i, j int) bool { return ps.Points[i].ID < ps.Points[j].ID })
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
	var old persistedEngine
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&old); err != nil {
		t.Fatal(err)
	}
	old.UseMSBFS, old.UseEpoch, old.Workers, old.ConnStrategy, old.IndexKind = false, false, 64, uint8(ConnDynamic), 1
	var oldBuf bytes.Buffer
	if err := gob.NewEncoder(&oldBuf).Encode(&old); err != nil {
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
