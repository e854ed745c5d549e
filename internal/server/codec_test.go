package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"disc/internal/ckpt"
	"disc/internal/geom"
	"disc/internal/model"
	"disc/internal/obs"
	"disc/internal/wire"
)

// codecRecord is a record that uses every part of the layout: a dedup row,
// ids that go down as well as up, times behind the previous row's.
func codecRecord() *walRecord {
	rng := rand.New(rand.NewSource(5))
	rec := &walRecord{Start: 1234, Client: "loader-7", Seq: 99, HasSeq: true,
		Resp: []byte("{\"accepted\":12,\"strides\":3,\"window\":200}\n")}
	for i := 0; i < 12; i++ {
		rec.Points = append(rec.Points, model.Point{
			ID:   int64(rng.Intn(1000)) - 500,
			Time: 1_700_000_000 + int64(rng.Intn(50)) - 25,
			Pos:  [4]float64{rng.NormFloat64(), rng.NormFloat64() * 1e6},
		})
	}
	return rec
}

// gobRecords returns the payloads of a fixture's log: records as binaries
// before the codec wrote them.
func gobRecords(t testing.TB, set string) [][]byte {
	t.Helper()
	var out [][]byte
	r := ckpt.OpenWALReader(fixtureLog(t, set), 0, 1<<20)
	defer r.Close()
	for {
		_, payload, err := r.Next()
		if errors.Is(err, ckpt.ErrWALWait) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, payload)
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	full := codecRecord()
	bare := &walRecord{Start: 7, Points: full.Points[:3]} // a partial apply: no dedup row
	seqOnly := &walRecord{Start: 8, Client: "c", Seq: 0, HasSeq: true, Resp: []byte{}}
	for _, rec := range []*walRecord{full, bare, seqOnly} {
		b := appendWALRecord(nil, rec, 2)
		if wire.IsGob(b) {
			t.Fatalf("a codec record opens with %#x, which a gob stream can", b[0])
		}
		got, err := decodeWALRecord(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, rec)
		}
		if _, err := decodeWALRecord(b, 3); err == nil {
			t.Fatal("a two-dimensional record decoded on a three-dimensional stream")
		}
	}
	// What is not the record's to carry is not written: without a sequence
	// number the client name and the ack have no reader.
	unsequenced := *full
	unsequenced.HasSeq = false
	got, err := decodeWALRecord(appendWALRecord(nil, &unsequenced, 2), 2)
	if err != nil || got.Client != "" || got.Resp != nil || got.Seq != 0 || len(got.Points) != len(full.Points) {
		t.Fatalf("unsequenced record decoded to %+v, %v", got, err)
	}
	// Records of the previous generation decode to what their writer held.
	for i, payload := range gobRecords(t, "pre_codec") {
		if !wire.IsGob(payload) {
			t.Fatalf("fixture record %d opens with %#x", i, payload[0])
		}
		var want walRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&want); err != nil {
			t.Fatal(err)
		}
		got, err := decodeWALRecord(payload, 2)
		if err != nil || !reflect.DeepEqual(got, &want) {
			t.Fatalf("fixture record %d decoded to %+v, %v; want %+v", i, got, err, want)
		}
	}
}

// TestWALRecordValidation: what decodes is what ingest could have written, in
// either generation's form.
func TestWALRecordValidation(t *testing.T) {
	bad := map[string]func(*walRecord){
		"NaN coordinate":   func(r *walRecord) { r.Points[3].Pos[1] = math.NaN() },
		"Inf coordinate":   func(r *walRecord) { r.Points[0].Pos[0] = math.Inf(1) },
		"client too long":  func(r *walRecord) { r.Client = strings.Repeat("x", maxClientName+1) },
		"ack too long":     func(r *walRecord) { r.Resp = bytes.Repeat([]byte{'x'}, maxAckBytes+1) },
		"extra coordinate": func(r *walRecord) { r.Points[1].Pos[2] = 1 }, // only gob can carry it
	}
	for name, mutate := range bad {
		rec := codecRecord()
		mutate(rec)
		var g bytes.Buffer
		if err := gob.NewEncoder(&g).Encode(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeWALRecord(g.Bytes(), 2); err == nil {
			t.Errorf("%s: accepted in gob form", name)
		}
		if name == "extra coordinate" {
			continue
		}
		if _, err := decodeWALRecord(appendWALRecord(nil, rec, 2), 2); err == nil {
			t.Errorf("%s: accepted in codec form", name)
		}
	}
}

// codecServer is a small restored-from-nothing stream with two clients in its
// dedup table, and its checkpoint.
func codecServer(t testing.TB) (Config, []byte) {
	t.Helper()
	cfg := Config{Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4}, Window: 40, Stride: 10}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 7; i++ {
		rec := walRecord{Client: []string{"alpha", "beta"}[i%2], Seq: uint64(10 + i), HasSeq: true}
		for _, ip := range clusteredBatch(rng, int64(i)*100, 9) {
			rec.Points = append(rec.Points, model.Point{ID: ip.ID, Time: ip.Time, Pos: [4]float64{ip.Coords[0], ip.Coords[1]}})
		}
		w := httptest.NewRecorder()
		s.mu.Lock()
		s.commitIngest(w, &rec, nil, nil)
		s.mu.Unlock()
		if w.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return cfg, buf.Bytes()
}

// restoreAndSave builds a stream from a checkpoint, with the constructor
// recovery uses, and writes it back.
func restoreAndSave(cfg Config, ck []byte) ([]byte, error) {
	st, err := newStream(cfg, obs.SingleStreamMetrics(obs.NewRegistry()), ck)
	if err != nil {
		return nil, err
	}
	return st.capture()()
}

// TestCodecFaultSweeps is the sweep of internal/ckpt/wal_test.go one layer up,
// under the CRC: every strict prefix of a valid record or checkpoint is an
// error, and every single-bit flip is an error or a different value that still
// passes validation and encodes back to exactly the flipped bytes — a decoder
// never hands back less than its input said.
func TestCodecFaultSweeps(t *testing.T) {
	rec := appendWALRecord(nil, codecRecord(), 2)
	for cut := 0; cut < len(rec); cut++ {
		if got, err := decodeWALRecord(rec[:cut], 2); err == nil {
			t.Fatalf("record cut to %d of %d bytes decoded to %+v", cut, len(rec), got)
		}
	}
	accepted := 0
	for off := range rec {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(rec)
			flipped[off] ^= 1 << bit
			got, err := decodeWALRecord(flipped, 2)
			if err != nil {
				continue
			}
			accepted++
			if again := appendWALRecord(nil, got, 2); !bytes.Equal(again, flipped) {
				t.Fatalf("record flip %d/%d: accepted, but re-encodes differently", off, bit)
			}
		}
	}
	if accepted == 0 {
		t.Error("no record flip was accepted: the sweep never saw a different valid value")
	}

	cfg, ck := codecServer(t)
	if again, err := restoreAndSave(cfg, ck); err != nil || !bytes.Equal(again, ck) {
		t.Fatalf("pristine checkpoint: restore and save gives %d bytes, %v; want the same %d", len(again), err, len(ck))
	}
	for cut := 0; cut < len(ck); cut++ {
		if _, err := restoreAndSave(cfg, ck[:cut]); !errors.Is(err, errBadCheckpoint) {
			t.Fatalf("checkpoint cut to %d of %d bytes: %v, want errBadCheckpoint", cut, len(ck), err)
		}
	}
	accepted = 0
	for off := range ck {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(ck)
			flipped[off] ^= 1 << bit
			again, err := restoreAndSave(cfg, flipped)
			if errors.Is(err, errBadCheckpoint) || errors.Is(err, ErrCheckpointMismatch) {
				continue
			}
			if err != nil {
				t.Fatalf("checkpoint flip %d/%d: %v", off, bit, err)
			}
			accepted++
			if !bytes.Equal(again, flipped) {
				t.Fatalf("checkpoint flip %d/%d: accepted, but saves back differently", off, bit)
			}
		}
	}
	if accepted == 0 {
		t.Error("no checkpoint flip was accepted: the sweep never saw a different valid value")
	}
}

// TestCheckpointRejectsBadDedupTable is the regression for the uploaded
// checkpoint whose dedup table went into the live one unchecked: more clients
// or sequence numbers than the table ever keeps, a name ingest would refuse, a
// client listed twice, sequence numbers the lookup's binary search cannot use.
// Each restored; each is a bad checkpoint now, in the codec's form and in gob.
func TestCheckpointRejectsBadDedupTable(t *testing.T) {
	cfg, ck := codecServer(t)
	entry := func(seq uint64) seqEntry { return seqEntry{Seq: seq, Resp: []byte("{}\n")} }
	bad := map[string]func(*checkpointEnvelope){
		"too many clients": func(env *checkpointEnvelope) {
			env.Seqs = nil
			for i := 0; i <= seqClients; i++ {
				env.Seqs = append(env.Seqs, persistedClient{Client: fmt.Sprintf("c%04d", i), Entries: []seqEntry{entry(1)}})
			}
		},
		"too many sequence numbers": func(env *checkpointEnvelope) {
			env.Seqs[0].Entries = nil
			for i := 0; i <= seqWindow; i++ {
				env.Seqs[0].Entries = append(env.Seqs[0].Entries, entry(uint64(i)))
			}
		},
		"client name too long": func(env *checkpointEnvelope) { env.Seqs[1].Client = strings.Repeat("z", maxClientName+1) },
		"repeated client":      func(env *checkpointEnvelope) { env.Seqs[1].Client = env.Seqs[0].Client },
		"clients out of order": func(env *checkpointEnvelope) { env.Seqs[0], env.Seqs[1] = env.Seqs[1], env.Seqs[0] },
		"unsorted sequence numbers": func(env *checkpointEnvelope) {
			e := env.Seqs[0].Entries
			e[0], e[1] = e[1], e[0]
		},
		"duplicate sequence number": func(env *checkpointEnvelope) { env.Seqs[0].Entries[1].Seq = env.Seqs[0].Entries[0].Seq },
		"oversized ack":             func(env *checkpointEnvelope) { env.Seqs[0].Entries[0].Resp = make([]byte, maxAckBytes+1) },
	}
	for name, mutate := range bad {
		env, err := decodeEnvelope(ck)
		if err != nil {
			t.Fatal(err)
		}
		if len(env.Seqs) != 2 || len(env.Seqs[0].Entries) < 2 {
			t.Fatalf("the donor's dedup table is %+v, want two clients with several entries", env.Seqs)
		}
		mutate(env)
		if _, err := restoreAndSave(cfg, appendEnvelope(nil, env)); !errors.Is(err, errBadCheckpoint) {
			t.Errorf("%s (codec): restored with %v, want errBadCheckpoint", name, err)
		}
		if _, err := restoreAndSave(cfg, gobEnvelope(t, env)); !errors.Is(err, errBadCheckpoint) {
			t.Errorf("%s (gob): restored with %v, want errBadCheckpoint", name, err)
		}
	}
	if _, err := restoreAndSave(cfg, ck); err != nil {
		t.Fatalf("the pristine checkpoint: %v", err)
	}
}

// TestCheckpointBytesReproducible: a checkpoint is a function of the stream's
// state — not of the process that wrote it, of how that process came by the
// state, or of how its engine numbers its slots. The live leader's checkpoint,
// the one a restart over its log writes (in this process and in a new one —
// gob numbered types in order of first use, so that pair differed by a byte),
// a follower's, and the one written after restoring any of them are the same
// bytes.
func TestCheckpointBytesReproducible(t *testing.T) {
	cfg := testWALConfig()
	if dir := os.Getenv("DISC_REPRODUCIBLE_CHILD"); dir != "" {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RecoverWAL(dir, nil); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "child.ckpt"), checkpointBytes(t, s), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	ts, leader, dir := newWALServer(t, cfg)
	ingestScript(t, ts.URL, 31, 11, 37) // 407 points: 5 strides, 7 pending
	want := checkpointBytes(t, leader)

	restarted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restarted.RecoverWAL(dir, nil); err != nil {
		t.Fatal(err)
	}
	if got := checkpointBytes(t, restarted); !bytes.Equal(got, want) {
		t.Error("a leader restarted over its own log writes a different checkpoint")
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointBytesReproducible$")
	cmd.Env = append(os.Environ(), "DISC_REPRODUCIBLE_CHILD="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("restarting in a new process: %v\n%s", err, out)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "child.ckpt")); err != nil || !bytes.Equal(got, want) {
		t.Errorf("a leader restarted in a new process writes a different checkpoint (%v)", err)
	}

	ts.Close() // the leader is gone; its follower drains the log and takes over
	f, err := NewFollower(FollowerConfig{Server: cfg, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := checkpointBytes(t, f.srv); !bytes.Equal(got, want) {
		t.Error("a follower of the log writes a different checkpoint")
	}

	if again, err := restoreAndSave(cfg, want); err != nil || !bytes.Equal(again, want) {
		t.Errorf("save, restore into a fresh server, save: the bytes changed (%v)", err)
	}
}

// TestWALRecordBound: the reader's bound is the layout's widest record for a
// body at the cap. Two bodies exactly at the cap — as many points as fit, and
// points as wide as ids and times can make them — go through ingest, the log
// and recovery intact; the widest record the layout allows fits the bound with
// nothing to spare beyond the gob allowance; and a frame one byte past it is
// corruption to the reader, not a buffer.
func TestWALRecordBound(t *testing.T) {
	setForTest(t, &maxIngestBytes, 4096)
	cfg := Config{Cluster: model.Config{Dims: 1, Eps: 1, MinPts: 2}, Window: 50, Stride: 10}
	dense := func(i int) string { return fmt.Sprintf(`{"id":%d,"coords":[0]}`, i) }
	wide := func(i int) string { // every id and time 2^63 from the one before: ten-byte deltas
		id, tm := int64(i), math.MinInt64+int64(i)
		if i%2 == 1 {
			id, tm = tm, id
		}
		return fmt.Sprintf(`{"id":%d,"time":%d,"coords":[%v]}`, id, tm, float64(i)*math.Pi)
	}
	for name, point := range map[string]func(int) string{"dense": dense, "wide": wide} {
		t.Run(name, func(t *testing.T) {
			ts, live, dir := newWALServer(t, cfg)
			body := []byte("[")
			for i := 0; ; i++ {
				p := point(i)
				if len(body)+len(p)+2 > int(maxIngestBytes) {
					break
				}
				if i > 0 {
					body = append(body, ',')
				}
				body = append(body, p...)
			}
			body = append(body, ']')
			body = append(body, bytes.Repeat([]byte{' '}, int(maxIngestBytes)-len(body))...)
			for i, b := range [][]byte{body, append(bytes.Clone(body), ' ')} {
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(b))
				req.Header.Set("X-Disc-Client", strings.Repeat("n", maxClientName))
				req.Header.Set("X-Disc-Seq", fmt.Sprint(uint64(math.MaxUint64)))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				if want := []int{http.StatusOK, http.StatusRequestEntityTooLarge}[i]; resp.StatusCode != want {
					t.Fatalf("body of %d bytes: status %d, want %d: %s", len(b), resp.StatusCode, want, readBody(t, resp))
				}
				resp.Body.Close()
			}
			r := ckpt.OpenWALReader(dir, 0, live.walRecordMaxPayload())
			_, payload, err := r.Next()
			r.Close()
			if err != nil {
				t.Fatalf("reading the record back under the bound: %v", err)
			}
			t.Logf("%d-byte body -> %d-byte record, bound %d", len(body), 8+len(payload), live.walRecordMaxPayload())
			recovered, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := recovered.RecoverWAL(dir, nil); err != nil || n != 1 {
				t.Fatalf("RecoverWAL = %d, %v; want the one record", n, err)
			}
			if !bytes.Equal(checkpointBytes(t, recovered), checkpointBytes(t, live)) {
				t.Fatal("the batch did not come back from the log as it went in")
			}
		})
	}

	// A larger cap for the rest, so that a frame at the bound dwarfs whatever
	// else the process allocates meanwhile.
	maxIngestBytes = 1 << 20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bound := s.walRecordMaxPayload()
	widest := &walRecord{Start: math.MaxUint64, Client: strings.Repeat("n", maxClientName), Seq: math.MaxUint64, HasSeq: true,
		Resp: make([]byte, maxAckBytes), Points: make([]model.Point, maxIngestBytes/int64(minPointJSON))}
	for i := 0; i < len(widest.Points); i += 2 {
		widest.Points[i].ID, widest.Points[i].Time = math.MinInt64, math.MinInt64
	}
	const slack = 400 + binary.MaxVarintLen64 // the gob allowance, and a count that is not ten bytes long
	if got := int64(8 + len(appendWALRecord(nil, widest, 1))); got > bound || got < bound-slack {
		t.Fatalf("the widest record frames to %d bytes, the bound is %d", got, bound)
	}

	for _, over := range []int64{0, 1} {
		dir := t.TempDir()
		w, err := ckpt.OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(0, make([]byte, bound-8+over)); err != nil {
			t.Fatal(err)
		}
		w.Close()
		grew := int64(allocated(func() {
			r := ckpt.OpenWALReader(dir, 0, bound)
			_, err = s.replay(r, s.st.applyRecord)
			r.Close()
		}))
		if !errors.Is(err, ckpt.ErrWALCorrupt) {
			t.Fatalf("a frame %d bytes past the bound: %v, want ErrWALCorrupt", over, err)
		}
		// At the bound the frame is read (and then fails to decode); past it
		// the reader refuses on the header alone.
		if (over == 1) != (grew < bound) {
			t.Fatalf("a frame %d bytes past the bound: replay allocated %d bytes (bound %d)", over, grew, bound)
		}
	}
}

// TestCheckpointBound: a stream's checkpoint bound is its envelope at the
// widest for its window and dims. The widest envelope of either generation —
// ten-byte ids, times and counters, every coordinate, every hint, a full
// dedup table — fits it with little to spare; the checkpoints earlier binaries
// recorded restore from a store under it; a generation one byte past it is
// refused; and a stream restarted over its own checkpoints keeps its state.
func TestCheckpointBound(t *testing.T) {
	wideVec := func(i int) (v geom.Vec) { // full eight-byte mantissas, gob cannot shorten them
		for d := range v {
			v[d] = math.Float64frombits(math.Float64bits(math.Pi) + uint64(i*geom.MaxDims+d))
		}
		return v
	}
	seqs := make([]persistedClient, seqClients)
	for i := range seqs {
		seqs[i] = persistedClient{Client: fmt.Sprintf("%0*d", maxClientName, i), LastUsed: math.MaxUint64}
		for j := uint64(1); j <= seqWindow; j++ {
			seqs[i].Entries = append(seqs[i].Entries, seqEntry{Seq: j << 58, Resp: make([]byte, maxAckBytes)})
		}
	}
	for _, dims := range []int{1, 4} {
		cfg := Config{Cluster: model.Config{Dims: dims, Eps: 1, MinPts: 2}, Window: 4096, Stride: 64}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bound := s.checkpointMaxBytes()
		// The widest engine snapshot: a 120-byte header (every integer ten
		// bytes), then per row a ten-byte id and cid, the coordinates, two
		// five-byte counts, a five-byte hint and the state byte.
		widestSnapshot := 120 + cfg.Window*(36+8*dims)
		env := checkpointEnvelope{Dims: dims, Engine: make([]byte, widestSnapshot),
			Window: make([]model.Point, cfg.Window), Ingested: math.MaxUint64, EventSeq: math.MaxUint64, Seqs: seqs}
		snap := settingsEraSnapshot{Version: math.MinInt, Cfg: model.Config{Dims: math.MinInt, Eps: math.Pi, MinPts: math.MinInt},
			UseMSBFS: true, UseEpoch: true, Workers: math.MinInt, ConnStrategy: math.MaxUint8, NextCID: math.MinInt,
			Stride: math.MaxUint64, HintFlags: true}
		snap.Stats = model.Stats{RangeSearches: math.MinInt64, NodeAccesses: math.MinInt64, Strides: math.MinInt64,
			Splits: math.MinInt64, Merges: math.MinInt64, MemoryItems: math.MinInt64}
		snap.Points = make([]struct {
			ID         int64
			Pos        geom.Vec
			N, CoreDeg int32
			CID        int
			Hint       int64
			Label      model.Label
			WasCore    bool
			HasHint    bool
		}, cfg.Window)
		for i := range env.Window {
			// Every id and time 2^63 from the one before: ten-byte deltas.
			p := &env.Window[i]
			p.ID, p.Time, p.Pos = int64(i), math.MinInt64+int64(i), wideVec(i)
			if i%2 == 1 {
				p.ID, p.Time = p.Time, p.ID
			}
			r := &snap.Points[i]
			r.ID, r.Pos, r.N, r.CoreDeg, r.CID, r.Hint = math.MinInt64+int64(i), wideVec(i), math.MaxInt32, math.MaxInt32, math.MinInt, math.MinInt64
			r.Label, r.WasCore, r.HasHint = math.MaxUint8, true, true
		}
		codec := int64(len(appendEnvelope(nil, &env)))
		var engBuf bytes.Buffer
		if err := gob.NewEncoder(&engBuf).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		env.Engine = engBuf.Bytes()
		for i := range env.Window { // gob writes each id and time whole, not as a delta
			env.Window[i].ID, env.Window[i].Time = math.MinInt64, math.MinInt64
		}
		gobLen := int64(len(gobEnvelope(t, &env)))
		t.Logf("dims %d: widest envelope %d bytes, widest gob envelope %d, bound %d", dims, codec, gobLen, bound)
		if widest := max(codec, gobLen); widest > bound || widest < bound-3<<10 { // 3 KiB: what the preambles leave of their allowance, and counts narrower than ten bytes
			t.Errorf("dims %d: the widest envelope is %d bytes (gob %d), the bound %d", dims, codec, gobLen, bound)
		}
	}

	cfg := fixtureConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bound := s.checkpointMaxBytes()
	if _, err := restoreServer(t, cfg, make([]byte, bound)); !errors.Is(err, errBadCheckpoint) {
		t.Fatalf("a garbage generation at the bound restored with %v, want errBadCheckpoint (read, then refused as garbage)", err)
	}
	if _, err := restoreServer(t, cfg, make([]byte, bound+1)); !errors.Is(err, ckpt.ErrTooLarge) {
		t.Fatalf("a generation one byte past the bound restored with %v, want ckpt.ErrTooLarge", err)
	}
	for _, set := range []string{"pre_pr13", "pre_codec"} {
		payload := fixtureIn(t, set, "checkpoint.bin")
		recovered := mustRestore(t, cfg, payload)
		direct, err := restoreAndSave(cfg, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(checkpointBytes(t, recovered), direct) {
			t.Fatalf("%s: the stream recovered from a store differs from the one built from its bytes", set)
		}
	}

	store, err := s.openStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, over := range []int64{0, 1} {
		gen, err := store.Save(make([]byte, bound+over))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load(gen); (over == 1) != errors.Is(err, ckpt.ErrTooLarge) {
			t.Fatalf("a generation %d bytes past the bound: %v", over, err)
		}
	}

	// The scenario a fixed cap lost: checkpoint, restart, and the strides
	// are still there — from the generation, the log it covers cut away.
	mcfg := MultiConfig{Default: cfg, WALDir: t.TempDir()}
	m, err := NewMulti(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	mts := httptest.NewServer(m.Handler())
	postPoints(t, mts, clusteredBatch(rand.New(rand.NewSource(41)), 0, 500)).Body.Close()
	mts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.RunCheckpoints(ctx) // the shutdown generation
	cutLogToNewestGeneration(t, mcfg.WALDir, cfg)
	m2, err := NewMulti(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Stream(DefaultStream).Strides(); got != 7 {
		t.Fatalf("restarted over its own checkpoint, the stream serves %d strides, want 7", got)
	}
}

// TestCheckpointBoundSmallerWindow: a stream re-created over its checkpoints
// with a window too small to have written them refuses to start — POST
// /streams answers 400 naming the bound — instead of starting fresh and
// letting its next checkpoints prune the window away. The generations stay,
// and the stream re-created with its own window recovers from them: the log
// they cover is cut before the restarts, so a replay cannot stand in.
func TestCheckpointBoundSmallerWindow(t *testing.T) {
	dir := t.TempDir()
	mcfg := MultiConfig{Default: fixtureConfig(), WALDir: dir}
	m, err := NewMulti(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	big := streamSpec{Name: "big", Window: 40000, Stride: 40000}
	mustCreateStream(t, ts, big)
	rng := rand.New(rand.NewSource(43))
	pts := make([]ingestPoint, big.Window)
	for i := range pts { // spread out, so the fill is cheap
		pts[i] = ingestPoint{ID: int64(i), Time: int64(i), Coords: []float64{1000 * rng.Float64(), 1000 * rng.Float64()}}
	}
	if resp := postStreamPoints(t, ts, big.Name, pts); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.RunCheckpoints(ctx) // the shutdown generations
	genDir := m.streamDir(big.Name)
	bigCfg := fixtureConfig()
	bigCfg.Window, bigCfg.Stride = big.Window, big.Stride
	cutLogToNewestGeneration(t, genDir, bigCfg)
	before := generationFiles(t, genDir)
	if len(before) == 0 {
		t.Fatal("no generations written")
	}

	m2, err := NewMulti(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(m2.Handler())
	defer ts2.Close()
	small := streamSpec{Name: big.Name, Window: 1000, Stride: 100}
	resp := createStream(t, ts2, small)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "larger than a window of 1000 points") {
		t.Fatalf("re-created with a smaller window: status %d: %s", resp.StatusCode, body)
	}
	cfg := fixtureConfig()
	cfg.Window, cfg.Stride = small.Window, small.Stride
	if _, err := m2.CreateStream(big.Name, cfg); !errors.Is(err, ckpt.ErrTooLarge) {
		t.Fatalf("re-created with a smaller window: %v, want ckpt.ErrTooLarge", err)
	}
	if after := generationFiles(t, genDir); len(after) != len(before) {
		t.Fatalf("generations %d before the refused restart, %d after", len(before), len(after))
	}
	if info := mustCreateStream(t, ts2, big); info.Strides != 1 || info.Resident != big.Window {
		t.Fatalf("re-created with its own window: %d strides, %d resident, want 1 and %d", info.Strides, info.Resident, big.Window)
	}
}
