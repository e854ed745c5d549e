package server

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"disc/internal/geom"
	"disc/internal/obs"
	"disc/internal/wire"
)

// allocated reports how many bytes were allocated while f ran: f's own, and a
// few kilobytes of the fuzz worker's now and then, which the bounds below leave
// room for.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeWALRecord holds the record decoder to its contract on arbitrary
// bytes: it never panics; what it accepts passes the bounds ingest enforces;
// an input in the codec's form costs no more memory than a small multiple of
// its length (a count of 2³² in forty bytes is an error, not a make) and, if
// accepted, is the one encoding of its value.
func FuzzDecodeWALRecord(f *testing.F) {
	rec := codecRecord()
	f.Add(appendWALRecord(nil, rec, 2), uint8(1))
	f.Add(appendWALRecord(nil, rec, 4), uint8(3))
	f.Add(appendWALRecord(nil, &walRecord{Start: 1, Points: rec.Points[:2]}, 1), uint8(0))
	f.Add([]byte{walRecordMagic, codecFlags(1), 0, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
		11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}, uint8(0))
	for _, payload := range gobRecords(f, "pre_codec") {
		f.Add(payload, uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, d uint8) {
		dims := int(d)%geom.MaxDims + 1
		var rec *walRecord
		var err error
		grew := allocated(func() { rec, err = decodeWALRecord(data, dims) })
		if !wire.IsGob(data) && grew > 8*uint64(len(data))+(64<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if rec != nil {
				t.Fatalf("rejected with %v but returned a record", err)
			}
			return
		}
		if len(rec.Client) > maxClientName || len(rec.Resp) > maxAckBytes || checkCoords(rec.Points, dims) != nil {
			t.Fatalf("accepted a record outside ingest's bounds: %+v", rec)
		}
		if !wire.IsGob(data) {
			if again := appendWALRecord(nil, rec, dims); !bytes.Equal(again, data) {
				t.Fatalf("accepted % x, which is not the encoding of its value % x", data, again)
			}
		}
	})
}

// FuzzReadCheckpoint does the same for a whole restore — envelope, window,
// dedup table and the engine snapshot inside — through newStream, the
// constructor recovery builds every restored stream with, and then saves the
// restored stream: a checkpoint in the codec's form that restores is the one
// the restored stream writes.
func FuzzReadCheckpoint(f *testing.F) {
	cfg, ck := codecServer(f)
	f.Add(ck)
	env, err := decodeEnvelope(ck)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gobEnvelope(f, env)) // a gob envelope around a codec snapshot
	f.Add(fixtureIn(f, "pre_codec", "checkpoint.bin"))
	f.Add([]byte{envelopeMagic, codecFlags(2), 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		sm := obs.SingleStreamMetrics(obs.NewRegistry())
		var st *stream
		var rerr error
		grew := allocated(func() { st, rerr = newStream(cfg, sm, data) })
		// A restore builds an engine, an index and a view over the window: a
		// fixed cost, then well under a kilobyte a point — and a point is at
		// least 13 bytes of snapshot and 18 of window.
		if !wire.IsGob(data) && grew > 64*uint64(len(data))+(1<<20) {
			t.Fatalf("restoring %d bytes allocated %d", len(data), grew)
		}
		if rerr != nil {
			if !errors.Is(rerr, errBadCheckpoint) && !errors.Is(rerr, ErrCheckpointMismatch) {
				t.Fatalf("restore failed outside its error contract: %v", rerr)
			}
			return
		}
		if got := len(st.seqs.m); got > seqClients {
			t.Fatalf("restored a dedup table of %d clients", got)
		}
		again, err := st.capture()()
		if err != nil {
			t.Fatal(err)
		}
		if inner, err := decodeEnvelope(data); err == nil && !wire.IsGob(data) && !wire.IsGob(inner.Engine) && !bytes.Equal(again, data) {
			t.Fatalf("restored %d bytes that the restored stream writes back as %d different ones", len(data), len(again))
		}
	})
}
