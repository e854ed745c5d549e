// The byte layouts of the two durable formats this package owns — the
// write-ahead-log record and the checkpoint envelope — and the read-only gob
// branch that still decodes what earlier binaries wrote. Both layouts are
// built from internal/wire (uvarints, zig-zag varints, little-endian float64,
// length-prefixed bytes) and open with a magic byte and a version/flags byte:
//
//	wal record   0xD1  flags  start  [client seq ack]  points
//	envelope     0xD2  flags  ingested eventSeq engine  points  dedup table
//	points       n  ids (zig-zag deltas)  times (zig-zag deltas)  n×dims float64
//
// flags holds the format version in its low nibble and the stream's
// dimensionality in bits 4–6; bit 7 of a record's flags says the dedup row
// [client seq ack] follows. The magic bytes are ones no gob stream opens with
// (wire.IsGob), so one log may hold both generations. DESIGN §15 "Log format"
// has the byte-level tables.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"

	"disc/internal/geom"
	"disc/internal/model"
	"disc/internal/wire"
)

const (
	walRecordMagic = 0xD1
	envelopeMagic  = 0xD2
	codecVersion   = 1

	flagDedupRow = 1 << 7 // wal record only: client, seq and ack follow start

	// maxAckBytes bounds a stored 200 body: an ingestResponse is 36 bytes of
	// JSON keys and punctuation, three integers of at most 20 digits and a
	// newline.
	maxAckBytes = 128
)

// codecFlags packs the version and dims into the byte after the magic.
func codecFlags(dims int) byte { return codecVersion | byte(dims)<<4 }

// readCodecFlags checks the version and returns dims and the bits above them.
// (Failf keeps the first error, so a check after a failed read is harmless.)
func readCodecFlags(c *wire.Cursor) (dims int, rest byte) {
	f := c.Byte()
	dims = int(f >> 4 & 0x07)
	switch {
	case f&0x0F != codecVersion:
		c.Failf("format version %d not supported (want %d)", f&0x0F, codecVersion)
	case dims < 1 || dims > geom.MaxDims:
		c.Failf("dims %d out of range [1,%d]", dims, geom.MaxDims)
	}
	return dims, f &^ 0x7F
}

// maxPointBytes is the most one point can take in the points layout.
func maxPointBytes(dims int) int64 { return int64(2*binary.MaxVarintLen64 + 8*dims) }

// appendPoints writes pts as three columns: ids and times as zig-zag deltas
// from the previous row (arrival order makes both nearly sorted), then the
// first dims coordinates of each point.
func appendPoints(b []byte, pts []model.Point, dims int) []byte {
	b = binary.AppendUvarint(b, uint64(len(pts)))
	var prev int64
	for i := range pts {
		b = binary.AppendVarint(b, pts[i].ID-prev)
		prev = pts[i].ID
	}
	prev = 0
	for i := range pts {
		b = binary.AppendVarint(b, pts[i].Time-prev)
		prev = pts[i].Time
	}
	for i := range pts {
		for d := 0; d < dims; d++ {
			b = wire.AppendFloat64(b, pts[i].Pos[d])
		}
	}
	return b
}

func readPoints(c *wire.Cursor, dims int) []model.Point {
	n := c.Count(2 + 8*dims)
	if n == 0 {
		return nil
	}
	pts := make([]model.Point, n)
	var prev int64
	for i := range pts {
		prev += c.Varint()
		pts[i].ID = prev
	}
	prev = 0
	for i := range pts {
		prev += c.Varint()
		pts[i].Time = prev
	}
	for i := range pts {
		for d := 0; d < dims; d++ {
			pts[i].Pos[d] = c.Float64()
		}
	}
	return pts
}

// checkCoords rejects a point whose coordinates are not dims finite values
// followed by zeros — what ingest admits and geom.Vec requires.
func checkCoords(pts []model.Point, dims int) error {
	for i := range pts {
		for d, x := range pts[i].Pos {
			if d < dims && (math.IsNaN(x) || math.IsInf(x, 0)) {
				return fmt.Errorf("point %d (id %d) has non-finite coordinate %v", i, pts[i].ID, x)
			}
			if d >= dims && x != 0 {
				return fmt.Errorf("point %d (id %d) has a coordinate beyond the stream's %d dimensions", i, pts[i].ID, dims)
			}
		}
	}
	return nil
}

// appendWALRecord appends rec's encoding to b. Client, Seq and Resp are the
// record's dedup row and are written only when HasSeq is set — nothing reads
// them otherwise.
func appendWALRecord(b []byte, rec *walRecord, dims int) []byte {
	flags := codecFlags(dims)
	if rec.HasSeq {
		flags |= flagDedupRow
	}
	b = append(b, walRecordMagic, flags)
	b = binary.AppendUvarint(b, rec.Start)
	if rec.HasSeq {
		b = wire.AppendBytes(b, rec.Client)
		b = binary.AppendUvarint(b, rec.Seq)
		b = wire.AppendBytes(b, rec.Resp)
	}
	return appendPoints(b, rec.Points, dims)
}

// decodeWALRecord decodes one record of a dims-dimensional stream, in either
// generation's form, and validates it: a record that comes back is one this
// binary's ingest path could have written.
func decodeWALRecord(b []byte, dims int) (*walRecord, error) {
	rec := new(walRecord)
	if wire.IsGob(b) {
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(rec); err != nil {
			return nil, fmt.Errorf("decoding wal record (gob): %w", err)
		}
	} else {
		c := wire.NewCursor(b)
		c.Magic(walRecordMagic, "a wal record")
		recDims, rest := readCodecFlags(c)
		if recDims != dims {
			c.Failf("record has %d dimensions, the stream %d", recDims, dims)
		}
		rec.HasSeq = rest&flagDedupRow != 0
		rec.Start = c.Uvarint()
		if rec.HasSeq {
			rec.Client = string(c.Bytes())
			rec.Seq = c.Uvarint()
			// Copied: the dedup table keeps the ack long after the record's
			// buffer should be gone.
			rec.Resp = bytes.Clone(c.Bytes())
		}
		rec.Points = readPoints(c, dims)
		if err := c.Finish(); err != nil {
			return nil, fmt.Errorf("decoding wal record: %w", err)
		}
	}
	if len(rec.Client) > maxClientName || len(rec.Resp) > maxAckBytes {
		return nil, fmt.Errorf("decoding wal record: client name of %d bytes or ack of %d bytes exceeds the bounds %d and %d",
			len(rec.Client), len(rec.Resp), maxClientName, maxAckBytes)
	}
	if err := checkCoords(rec.Points, dims); err != nil {
		return nil, fmt.Errorf("decoding wal record: %w", err)
	}
	return rec, nil
}

// appendSeqs writes the dedup table as persist returns it: clients ascending
// by name, each client's sequence numbers ascending and written as deltas.
func appendSeqs(b []byte, pcs []persistedClient) []byte {
	b = binary.AppendUvarint(b, uint64(len(pcs)))
	for _, pc := range pcs {
		b = wire.AppendBytes(b, pc.Client)
		b = binary.AppendUvarint(b, pc.LastUsed)
		b = binary.AppendUvarint(b, uint64(len(pc.Entries)))
		var prev uint64
		for _, e := range pc.Entries {
			b = binary.AppendUvarint(b, e.Seq-prev)
			prev = e.Seq
			b = wire.AppendBytes(b, e.Resp)
		}
	}
	return b
}

func readSeqs(c *wire.Cursor) []persistedClient {
	n := c.Count(3)
	if n > seqClients {
		c.Failf("dedup table lists %d clients, the bound is %d", n, seqClients)
	}
	if n == 0 || c.Err() != nil {
		return nil
	}
	pcs := make([]persistedClient, n)
	for i := range pcs {
		pc := &pcs[i]
		pc.Client = string(c.Bytes())
		pc.LastUsed = c.Uvarint()
		m := c.Count(2)
		if m > seqWindow {
			c.Failf("client %q lists %d sequence numbers, the bound is %d", pc.Client, m, seqWindow)
			return nil
		}
		pc.Entries = make([]seqEntry, m)
		var prev uint64
		for j := range pc.Entries {
			prev += c.Uvarint()
			pc.Entries[j] = seqEntry{Seq: prev, Resp: bytes.Clone(c.Bytes())}
		}
	}
	return pcs
}

// appendEnvelope appends env's encoding to b.
func appendEnvelope(b []byte, env *checkpointEnvelope) []byte {
	b = append(b, envelopeMagic, codecFlags(env.Dims))
	b = binary.AppendUvarint(b, env.Ingested)
	b = binary.AppendUvarint(b, env.EventSeq)
	b = wire.AppendBytes(b, env.Engine)
	b = appendPoints(b, env.Window, env.Dims)
	return appendSeqs(b, env.Seqs)
}

// checkpointMaxBytes bounds one checkpoint of this stream — the generations
// recovery reads — as the widest checkpoint of Window points either
// generation writes: magic, flags, ingested, eventSeq and a full dedup table
// (seqClients names of maxClientName bytes, each with seqWindow acks of
// maxAckBytes, two bytes more in gob), then per point at most gobPointBytes
// (a gob model.Point and engine row, every coordinate of geom.MaxDims), and
// the gob type preambles under 2 KiB. The codec envelope
// is narrower on both counts: a point takes at most 56+16·dims bytes (its
// snapshot row and window entry), the snapshot header 120. So every
// checkpoint a stream writes is one it can recover, and one of an earlier
// binary restores too.
func (s *Server) checkpointMaxBytes() int64 {
	const (
		gobPointBytes = 75 + 18*geom.MaxDims
		entry         = binary.MaxVarintLen64 + (2 + maxAckBytes) + 2                   // seq delta, ack
		client        = (2 + maxClientName) + 2*binary.MaxVarintLen64 + seqWindow*entry // name, lastUsed, count
		header        = 2 + 5*binary.MaxVarintLen64 + seqClients*client                 // and the point and client counts
	)
	return header + 2<<10 + int64(s.cfg.Window)*gobPointBytes
}

// decodeEnvelope decodes a checkpoint in either generation's form. A gob
// envelope does not say how many dimensions its window has; Dims is 0 then.
// The contents are the caller's to validate.
func decodeEnvelope(b []byte) (*checkpointEnvelope, error) {
	env := new(checkpointEnvelope)
	if wire.IsGob(b) {
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(env); err != nil {
			return nil, fmt.Errorf("decoding checkpoint (gob): %w", err)
		}
		return env, nil
	}
	c := wire.NewCursor(b)
	c.Magic(envelopeMagic, "a checkpoint envelope")
	var rest byte
	env.Dims, rest = readCodecFlags(c)
	if rest != 0 {
		c.Failf("unknown flag bits %#x", rest)
	}
	env.Ingested = c.Uvarint()
	env.EventSeq = c.Uvarint()
	env.Engine = c.Bytes()
	env.Window = readPoints(c, env.Dims)
	env.Seqs = readSeqs(c)
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("decoding checkpoint: %w", err)
	}
	return env, nil
}
