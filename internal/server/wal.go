// Write-ahead logging, idempotent ingest, and replay: the server-side
// half of the exactly-once pipeline. Every acknowledged ingest batch is
// encoded as one WAL record — the batch's points, its stream position,
// and (when the client sent X-Disc-Seq) the sequence number plus the
// exact 200 body that acknowledged it — and fsynced before the response
// leaves the mutex. Replay pushes the same points through a fresh slider
// and engine, so stride boundaries, cluster labels, events, and the
// dedup window all recompute deterministically: a follower (or a
// restarted leader) converges to bit-identical state.
//
// Records are batch-grained rather than stride-grained so that a batch
// straddling a stride boundary is never half-durable: marking its
// sequence number applied while its pending tail points were not yet
// logged would make the dedup window swallow the client's retry and
// lose the tail forever. The per-stride guarantee the WAL exists for
// still holds — a stride only completes inside some acknowledged batch,
// and every acknowledged batch is durable before its 200.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"sort"

	"disc/internal/ckpt"
	"disc/internal/model"
)

// The dedup window: how many recent sequence numbers (with their original
// responses) are remembered per client, and how many clients are tracked
// before the least recently used is evicted.
const (
	seqWindow  = 32
	seqClients = 256
)

// walRecord is the payload of one WAL record: one acknowledged ingest
// batch. Start is the stream position (points applied since the stream
// began) before the batch; Points is the entire batch in arrival order;
// Resp is the exact 200 body the batch was acknowledged with, replayed
// verbatim when a deduplicated retry arrives. codec.go has its byte layout.
type walRecord struct {
	Start  uint64
	Client string
	Seq    uint64
	HasSeq bool
	Points []model.Point
	Resp   []byte
}

// end is the stream position after the record's batch.
func (r *walRecord) end() uint64 { return r.Start + uint64(len(r.Points)) }

// seqEntry is one remembered (sequence number, original response) pair.
type seqEntry struct {
	Seq  uint64
	Resp []byte
}

// clientSeqs is one client's bounded dedup window: entries ascending by
// sequence number, LastUsed the stream position of the client's newest
// acknowledged batch (the deterministic eviction key).
type clientSeqs struct {
	LastUsed uint64
	Entries  []seqEntry
}

// persistedClient is the checkpoint wire form of one client's window.
// Persisted sorted by client name so checkpoint bytes are deterministic.
type persistedClient struct {
	Client   string
	LastUsed uint64
	Entries  []seqEntry
}

// seqTable is the per-client dedup state. All methods require the
// server mutex (or exclusive access).
type seqTable struct {
	window  int // sequence numbers remembered per client
	clients int // clients tracked before deterministic eviction
	m       map[string]*clientSeqs
}

func newSeqTable(window, clients int) *seqTable {
	return &seqTable{window: window, clients: clients, m: make(map[string]*clientSeqs)}
}

// lookup classifies a sequence number: hit (already applied — replay
// resp), tooOld (below the remembered window, so dedup can no longer be
// proven), or neither (new — apply it).
func (t *seqTable) lookup(client string, seq uint64) (resp []byte, hit, tooOld bool) {
	cs := t.m[client]
	if cs == nil || len(cs.Entries) == 0 {
		return nil, false, false
	}
	i := sort.Search(len(cs.Entries), func(i int) bool { return cs.Entries[i].Seq >= seq })
	if i < len(cs.Entries) && cs.Entries[i].Seq == seq {
		return cs.Entries[i].Resp, true, false
	}
	if seq < cs.Entries[0].Seq {
		return nil, false, true
	}
	return nil, false, false
}

// record remembers an acknowledged (seq, resp) for client, trimming the
// window to its bound and evicting the least-recently-used client at the
// client cap. lastUsed is the stream position after the batch (recordSeq
// takes it from the record on the live path and on replay alike), which is
// what makes eviction order (and therefore checkpoint bytes) deterministic
// across leader, restarted leader, and follower.
func (t *seqTable) record(client string, seq uint64, resp []byte, lastUsed uint64) {
	cs := t.m[client]
	if cs == nil {
		if len(t.m) >= t.clients {
			t.evictOldest()
		}
		cs = &clientSeqs{}
		t.m[client] = cs
	}
	if lastUsed > cs.LastUsed {
		cs.LastUsed = lastUsed
	}
	i := sort.Search(len(cs.Entries), func(i int) bool { return cs.Entries[i].Seq >= seq })
	if i < len(cs.Entries) && cs.Entries[i].Seq == seq {
		return // already remembered (replay over a checkpointed entry)
	}
	cs.Entries = append(cs.Entries, seqEntry{})
	copy(cs.Entries[i+1:], cs.Entries[i:])
	cs.Entries[i] = seqEntry{Seq: seq, Resp: resp}
	if n := len(cs.Entries) - t.window; n > 0 {
		cs.Entries = append(cs.Entries[:0], cs.Entries[n:]...)
	}
}

// evictOldest drops the client with the smallest LastUsed (ties broken
// by name, keeping eviction deterministic).
func (t *seqTable) evictOldest() {
	var victim string
	var vLast uint64
	first := true
	for name, cs := range t.m {
		if first || cs.LastUsed < vLast || (cs.LastUsed == vLast && name < victim) {
			victim, vLast, first = name, cs.LastUsed, false
		}
	}
	if !first {
		delete(t.m, victim)
	}
}

// persist flattens the table sorted by client name — the deterministic
// form the checkpoint envelope carries.
func (t *seqTable) persist() []persistedClient {
	if len(t.m) == 0 {
		return nil
	}
	out := make([]persistedClient, 0, len(t.m))
	for name, cs := range t.m {
		out = append(out, persistedClient{
			Client:   name,
			LastUsed: cs.LastUsed,
			Entries:  append([]seqEntry(nil), cs.Entries...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// checkSeqs holds a checkpoint's dedup table to the bounds the live table keeps
// (DESIGN §15) and to the order lookup's binary search relies on: at most
// seqClients clients, strictly ascending by name (so none repeats), names
// within maxClientName; at most seqWindow strictly ascending sequence numbers
// apiece, each with an ack no ingest could have exceeded.
func checkSeqs(pcs []persistedClient) error {
	if len(pcs) > seqClients {
		return fmt.Errorf("dedup table lists %d clients, the bound is %d", len(pcs), seqClients)
	}
	for i, pc := range pcs {
		switch {
		case len(pc.Client) > maxClientName:
			return fmt.Errorf("dedup table: client name of %d bytes, the bound is %d", len(pc.Client), maxClientName)
		case i > 0 && pc.Client <= pcs[i-1].Client:
			return fmt.Errorf("dedup table: client %q repeats or is out of order", pc.Client)
		case len(pc.Entries) > seqWindow:
			return fmt.Errorf("dedup table: client %q lists %d sequence numbers, the bound is %d", pc.Client, len(pc.Entries), seqWindow)
		}
		for j, e := range pc.Entries {
			if j > 0 && e.Seq <= pc.Entries[j-1].Seq {
				return fmt.Errorf("dedup table: client %q: sequence number %d repeats or is out of order", pc.Client, e.Seq)
			}
			if len(e.Resp) > maxAckBytes {
				return fmt.Errorf("dedup table: client %q: ack of %d bytes, the bound is %d", pc.Client, len(e.Resp), maxAckBytes)
			}
		}
	}
	return nil
}

// restore replaces the table's contents from a checkpoint that passed
// checkSeqs.
func (t *seqTable) restore(pcs []persistedClient) {
	t.m = make(map[string]*clientSeqs, len(pcs))
	for _, pc := range pcs {
		t.m[pc.Client] = &clientSeqs{
			LastUsed: pc.LastUsed,
			Entries:  append([]seqEntry(nil), pc.Entries...),
		}
	}
}

// AttachWAL attaches a write-ahead log to the ingest path: every
// acknowledged batch is appended and fsynced before its response.
// Callers attach after any recovery replay (RecoverWAL), so the log is
// positioned at the stream's durable tail.
func (s *Server) AttachWAL(w *ckpt.WAL) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = w
	s.walBroken = false
}

// walAppend encodes and durably appends one record, marking the stream
// broken on failure: acknowledging later batches after a lost record
// would leave replicas silently divergent, so a failed append turns the
// stream read-only (ingest answers 503) until the operator intervenes.
// Caller holds s.mu.
func (s *Server) walAppend(rec *walRecord) error {
	if s.wal == nil {
		return nil
	}
	s.walBuf = appendWALRecord(s.walBuf[:0], rec, s.cfg.Cluster.Dims)
	err := s.wal.Append(rec.Start, s.walBuf)
	if err == nil {
		err = s.wal.Sync()
	}
	if err != nil {
		s.walBroken = true
		slog.Error("server: wal append failed; stream is now read-only", "err", err)
	}
	return err
}

// recordSeq folds an applied record's sequence number, if it has one, into
// the dedup window. Caller holds s.mu.
func (s *Server) recordSeq(rec *walRecord) {
	if rec.HasSeq {
		s.seqs.record(rec.Client, rec.Seq, rec.Resp, rec.end())
	}
}

// applyRecord replays one WAL record: points the stream has already
// applied (below s.ingested) are skipped, the rest go through apply, and the
// record's sequence number is folded into the dedup window. Caller holds
// s.mu.
func (s *Server) applyRecord(rec *walRecord) error {
	if rec.Start > s.ingested {
		return fmt.Errorf("wal gap: record starts at position %d but the stream has only applied %d", rec.Start, s.ingested)
	}
	if skip := s.ingested - rec.Start; skip < uint64(len(rec.Points)) {
		if _, err := s.apply(rec.Points[skip:], nil, nil); err != nil {
			return fmt.Errorf("replaying stride at position %d: %w", s.ingested, err)
		}
	}
	s.recordSeq(rec)
	return nil
}

// minPointJSON is the fewest body bytes one ingested point can take: the
// shortest object decodeBatch accepts for a one-dimensional stream and the
// comma after it.
const minPointJSON = len(`{"coords":[0]},`)

// walRecordMaxPayload bounds one framed WAL record — the 8-byte position the
// log prefixes, then the record layout of codec.go at its widest: magic and
// flags, start, the dedup row (client name, sequence number, ack), the point
// count, and as many points as a maxIngestBytes body can carry at the most
// bytes a point can encode to. A gob record of an earlier binary fits too: its
// type preamble is under 400 bytes and its points are smaller than their JSON.
func (s *Server) walRecordMaxPayload() int64 {
	const header = 8 + 2 + binary.MaxVarintLen64 + // position, magic, flags, start
		(2 + maxClientName) + binary.MaxVarintLen64 + (1 + maxAckBytes) + // dedup row
		binary.MaxVarintLen64 + // point count
		400 // a gob record's preamble
	return header + maxIngestBytes/int64(minPointJSON)*maxPointBytes(s.cfg.Cluster.Dims)
}

// boundaryPos returns the stream position — points applied since the stream
// began — of the stride boundary that completes the given number of strides:
// what is durable in window terms, pending partial strides excluded.
func (c Config) boundaryPos(strides uint64) uint64 {
	if strides == 0 {
		return 0
	}
	return uint64(c.Window) + (strides-1)*uint64(c.Stride)
}

// openReplay positions the stream for replay and opens the log in dir at
// that position: the ingested counter is aligned with the last stride
// boundary first, because a checkpoint stores the counter as of snapshot time
// — including the pending points it dropped — and the records that carry
// those points are about to re-increment through them.
func (s *Server) openReplay(dir string) *ckpt.WALReader {
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := s.cfg.boundaryPos(uint64(s.eng.Stats().Strides))
	s.ingested = pos
	if s.sm.Dedicated {
		s.ingestMx.Set(int64(pos))
	}
	return ckpt.OpenWALReader(dir, pos, s.walRecordMaxPayload())
}

// replay drains r: each record is decoded and handed to apply under s.mu —
// applyRecord, or a caller's wrapper around it — until the log ends for now
// (a nil error: a tailer polls again, a one-shot replay is done) or a record
// cannot be applied. A damaged or undecodable record is reported wrapping
// ckpt.ErrWALCorrupt, and what that means is the caller's decision: crash
// recovery and promotion stop there — it is exactly the boundary OpenWAL
// repairs the log to — while a tailing follower must not guess past damage a
// live leader may still be appending beyond. It returns the number of records
// applied.
func (s *Server) replay(r *ckpt.WALReader, apply func(*walRecord) error) (int, error) {
	for applied := 0; ; applied++ {
		_, payload, err := r.Next()
		if errors.Is(err, ckpt.ErrWALWait) {
			return applied, nil
		}
		if err != nil {
			return applied, err
		}
		rec, err := decodeWALRecord(payload, s.cfg.Cluster.Dims)
		if err != nil {
			return applied, fmt.Errorf("%w: %w", ckpt.ErrWALCorrupt, err)
		}
		s.mu.Lock()
		err = apply(rec)
		s.mu.Unlock()
		if err != nil {
			return applied, err
		}
	}
}

// replayToDamage is replay for a log nobody is appending to any more: a
// corrupt record ends it cleanly, with a warning, because nothing after the
// damage is recoverable and OpenWAL cuts the log at the same place.
func (s *Server) replayToDamage(r *ckpt.WALReader, apply func(*walRecord) error, logger *slog.Logger) (int, error) {
	applied, err := s.replay(r, apply)
	if errors.Is(err, ckpt.ErrWALCorrupt) {
		if logger != nil {
			logger.Warn("wal replay stopped at a corrupt record; later records are unrecoverable",
				"records_applied", applied, "err", err)
		}
		err = nil
	}
	return applied, err
}

// RecoverWAL replays the log in dir from the server's durable stream
// position — after a checkpoint restore (or from the stream's beginning
// when no checkpoint existed) — bringing back every acknowledged batch
// the newest checkpoint had not yet captured, pending partial strides
// included. Call it before AttachWAL; the open-for-append tail repair
// and replay stop at the same boundary, so the log and the recovered
// state agree.
func (s *Server) RecoverWAL(dir string, logger *slog.Logger) (int, error) {
	r := s.openReplay(dir)
	defer r.Close()
	return s.replayToDamage(r, s.applyRecord, logger)
}
