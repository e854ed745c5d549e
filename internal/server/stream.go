// The stream's state as one value: everything a batch changes, and nothing of
// HTTP, the write-ahead log or the checkpoint runner, which the Server around
// it keeps. State enters a stream only when it is built (newStream), fresh or
// from the checkpoint its directory holds; then it moves one batch at a time.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"disc/internal/core"
	"disc/internal/model"
	"disc/internal/obs"
	"disc/internal/trace"
	"disc/internal/window"
)

// stream is one stream's state. Every method but a read of view runs under
// the owning Server's mutex (or with exclusive access, as in newStream).
type stream struct {
	cfg Config
	// sm is the stream's instrument bundle: the write path feeds its stride
	// metrics and its ingest counter.
	sm *obs.StreamMetrics
	// incarnation names this stream value in every ETag it publishes, so a
	// tag never names two bodies: not across a delete and re-create of the
	// stream, and not across processes.
	incarnation uint64

	// view is the immutable read-path snapshot, replaced after every
	// successful stride (view.go). GET handlers only ever Load it.
	view atomic.Pointer[publishedView]

	// vs is the writer's half of the view: the state publish folds each
	// stride's assignment delta into.
	vs       viewState
	eng      *core.Engine
	slider   *window.CountSlider
	events   []eventRecord
	eventSeq uint64
	ingested uint64
	seqs     *seqTable // the X-Disc-Seq dedup window (wal.go)
	// restored is the stride count of the checkpoint the stream was built
	// from, 0 if none: the log position attachLeader's first prune keeps,
	// since that generation stays in the store as a fallback.
	restored uint64
	// lastStride is the engine's record of the stride it last completed; a
	// traced ingest renders it into the request's trace.
	lastStride core.StrideRecord

	// testAdvanceErr, when non-nil, replaces the engine advance inside
	// apply. Test seam for the 409 rollback path: up-front batch
	// validation leaves it with no organic trigger, but it must stay
	// correct against engine-internal failures.
	testAdvanceErr func(*window.Step) error
}

type eventRecord struct {
	Seq     uint64 `json:"seq"`
	Stride  uint64 `json:"stride"`
	Type    string `json:"type"`
	Cluster int    `json:"cluster"`
	// Extra carries merged-away or split-off cluster ids when applicable.
	Extra []int `json:"extra,omitempty"`
	Cores int   `json:"cores"`
}

// checkpointEnvelope carries the engine snapshot plus the service's own
// stream position: the window contents in arrival order (pending partial
// strides are dropped — checkpoints represent the last stride boundary).
// codec.go has its byte layout.
type checkpointEnvelope struct {
	// Dims is how many coordinates each window point carries on the wire; 0
	// in an envelope decoded from gob, which wrote all of them.
	Dims     int
	Engine   []byte
	Window   []model.Point
	Ingested uint64
	EventSeq uint64
	// Seqs is the X-Disc-Seq dedup table, sorted by client name so the
	// envelope's bytes are a deterministic function of stream content
	// (absent in pre-WAL checkpoints; gob restores it as empty).
	Seqs []persistedClient
}

// ErrCheckpointMismatch reports a checkpoint whose clustering
// configuration (dims, eps, minPts) differs from the serving
// configuration. Accepting one would leave ingest validating coordinates
// against the wrong dimensionality and clustering under the wrong
// thresholds, so recovery refuses it.
var ErrCheckpointMismatch = errors.New("checkpoint/config mismatch")

// errBadCheckpoint marks checkpoints that fail to decode or validate
// structurally.
var errBadCheckpoint = errors.New("bad checkpoint")

// newStream builds a stream, fresh when ck is nil and otherwise from the
// checkpoint ck, and publishes its first view. A checkpoint is as untrusted
// as a request: its engine, window, stream position and dedup table are each
// checked before any is kept. Errors wrap errBadCheckpoint for undecodable or
// invalid input and ErrCheckpointMismatch for one taken under a different
// clustering configuration. Ingestion then resumes exactly where the
// checkpoint was taken.
func newStream(cfg Config, sm *obs.StreamMetrics, ck []byte) (*stream, error) {
	slider, err := window.NewCountSlider(cfg.Window, cfg.Stride)
	if err != nil {
		return nil, err
	}
	st := &stream{cfg: cfg, sm: sm, incarnation: rand.Uint64(), slider: slider,
		seqs: newSeqTable(seqWindow, seqClients)}
	if ck == nil {
		st.eng = core.New(cfg.Cluster, st.engineOptions()...)
		st.publish() // the empty stride-0 view, vacuously consistent
		return st, nil
	}
	env, err := decodeEnvelope(ck)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errBadCheckpoint, err)
	}
	eng, err := core.LoadEngine(bytes.NewReader(env.Engine), st.engineOptions()...)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errBadCheckpoint, err)
	}
	if got, want := eng.Config(), cfg.Cluster; got != want {
		return nil, fmt.Errorf("%w: checkpoint built with dims=%d eps=%g minPts=%d, server runs dims=%d eps=%g minPts=%d",
			ErrCheckpointMismatch, got.Dims, got.Eps, got.MinPts, want.Dims, want.Eps, want.MinPts)
	}
	if env.Dims != 0 && env.Dims != cfg.Cluster.Dims {
		return nil, fmt.Errorf("%w: window points carry %d dimensions, the engine snapshot %d",
			errBadCheckpoint, env.Dims, cfg.Cluster.Dims)
	}
	// The engine snapshot has its own integrity checks; the window payload
	// needs the same ingest-grade validation — a NaN coordinate restored
	// here would poison cell keys and distance comparisons for the life
	// of the window, and a duplicated id would abort a later stride.
	if err := checkCoords(env.Window, cfg.Cluster.Dims); err != nil {
		return nil, fmt.Errorf("%w: window %w", errBadCheckpoint, err)
	}
	seen := make(map[int64]struct{}, len(env.Window))
	for i, p := range env.Window {
		if _, dup := seen[p.ID]; dup {
			return nil, fmt.Errorf("%w: window point %d duplicates id %d", errBadCheckpoint, i, p.ID)
		}
		seen[p.ID] = struct{}{}
	}
	if err := slider.RestoreWindow(env.Window); err != nil {
		return nil, fmt.Errorf("%w: %w", errBadCheckpoint, err)
	}
	// The dedup table is as untrusted as the window: unchecked, a checkpoint
	// could exceed every bound the live table keeps, or hand lookup's binary
	// search an unsorted row.
	if err := checkSeqs(env.Seqs); err != nil {
		return nil, fmt.Errorf("%w: %w", errBadCheckpoint, err)
	}
	st.eng = eng
	st.ingested = env.Ingested
	st.eventSeq = env.EventSeq
	st.seqs.restore(env.Seqs)
	st.restored = st.strides()
	// The telemetry counter must agree with the restored stream position,
	// or /stats and /metrics disagree forever after. Skipped on a shared
	// overflow bundle: that counter aggregates several streams, and forcing
	// it to one stream's position would erase the others.
	if sm.Dedicated {
		sm.Ingested.Set(int64(env.Ingested))
	}
	st.publish() // the restored window, whole
	return st, nil
}

// engineOptions is how a stream builds its engine, fresh or restored: the
// engine's defaults (ε-grid, MS-BFS, one worker) with the event ring and the
// stride observer attached. A checkpoint supplies state, never settings.
func (st *stream) engineOptions() []core.Option {
	return []core.Option{core.WithEventHandler(st.recordEvent), core.WithObserver(core.ObserverFunc(st.observeStride))}
}

// observeStride is the stream's engine observer: it feeds the stride
// metrics and keeps the record for the ingest trace.
func (st *stream) observeStride(rec core.StrideRecord) {
	st.sm.Engine.ObserveStride(rec)
	st.lastStride = rec
}

func (st *stream) recordEvent(ev core.Event) {
	st.eventSeq++
	rec := eventRecord{
		Seq:     st.eventSeq,
		Stride:  ev.Stride,
		Type:    ev.Type.String(),
		Cluster: ev.ClusterID,
		Cores:   ev.Cores,
	}
	switch ev.Type {
	case core.Merger:
		rec.Extra = ev.Absorbed
	case core.Split:
		rec.Extra = ev.NewClusters
	}
	st.events = append(st.events, rec)
	if len(st.events) > eventLogCap {
		st.events = st.events[len(st.events)-eventLogCap:]
	}
}

// strides returns the number of window advances the engine has completed.
func (st *stream) strides() uint64 { return uint64(st.eng.Stats().Strides) }

// capture is the locked half of a checkpoint, shared by WriteCheckpoint and
// the batch that crosses a checkpoint boundary: the engine's snapshot encode
// and a copy of the window and stream position. It returns the unlocked
// half, which assembles the envelope's bytes. Equal states write equal bytes.
func (st *stream) capture() (encode func() ([]byte, error)) {
	var engBuf bytes.Buffer
	if err := st.eng.SaveSnapshot(&engBuf); err != nil {
		return func() ([]byte, error) { return nil, err }
	}
	env := &checkpointEnvelope{
		Dims:     st.cfg.Cluster.Dims,
		Engine:   engBuf.Bytes(),
		Window:   append([]model.Point(nil), st.slider.Window()...),
		Ingested: st.ingested,
		EventSeq: st.eventSeq,
		Seqs:     st.seqs.persist(),
	}
	return func() ([]byte, error) {
		// Sized for the usual case: ids and times that take two bytes a row.
		size := len(env.Engine) + len(env.Window)*(4+8*env.Dims) + 1024
		return appendEnvelope(make([]byte, 0, size), env), nil
	}
}

// refusal is a batch the stream refused whole, before applying any point.
type refusal struct {
	msg string
	// tooOld marks a sequence number below the dedup window (a conflict);
	// otherwise the batch names an id still resident in the window.
	tooOld bool
}

func (r *refusal) Error() string { return r.msg }

// commit runs one decoded batch through the stream: look it up in the dedup
// window, check it against the resident window, apply it and build its ack —
// everything an ingest does but the log append and the response. rec arrives
// with Client, Seq, HasSeq and Points set; commit fills in Start and Resp.
// deduped reports a batch already applied and acknowledged, whose original
// ack rec.Resp now holds. A batch refused whole returns a *refusal; when the
// engine refuses a stride, the error comes back with the number of points
// applied before it, a prefix that is in the stream.
func (st *stream) commit(rec *walRecord, tr *trace.Trace, root *trace.Span) (deduped bool, applied int, err error) {
	if rec.HasSeq {
		if resp, hit, tooOld := st.seqs.lookup(rec.Client, rec.Seq); hit {
			// Exactly-once apply under at-least-once delivery: the batch was
			// already applied and acknowledged.
			rec.Resp = resp
			return true, 0, nil
		} else if tooOld {
			return false, 0, &refusal{tooOld: true, msg: fmt.Sprintf(
				"seq %d for client %q is below the dedup window (last %d sequence numbers kept): cannot prove whether the batch was applied",
				rec.Seq, rec.Client, st.seqs.window)}
		}
	}
	spValidate := tr.StartSpan("validate", root)
	resident := slices.IndexFunc(rec.Points, func(p model.Point) bool { return st.slider.Contains(p.ID) })
	spValidate.EndNow()
	if resident >= 0 {
		return false, 0, &refusal{msg: fmt.Sprintf("point %d: id %d is still resident in the window (window-resident duplicate: if this is a retry of a batch whose response was lost, the batch may already be fully applied and retrying it is unsafe; send an X-Disc-Seq header to make retries idempotent) (no points applied)",
			resident, rec.Points[resident].ID)}
	}
	rec.Start = st.ingested
	if applied, err = st.apply(rec.Points, tr, root); err != nil {
		return false, applied, err
	}
	// A struct of integers always marshals.
	rec.Resp, _ = json.Marshal(ingestResponse{
		Accepted: len(rec.Points),
		Strides:  st.strides(),
		Window:   st.eng.WindowSize(),
	})
	rec.Resp = append(rec.Resp, '\n') // match the writeJSON encoder framing
	return false, applied, nil
}

// apply is the stream's one write path: live ingest, crash recovery, follower
// tailing and promotion all push their points through it, which is what makes
// a replayed batch do exactly what the live batch did. Each point goes into
// the slider; a point that completes a stride advances the engine and, once
// the engine has accepted the stride, publishes the new view before the next
// point is touched — that view is the one the paper's exactness guarantee is
// about. So no backlog builds up behind the engine: between calls the
// slider's partial stride is shorter than the window while it fills and
// shorter than the stride after. If the engine refuses a stride the
// triggering point is rolled back out of the slider, leaving both at the
// pre-push stream position (without that the slider runs one stride ahead of
// the engine forever), and apply returns how many points went in before it.
// With a trace active each accepted stride's record is rendered under root in
// tr; a refused stride renders nothing.
func (st *stream) apply(pts []model.Point, tr *trace.Trace, root *trace.Span) (applied int, err error) {
	for _, p := range pts {
		step := st.slider.Push(p)
		if step != nil {
			if err := st.safeAdvance(step); err != nil {
				st.slider.Rewind(step)
				return applied, err
			}
			obs.RenderStride(tr, root, &st.lastStride)
		}
		applied++
		st.ingested++
		st.sm.Ingested.Inc()
		if step == nil {
			continue
		}
		spPub := tr.StartSpan("publish", root)
		st.publish()
		spPub.EndNow()
	}
	return applied, nil
}

// safeAdvance converts engine protocol panics (duplicate ids and the like)
// into reportable errors rather than crashing the service.
func (st *stream) safeAdvance(step *window.Step) (err error) {
	if st.testAdvanceErr != nil {
		return st.testAdvanceErr(step)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rejected: %v", r)
		}
	}()
	st.eng.Advance(step.In, step.Out)
	return nil
}

// recordSeq folds an applied record's sequence number, if it has one, into
// the dedup window.
func (st *stream) recordSeq(rec *walRecord) {
	if rec.HasSeq {
		st.seqs.record(rec.Client, rec.Seq, rec.Resp, rec.end())
	}
}

// applyRecord replays one WAL record: points the stream has already applied
// (below st.ingested) are skipped, the rest go through apply, and the
// record's sequence number is folded into the dedup window.
func (st *stream) applyRecord(rec *walRecord) error {
	if rec.Start > st.ingested {
		return fmt.Errorf("wal gap: record starts at position %d but the stream has only applied %d", rec.Start, st.ingested)
	}
	if skip := st.ingested - rec.Start; skip < uint64(len(rec.Points)) {
		if _, err := st.apply(rec.Points[skip:], nil, nil); err != nil {
			return fmt.Errorf("replaying stride at position %d: %w", st.ingested, err)
		}
	}
	st.recordSeq(rec)
	return nil
}

// toBoundary aligns the stream position with the last stride boundary and
// returns it, ahead of a replay: a checkpoint stores the position as of
// snapshot time — including the pending points it dropped — and the records
// that carry those points are about to re-increment through them.
func (st *stream) toBoundary() uint64 {
	pos := st.cfg.boundaryPos(st.strides())
	st.ingested = pos
	if st.sm.Dedicated {
		st.sm.Ingested.Set(int64(pos))
	}
	return pos
}
