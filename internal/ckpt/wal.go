package ckpt

// Write-ahead log for the ingest pipeline. The WAL reuses the checkpoint
// frame format (frame.go): each record is one CRC32-C-framed blob whose
// payload starts with the record's 8-byte big-endian stream position (how
// many points the stream had applied before the record), followed by an
// opaque payload the server defines. Records are appended to segment
// files named wal-<position>.wseg after the position of their first
// record; a segment is rotated when it passes a size threshold, and
// records never straddle segments, so truncating the log to a checkpoint
// position is whole-file removal.
//
// Durability contract: Append writes the frame, Sync flushes it; the
// server acknowledges an ingest batch only after both, so every
// acknowledged point is either inside the newest durable checkpoint or
// replayable from the log. Torn tails (a crash mid-append) are repaired
// on the next open-for-append by truncating to the last valid frame
// boundary — exactly the state replay would have stopped at anyway.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	walPrefix = "wal-"
	walSuffix = ".wseg"

	// DefaultWALSegmentBytes is the rotation threshold for one segment.
	DefaultWALSegmentBytes = 8 << 20
)

// ErrWALWait is returned by WALReader.Next when no further complete
// record is available yet: the log ends cleanly at a frame boundary, or
// its final frame is torn in a way consistent with a write still in
// flight. A tailer retries later; a one-shot replay stops here.
var ErrWALWait = errors.New("ckpt: wal has no complete record available")

// ErrWALCorrupt marks a record that is definitively damaged (bad magic,
// checksum mismatch, or a torn frame that can no longer be in flight
// because a newer segment exists after it). Replay stops at the last
// valid record; everything after the damage is unrecoverable.
var ErrWALCorrupt = errors.New("ckpt: wal corrupt")

// WALObserver receives the WAL's telemetry; obs.WALMetrics implements it.
type WALObserver interface {
	ObserveWALAppend(bytes, segments int)
	ObserveWALSync(d time.Duration)
	ObserveWALTruncate(removed, remaining int)
}

// WALOption configures OpenWAL.
type WALOption func(*WAL)

// WithWALSegmentBytes sets the segment rotation threshold.
func WithWALSegmentBytes(n int64) WALOption {
	return func(w *WAL) {
		if n > 0 {
			w.maxSeg = n
		}
	}
}

// WithWALMaxPayload caps the payload size accepted when scanning or
// replaying records; <= 0 means unlimited.
func WithWALMaxPayload(n int64) WALOption {
	return func(w *WAL) { w.maxPayload = n }
}

// WithWALNoSync makes Sync a no-op. Benchmarks use it to isolate the
// CPU cost of the logging path from device fsync latency; production
// appenders must not.
func WithWALNoSync() WALOption {
	return func(w *WAL) { w.noSync = true }
}

// WithWALObserver attaches a telemetry hook.
func WithWALObserver(o WALObserver) WALOption {
	return func(w *WAL) { w.obs = o }
}

// WithWALLogger attaches a structured logger for repair/truncation events.
func WithWALLogger(l *slog.Logger) WALOption {
	return func(w *WAL) { w.logger = l }
}

// WAL is an append handle on a write-ahead log directory. Methods are
// safe for concurrent use — the server appends under its write mutex
// while the checkpoint writer truncates from its own goroutine.
type WAL struct {
	dir        string
	maxSeg     int64
	maxPayload int64
	noSync     bool
	obs        WALObserver
	logger     *slog.Logger

	mu       sync.Mutex
	f        *os.File // active segment, nil until the first Append
	segStart uint64   // position the active segment is named after
	segSize  int64
	segs     int    // segment count on disk (including active)
	scratch  []byte // reusable [8-byte pos][payload] buffer
}

// OpenWAL opens dir for appending, creating it if needed. It scans every
// segment in order and repairs the log to its last valid frame boundary:
// the first damaged or torn record — wherever it is — truncates its
// segment at the preceding boundary and deletes every later segment, so
// the log never contains records that a crashed replay could not have
// applied. The returned WAL appends after the repaired tail.
func OpenWAL(dir string, opts ...WALOption) (*WAL, error) {
	w := &WAL{dir: dir, maxSeg: DefaultWALSegmentBytes}
	for _, o := range opts {
		o(w)
	}
	if err := mkdirDurable(dir); err != nil {
		return nil, fmt.Errorf("ckpt: creating wal dir: %w", err)
	}
	starts, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	// Repair pass: find the first invalid frame across all segments.
	for i, start := range starts {
		valid, total, err := scanSegment(walSegPath(dir, start), w.maxPayload)
		if err != nil {
			return nil, err
		}
		if valid == total {
			continue
		}
		// Damage found: truncate this segment to its last valid boundary
		// and drop everything after it.
		path := walSegPath(dir, start)
		if err := os.Truncate(path, valid); err != nil {
			return nil, fmt.Errorf("ckpt: repairing wal segment %s: %w", path, err)
		}
		if w.logger != nil {
			w.logger.Warn("repaired torn wal segment", "segment", path,
				"valid_bytes", valid, "dropped_bytes", total-valid, "dropped_segments", len(starts)-i-1)
		}
		for _, later := range starts[i+1:] {
			if err := os.Remove(walSegPath(dir, later)); err != nil {
				return nil, fmt.Errorf("ckpt: removing wal segment past damage: %w", err)
			}
		}
		starts = starts[:i+1]
		// An empty repaired segment carries no records; remove it so the
		// next append names a fresh segment by its true position.
		if valid == 0 {
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("ckpt: removing empty wal segment: %w", err)
			}
			starts = starts[:i]
		}
		// Make the removals durable; the next Sync flushes the truncation.
		if err := syncDir(dir); err != nil {
			return nil, err
		}
		break
	}
	w.segs = len(starts)
	if n := len(starts); n > 0 {
		last := starts[n-1]
		f, err := os.OpenFile(walSegPath(dir, last), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("ckpt: opening wal segment for append: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("ckpt: sizing wal segment: %w", err)
		}
		w.f, w.segStart, w.segSize = f, last, st.Size()
	}
	return w, nil
}

// Append frames one record at the given stream position and writes it to
// the active segment, rotating first when the segment has reached the
// size threshold. The record is not durable until Sync returns.
func (w *WAL) Append(pos uint64, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	need := int64(HeaderSize + 8 + len(payload))
	if w.f != nil && w.segSize > 0 && w.segSize+need > w.maxSeg && pos != w.segStart {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	if w.f == nil {
		f, err := os.OpenFile(walSegPath(w.dir, pos), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("ckpt: creating wal segment: %w", err)
		}
		// A new file's directory entry is durable only once the directory
		// is synced (fsync(2)): once per segment, never per record.
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return err
		}
		w.f, w.segStart, w.segSize = f, pos, 0
		w.segs++
	}
	if cap(w.scratch) < 8+len(payload) {
		w.scratch = make([]byte, 0, 8+len(payload))
	}
	w.scratch = w.scratch[:8]
	binary.BigEndian.PutUint64(w.scratch, pos)
	w.scratch = append(w.scratch, payload...)
	n, err := WriteFrame(w.f, w.scratch)
	w.segSize += int64(n)
	if err != nil {
		return fmt.Errorf("ckpt: appending wal record at position %d: %w", pos, err)
	}
	if w.obs != nil {
		w.obs.ObserveWALAppend(n, w.segs)
	}
	return nil
}

// Sync flushes the active segment to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.f == nil || w.noSync {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ckpt: fsync wal segment: %w", err)
	}
	if w.obs != nil {
		w.obs.ObserveWALSync(time.Since(start))
	}
	return nil
}

// rotate fsyncs and closes the active segment; the next Append opens a
// new one named after its record's position.
func (w *WAL) rotate() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("ckpt: closing wal segment: %w", err)
	}
	w.f = nil
	return nil
}

// Truncate removes whole segments that can no longer matter to recovery:
// segment i is removed iff the next segment starts at or below keepFrom
// (every record at or past keepFrom then still lives in a later segment).
// The active segment is never removed. Callers pass the position of the
// oldest checkpoint generation they retain.
func (w *WAL) Truncate(keepFrom uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	starts, err := walSegments(w.dir)
	if err != nil {
		return err
	}
	removed := 0
	for i := 0; i+1 < len(starts); i++ {
		if starts[i+1] > keepFrom || (w.f != nil && starts[i] == w.segStart) {
			break
		}
		if err := os.Remove(walSegPath(w.dir, starts[i])); err != nil {
			return fmt.Errorf("ckpt: truncating wal segment: %w", err)
		}
		removed++
	}
	if removed > 0 {
		w.segs -= removed
		if w.logger != nil {
			w.logger.Info("truncated wal", "removed_segments", removed,
				"remaining_segments", w.segs, "keep_from", keepFrom)
		}
	}
	if w.obs != nil {
		w.obs.ObserveWALTruncate(removed, w.segs)
	}
	return nil
}

// Close syncs and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		w.f.Close()
		return err
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// walSegPath names a segment after its first record's stream position.
func walSegPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", walPrefix, start, walSuffix))
}

// parseWALSeg extracts the starting position from a segment filename.
func parseWALSeg(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	mid := name[len(walPrefix) : len(name)-len(walSuffix)]
	start, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return start, true
}

// walSegments lists segment start positions in dir, ascending.
func walSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ckpt: scanning wal dir: %w", err)
	}
	var starts []uint64
	for _, ent := range entries {
		if start, ok := parseWALSeg(ent.Name()); ok {
			starts = append(starts, start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// scanSegment reads records from one segment until the first invalid
// frame, returning the byte offset of the last valid frame boundary and
// the file's total size.
func scanSegment(path string, maxPayload int64) (valid, total int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("ckpt: opening wal segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("ckpt: sizing wal segment: %w", err)
	}
	total = st.Size()
	for {
		payload, err := ReadFrame(f, maxPayload)
		if err != nil {
			return valid, total, nil // first invalid frame: repair boundary found
		}
		if len(payload) < 8 {
			return valid, total, nil // framed but not a record: treat as damage
		}
		valid += int64(HeaderSize + len(payload))
	}
}

// WALReader iterates a log's records in order, optionally tailing a log
// that a live appender is still growing. It is not safe for concurrent
// use.
type WALReader struct {
	dir        string
	maxPayload int64

	f        *os.File
	segStart uint64
	off      int64
	started  bool
}

// OpenWALReader positions a reader so that every record covering stream
// positions >= from is yielded: reading starts at the newest segment
// whose start position is <= from (records before from are still yielded;
// the caller skips what it has already applied). from = 0 reads the whole
// log.
func OpenWALReader(dir string, from uint64, maxPayload int64) *WALReader {
	return &WALReader{dir: dir, maxPayload: maxPayload, segStart: from}
}

// Next returns the next record's stream position and payload. It returns
// ErrWALWait when the log currently ends cleanly (a tailer retries after
// the leader appends more; a one-shot replay is done), and an error
// wrapping ErrWALCorrupt at definitive damage (replay must stop; nothing
// after the damage is recoverable).
func (r *WALReader) Next() (pos uint64, payload []byte, err error) {
	for {
		if r.f == nil {
			if err := r.openNext(); err != nil {
				return 0, nil, err
			}
		}
		if _, err := r.f.Seek(r.off, io.SeekStart); err != nil {
			return 0, nil, fmt.Errorf("ckpt: seeking wal segment: %w", err)
		}
		framed, err := ReadFrame(r.f, r.maxPayload)
		if err == nil {
			if len(framed) < 8 {
				return 0, nil, fmt.Errorf("%w: record shorter than its position header", ErrWALCorrupt)
			}
			r.off += int64(HeaderSize + len(framed))
			return binary.BigEndian.Uint64(framed[:8]), framed[8:], nil
		}
		newer, nerr := r.hasNewerSegment()
		if nerr != nil {
			return 0, nil, nerr
		}
		atBoundary := errors.Is(err, io.ErrUnexpectedEOF) && r.tornHeaderOnly()
		switch {
		case atBoundary && newer:
			// Clean end of a rotated segment: move on.
			r.f.Close()
			r.f = nil
			continue
		case !newer && errors.Is(err, io.ErrUnexpectedEOF):
			// Torn tail of the newest segment — the appender may be
			// mid-write. Leave the offset so a retry re-reads the frame.
			return 0, nil, ErrWALWait
		default:
			// Damage: a non-truncation frame error, or a torn frame that a
			// newer segment proves will never be completed.
			return 0, nil, fmt.Errorf("%w: segment %s offset %d: %w",
				ErrWALCorrupt, walSegPath(r.dir, r.segStart), r.off, err)
		}
	}
}

// tornHeaderOnly reports whether the current offset is exactly at the end
// of the file — i.e. the "torn frame" is actually a clean boundary.
func (r *WALReader) tornHeaderOnly() bool {
	st, err := r.f.Stat()
	return err == nil && st.Size() == r.off
}

// openNext opens the segment the reader should process next: on first
// use, the newest segment starting at or below the requested position
// (or the oldest segment, when all start above it); afterwards, the next
// segment in order. It returns ErrWALWait when no such segment exists.
func (r *WALReader) openNext() error {
	starts, err := walSegments(r.dir)
	if err != nil {
		return err
	}
	if len(starts) == 0 {
		return ErrWALWait
	}
	var pick uint64
	found := false
	if !r.started {
		pick = starts[0]
		for _, s := range starts {
			if s <= r.segStart {
				pick = s
			}
		}
		found = true
	} else {
		for _, s := range starts {
			if s > r.segStart {
				pick = s
				found = true
				break
			}
		}
	}
	if !found {
		return ErrWALWait
	}
	f, err := os.Open(walSegPath(r.dir, pick))
	if err != nil {
		return fmt.Errorf("ckpt: opening wal segment: %w", err)
	}
	r.f, r.segStart, r.off, r.started = f, pick, 0, true
	return nil
}

// hasNewerSegment reports whether a segment newer than the current one
// exists on disk.
func (r *WALReader) hasNewerSegment() (bool, error) {
	starts, err := walSegments(r.dir)
	if err != nil {
		return false, err
	}
	for _, s := range starts {
		if s > r.segStart {
			return true, nil
		}
	}
	return false, nil
}

// Close releases the reader's file handle.
func (r *WALReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
