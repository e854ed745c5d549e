package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// walRec is one (position, payload) pair used to build test logs.
type walRec struct {
	pos     uint64
	payload []byte
}

// buildWAL writes recs into dir with the given segment threshold and
// closes the appender.
func buildWAL(t *testing.T, dir string, segBytes int64, recs []walRec) {
	t.Helper()
	w, err := OpenWAL(dir, WithWALSegmentBytes(segBytes))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	for _, rec := range recs {
		if err := w.Append(rec.pos, rec.payload); err != nil {
			t.Fatalf("Append(%d): %v", rec.pos, err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// readAll drains a reader from the given position, returning every record
// it yields and the terminal error (ErrWALWait or an ErrWALCorrupt wrap).
func readAll(t *testing.T, dir string, from uint64) ([]walRec, error) {
	t.Helper()
	r := OpenWALReader(dir, from, 1<<20)
	defer r.Close()
	var out []walRec
	for {
		pos, payload, err := r.Next()
		if err != nil {
			return out, err
		}
		out = append(out, walRec{pos, append([]byte(nil), payload...)})
	}
}

// testRecs builds n distinguishable records with ~32-byte payloads.
func testRecs(n int) []walRec {
	recs := make([]walRec, n)
	for i := range recs {
		recs[i] = walRec{
			pos:     uint64(i * 10),
			payload: []byte(fmt.Sprintf("record-%03d-%s", i, string(bytes.Repeat([]byte{byte('a' + i%26)}, 16)))),
		}
	}
	return recs
}

// requirePrefix asserts got is a byte-identical prefix of want.
func requirePrefix(t *testing.T, got, want []walRec) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("read %d records, only %d were written", len(got), len(want))
	}
	for i := range got {
		if got[i].pos != want[i].pos || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d: got (%d, %q), want (%d, %q)",
				i, got[i].pos, got[i].payload, want[i].pos, want[i].payload)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := testRecs(7)
	buildWAL(t, dir, DefaultWALSegmentBytes, recs)

	got, err := readAll(t, dir, 0)
	if !errors.Is(err, ErrWALWait) {
		t.Fatalf("terminal error = %v, want ErrWALWait", err)
	}
	requirePrefix(t, got, recs)
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
}

func TestWALRotation(t *testing.T) {
	dir := t.TempDir()
	recs := testRecs(20)
	// ~60 bytes per framed record; a 150-byte threshold forces rotation
	// every couple of records.
	buildWAL(t, dir, 150, recs)

	starts, err := walSegments(dir)
	if err != nil {
		t.Fatalf("walSegments: %v", err)
	}
	if len(starts) < 3 {
		t.Fatalf("got %d segments, want rotation to produce at least 3", len(starts))
	}
	for i, s := range starts {
		// Segments are named by their first record's position, so starts
		// must be a subsequence of record positions, ascending.
		if i > 0 && s <= starts[i-1] {
			t.Fatalf("segment starts not ascending: %v", starts)
		}
	}
	got, err := readAll(t, dir, 0)
	if !errors.Is(err, ErrWALWait) {
		t.Fatalf("terminal error = %v, want ErrWALWait", err)
	}
	requirePrefix(t, got, recs)
	if len(got) != len(recs) {
		t.Fatalf("read %d records across segments, want %d", len(got), len(recs))
	}
}

// countDirSyncs replaces syncDir for the rest of the test with one that
// also counts its calls per directory.
func countDirSyncs(t *testing.T) map[string]int {
	t.Helper()
	counts := map[string]int{}
	orig := syncDir
	syncDir = func(dir string) error {
		counts[filepath.Clean(dir)]++
		return orig(dir)
	}
	t.Cleanup(func() { syncDir = orig })
	return counts
}

// TestWALSyncsDirectoryPerSegment: a new segment's directory entry is made
// durable by one directory fsync when the segment is created, and an append
// to an open segment syncs only the file. Creating the log's directory syncs
// its parent, and a repair that drops segments syncs the directory.
func TestWALSyncsDirectoryPerSegment(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "streams", "x")
	counts := countDirSyncs(t)
	w, err := OpenWAL(dir, WithWALSegmentBytes(150))
	if err != nil {
		t.Fatal(err)
	}
	if counts[filepath.Join(parent, "streams")] != 1 || counts[parent] != 1 || counts[dir] != 0 {
		t.Fatalf("creating the log directory synced %v, want its two new entries' parents once each", counts)
	}
	for _, rec := range testRecs(40) { // rotation every couple of records
		if err := w.Append(rec.pos, rec.payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	starts, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 10 {
		t.Fatalf("%d segments: the run did not rotate enough to tell", len(starts))
	}
	if counts[dir] != len(starts) {
		t.Fatalf("%d directory syncs for %d segments created by 40 appends, want one per segment", counts[dir], len(starts))
	}

	// Reopening an intact log syncs nothing; a repair that drops the segments
	// after a torn one syncs the directory once.
	counts[dir] = 0
	if w, err = OpenWAL(dir, WithWALSegmentBytes(150)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if counts[dir] != 0 {
		t.Fatalf("reopening an intact log synced its directory %d times", counts[dir])
	}
	if err := os.Truncate(walSegPath(dir, starts[1]), 5); err != nil {
		t.Fatal(err)
	}
	if w, err = OpenWAL(dir, WithWALSegmentBytes(150)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if after, _ := walSegments(dir); len(after) != 1 || counts[dir] != 1 {
		t.Fatalf("repair left %d segments and synced the directory %d times, want 1 and 1", len(after), counts[dir])
	}
}

func TestWALTruncate(t *testing.T) {
	dir := t.TempDir()
	recs := testRecs(20)
	w, err := OpenWAL(dir, WithWALSegmentBytes(150))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()
	for _, rec := range recs {
		if err := w.Append(rec.pos, rec.payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	before, _ := walSegments(dir)

	// Truncating to 0 must remove nothing.
	if err := w.Truncate(0); err != nil {
		t.Fatalf("Truncate(0): %v", err)
	}
	if after, _ := walSegments(dir); len(after) != len(before) {
		t.Fatalf("Truncate(0) removed segments: %d -> %d", len(before), len(after))
	}

	// Truncating to a mid-log position removes only segments whose
	// successor starts at or below it; every record >= keepFrom survives.
	keepFrom := recs[10].pos
	if err := w.Truncate(keepFrom); err != nil {
		t.Fatalf("Truncate(%d): %v", keepFrom, err)
	}
	after, _ := walSegments(dir)
	if len(after) >= len(before) {
		t.Fatalf("Truncate(%d) removed nothing (%d segments)", keepFrom, len(after))
	}
	got, err := readAll(t, dir, keepFrom)
	if !errors.Is(err, ErrWALWait) {
		t.Fatalf("terminal error = %v, want ErrWALWait", err)
	}
	// The reader may yield records before keepFrom (the caller skips
	// those); it must yield every record at or past it.
	var tail []walRec
	for _, rec := range got {
		if rec.pos >= keepFrom {
			tail = append(tail, rec)
		}
	}
	requirePrefix(t, tail, recs[10:])
	if len(tail) != len(recs)-10 {
		t.Fatalf("after truncate, read %d records >= %d, want %d", len(tail), keepFrom, len(recs)-10)
	}

	// The active segment must survive even when keepFrom passes its end.
	if err := w.Truncate(1 << 60); err != nil {
		t.Fatalf("Truncate(max): %v", err)
	}
	final, _ := walSegments(dir)
	if len(final) == 0 {
		t.Fatal("truncate removed the active segment")
	}
}

// TestWALTruncationAtEveryOffset is the torn-write sweep: for every byte
// length the log's final segment could have been cut to by a crash,
// replay must yield a byte-identical prefix of the original records and
// stop cleanly, and OpenWAL must repair the log to a state that accepts
// new appends which replay contiguously after that prefix.
func TestWALTruncationAtEveryOffset(t *testing.T) {
	master := t.TempDir()
	recs := testRecs(6)
	buildWAL(t, master, DefaultWALSegmentBytes, recs)
	starts, err := walSegments(master)
	if err != nil || len(starts) != 1 {
		t.Fatalf("want a single master segment, got %v (%v)", starts, err)
	}
	segName := filepath.Base(walSegPath(master, starts[0]))
	whole, err := os.ReadFile(filepath.Join(master, segName))
	if err != nil {
		t.Fatalf("reading master segment: %v", err)
	}

	for cut := 0; cut < len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), whole[:cut], 0o644); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}

		// Replay the torn log: a prefix, then a clean stop (a torn tail of
		// the newest segment is indistinguishable from an in-flight append,
		// so the terminal error is ErrWALWait, never a panic or a bogus
		// record).
		got, rerr := readAll(t, dir, 0)
		if !errors.Is(rerr, ErrWALWait) {
			t.Fatalf("cut %d: terminal error = %v, want ErrWALWait", cut, rerr)
		}
		requirePrefix(t, got, recs)
		prefix := len(got)

		// Repair and append: the recovered log must accept a new record and
		// replay prefix + new contiguously.
		w, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("cut %d: OpenWAL: %v", cut, err)
		}
		next := walRec{pos: 1000, payload: []byte("post-repair")}
		if err := w.Append(next.pos, next.payload); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		again, rerr := readAll(t, dir, 0)
		if !errors.Is(rerr, ErrWALWait) {
			t.Fatalf("cut %d: post-repair terminal error = %v", cut, rerr)
		}
		want := append(append([]walRec(nil), recs[:prefix]...), next)
		requirePrefix(t, again, want)
		if len(again) != len(want) {
			t.Fatalf("cut %d: post-repair read %d records, want %d", cut, len(again), len(want))
		}
	}
}

// TestWALBitFlips flips every bit of the log in turn: replay must yield a
// byte-identical prefix of the original records and stop (wait or
// corrupt) without ever yielding a damaged record — the CRC32-C frame is
// what stands between a flipped bit and silent divergence.
func TestWALBitFlips(t *testing.T) {
	master := t.TempDir()
	recs := testRecs(4)
	buildWAL(t, master, DefaultWALSegmentBytes, recs)
	starts, _ := walSegments(master)
	segName := filepath.Base(walSegPath(master, starts[0]))
	whole, err := os.ReadFile(filepath.Join(master, segName))
	if err != nil {
		t.Fatalf("reading master segment: %v", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, segName)
	for off := 0; off < len(whole); off++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), whole...)
			flipped[off] ^= 1 << bit
			if err := os.WriteFile(path, flipped, 0o644); err != nil {
				t.Fatalf("writing flipped segment: %v", err)
			}
			got, rerr := readAll(t, dir, 0)
			if !errors.Is(rerr, ErrWALWait) && !errors.Is(rerr, ErrWALCorrupt) {
				t.Fatalf("flip %d/%d: terminal error = %v", off, bit, rerr)
			}
			requirePrefix(t, got, recs)
			if len(got) == len(recs) {
				t.Fatalf("flip %d/%d: all %d records replayed despite damage", off, bit, len(recs))
			}
		}
	}
}

// TestWALTornFinalFrame covers the canonical crash: a partial frame at
// the very end of the newest segment. A tailer waits (the append may be
// in flight); OpenWAL repairs the tail and appending resumes.
func TestWALTornFinalFrame(t *testing.T) {
	dir := t.TempDir()
	recs := testRecs(3)
	buildWAL(t, dir, DefaultWALSegmentBytes, recs)
	starts, _ := walSegments(dir)
	path := walSegPath(dir, starts[0])

	// Simulate a torn append: half of a frame header.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("DCKP\x00\x00")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, rerr := readAll(t, dir, 0)
	if !errors.Is(rerr, ErrWALWait) {
		t.Fatalf("torn tail: terminal error = %v, want ErrWALWait", rerr)
	}
	requirePrefix(t, got, recs)
	if len(got) != len(recs) {
		t.Fatalf("torn tail: read %d complete records, want %d", len(got), len(recs))
	}

	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL over torn tail: %v", err)
	}
	next := walRec{pos: 999, payload: []byte("after-repair")}
	if err := w.Append(next.pos, next.payload); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	w.Close()
	again, rerr := readAll(t, dir, 0)
	if !errors.Is(rerr, ErrWALWait) {
		t.Fatalf("post-repair terminal error = %v", rerr)
	}
	requirePrefix(t, again, append(append([]walRec(nil), recs...), next))
	if len(again) != len(recs)+1 {
		t.Fatalf("post-repair read %d records, want %d", len(again), len(recs)+1)
	}
}

// TestWALCorruptionMidLog: damage in a non-final segment is definitive —
// a newer segment proves the frame will never be completed — so the
// reader reports ErrWALCorrupt, and OpenWAL drops everything past the
// damage.
func TestWALCorruptionMidLog(t *testing.T) {
	dir := t.TempDir()
	recs := testRecs(20)
	buildWAL(t, dir, 150, recs)
	starts, _ := walSegments(dir)
	if len(starts) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(starts))
	}

	// Flip a payload byte in the middle segment.
	victim := walSegPath(dir, starts[1])
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}

	got, rerr := readAll(t, dir, 0)
	if !errors.Is(rerr, ErrWALCorrupt) {
		t.Fatalf("mid-log damage: terminal error = %v, want ErrWALCorrupt", rerr)
	}
	requirePrefix(t, got, recs)
	prefix := len(got)
	if prefix == 0 || prefix >= len(recs) {
		t.Fatalf("mid-log damage: replayed %d of %d records, want a proper prefix", prefix, len(recs))
	}

	// Repair: later segments are unrecoverable and must be dropped; the
	// log then replays exactly the prefix the reader salvaged.
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL over mid-log damage: %v", err)
	}
	w.Close()
	again, rerr := readAll(t, dir, 0)
	if !errors.Is(rerr, ErrWALWait) {
		t.Fatalf("post-repair terminal error = %v", rerr)
	}
	requirePrefix(t, again, recs)
	if len(again) != prefix {
		t.Fatalf("post-repair replayed %d records, reader salvaged %d", len(again), prefix)
	}
}

// TestWALReaderTailsLiveAppends: a reader that has hit ErrWALWait picks
// up records appended afterwards, including across a rotation.
func TestWALReaderTailsLiveAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WithWALSegmentBytes(150))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()

	r := OpenWALReader(dir, 0, 1<<20)
	defer r.Close()
	if _, _, err := r.Next(); !errors.Is(err, ErrWALWait) {
		t.Fatalf("empty log: %v, want ErrWALWait", err)
	}

	recs := testRecs(12)
	for i, rec := range recs {
		if err := w.Append(rec.pos, rec.payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := w.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		pos, payload, err := r.Next()
		if err != nil {
			t.Fatalf("tailing record %d: %v", i, err)
		}
		if pos != rec.pos || !bytes.Equal(payload, rec.payload) {
			t.Fatalf("tailing record %d: got (%d, %q), want (%d, %q)", i, pos, payload, rec.pos, rec.payload)
		}
		if _, _, err := r.Next(); !errors.Is(err, ErrWALWait) {
			t.Fatalf("after record %d: %v, want ErrWALWait", i, err)
		}
	}
	if starts, _ := walSegments(dir); len(starts) < 2 {
		t.Fatalf("tail test never crossed a rotation (%d segments)", len(starts))
	}
}
