package ckpt

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func mustSave(t *testing.T, s *Store, payload []byte) uint64 {
	t.Helper()
	gen, err := s.Save(payload)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func mustOpen(t *testing.T, dir string, opts ...StoreOption) *Store {
	t.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreSaveRecover(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, _, err := s.Recover(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store: %v, want ErrNoCheckpoint", err)
	}
	p1, p2 := testPayload(100), testPayload(200)
	g1 := mustSave(t, s, p1)
	g2 := mustSave(t, s, p2)
	if g1 != 1 || g2 != 2 {
		t.Fatalf("generations %d,%d want 1,2", g1, g2)
	}
	got, gen, err := s.Recover()
	if err != nil || gen != g2 || !bytes.Equal(got, p2) {
		t.Fatalf("recover = gen %d err %v", gen, err)
	}
	// Reopening the directory (a process restart) sees the same state and
	// continues the generation sequence.
	s2 := mustOpen(t, dir)
	got, gen, err = s2.Recover()
	if err != nil || gen != g2 || !bytes.Equal(got, p2) {
		t.Fatalf("recover after reopen = gen %d err %v", gen, err)
	}
	if g3 := mustSave(t, s2, p1); g3 != 3 {
		t.Fatalf("generation after reopen = %d, want 3", g3)
	}
}

func TestStorePrunesOldGenerations(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for i := 0; i < 5; i++ {
		mustSave(t, s, testPayload(10+i))
	}
	gens, err := s.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 4 || gens[1] != 5 {
		t.Fatalf("generations after prune: %v, want [4 5]", gens)
	}
}

// TestStoreCorruptNewestFallsBack: a flipped payload bit in the newest
// generation is caught by the CRC and recovery falls back to the previous
// generation.
func TestStoreCorruptNewestFallsBack(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	p1, p2 := testPayload(100), testPayload(150)
	g1 := mustSave(t, s, p1)
	g2 := mustSave(t, s, p2)

	path := s.genPath(g2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[HeaderSize+17] ^= 0x04 // one payload bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, gen, err := s.Recover()
	if err != nil || gen != g1 || !bytes.Equal(got, p1) {
		t.Fatalf("recover after corruption = gen %d err %v, want fallback to %d", gen, err, g1)
	}
}

// TestStoreOverLimit: a generation whose payload really is over the limit
// stops Recover with ErrTooLarge, without falling back to an older one (that
// would roll the state back); a length field that only claims an over-limit
// payload is corruption, and Recover falls back past it.
func TestStoreOverLimit(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, WithMaxPayload(100))
	p1 := testPayload(100)
	g1 := mustSave(t, s, p1)
	g2 := mustSave(t, s, testPayload(101))
	if _, _, err := s.Recover(); !errors.Is(err, ErrTooLarge) || errors.Is(err, ErrNoValidCheckpoint) {
		t.Fatalf("recover over an over-limit generation = %v, want ErrTooLarge alone", err)
	}

	raw, err := os.ReadFile(s.genPath(g2))
	if err != nil {
		t.Fatal(err)
	}
	raw = raw[:HeaderSize+50] // the header still declares 101 bytes
	if err := os.WriteFile(s.genPath(g2), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(g2); errors.Is(err, ErrTooLarge) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("load of a frame declaring more than its file = %v, want a torn frame", err)
	}
	got, gen, err := s.Recover()
	if err != nil || gen != g1 || !bytes.Equal(got, p1) {
		t.Fatalf("recover after a lying length = gen %d err %v, want fallback to %d", gen, err, g1)
	}
}

// TestStoreTruncatedNewestFallsBack: the newest generation truncated at
// every byte offset (all frame boundaries included) is rejected and the
// previous generation is served instead.
func TestStoreTruncatedNewestFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p1, p2 := testPayload(80), testPayload(90)
	g1 := mustSave(t, s, p1)
	g2 := mustSave(t, s, p2)
	raw, err := os.ReadFile(s.genPath(g2))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(s.genPath(g2), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, gen, err := s.Recover()
		if err != nil || gen != g1 || !bytes.Equal(got, p1) {
			t.Fatalf("cut=%d: recover = gen %d err %v, want fallback to %d", cut, gen, err, g1)
		}
	}
}

func TestStoreTrailingGarbageRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	g1 := mustSave(t, s, testPayload(40))
	g2 := mustSave(t, s, testPayload(50))
	f, err := os.OpenFile(s.genPath(g2), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("junk")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, gen, err := s.Recover()
	if err != nil || gen != g1 {
		t.Fatalf("recover = gen %d err %v, want fallback to %d", gen, err, g1)
	}
}

func TestStoreAllGenerationsCorrupt(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	mustSave(t, s, testPayload(30))
	mustSave(t, s, testPayload(35))
	gens, _ := s.Generations()
	for _, g := range gens {
		if err := os.WriteFile(s.genPath(g), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := s.Recover()
	if !errors.Is(err, ErrNoValidCheckpoint) {
		t.Fatalf("recover = %v, want ErrNoValidCheckpoint", err)
	}
}

// TestStoreCrashMidWrite: a write failing partway through the frame (disk
// full, power cut) must not publish a new generation, must clean up its
// temp file, and must leave the previous generation recoverable.
func TestStoreCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p1 := testPayload(120)
	g1 := mustSave(t, s, p1)

	for _, limit := range []int{0, 3, HeaderSize, HeaderSize + 1, HeaderSize + 60} {
		s.wrapWriter = func(w io.Writer) io.Writer { return &teeLimit{w: w, limit: limit} }
		if _, err := s.Save(testPayload(130)); err == nil {
			t.Fatalf("limit=%d: save with failing writer succeeded", limit)
		}
		s.wrapWriter = nil

		gens, err := s.Generations()
		if err != nil {
			t.Fatal(err)
		}
		if len(gens) != 1 || gens[0] != g1 {
			t.Fatalf("limit=%d: generations %v after failed save, want [%d]", limit, gens, g1)
		}
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if filepath.Ext(e.Name()) == tmpSuffix {
				t.Fatalf("limit=%d: stale temp %s left behind", limit, e.Name())
			}
		}
		got, gen, err := s.Recover()
		if err != nil || gen != g1 || !bytes.Equal(got, p1) {
			t.Fatalf("limit=%d: recover = gen %d err %v", limit, gen, err)
		}
	}
	// The store still works once the fault clears.
	p2 := testPayload(140)
	g2 := mustSave(t, s, p2)
	got, gen, err := s.Recover()
	if err != nil || gen != g2 || !bytes.Equal(got, p2) {
		t.Fatalf("recover after fault cleared = gen %d err %v", gen, err)
	}
}

// teeLimit forwards writes to w until limit bytes, then fails — the
// on-disk temp file ends up torn exactly as a crash would leave it.
type teeLimit struct {
	w     io.Writer
	limit int
	n     int
}

func (t *teeLimit) Write(p []byte) (int, error) {
	if t.n+len(p) <= t.limit {
		t.n += len(p)
		return t.w.Write(p)
	}
	take := t.limit - t.n
	t.n = t.limit
	if take > 0 {
		t.w.Write(p[:take])
	}
	return take, errors.New("injected crash mid-write")
}

// TestStoreOpenSweepsStaleTemp: a temp file left by a crash between write
// and rename is never mistaken for a generation, and is gone once the
// writer's first generation lands.
func TestStoreOpenSweepsStaleTemp(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g1 := mustSave(t, s, testPayload(25))
	stale := s.genPath(g1+1) + tmpSuffix
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	_, gen, err := s2.Recover()
	if err != nil || gen != g1 {
		t.Fatalf("recover = gen %d err %v, want %d", gen, err, g1)
	}
	if g2 := mustSave(t, s2, testPayload(26)); g2 != g1+1 {
		t.Fatalf("first generation after reopen = %d, want %d", g2, g1+1)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == tmpSuffix {
			t.Fatalf("stale temp %s survived the first generation after reopen", e.Name())
		}
	}
}

// TestStoreSweepsOnlyOwnTemps: the directory a store lives in is shared with
// the stream's log and with operators, so the first Save's sweep removes a
// stale generation temp and nothing else — not a foreign *.tmp, not a log
// segment.
func TestStoreSweepsOnlyOwnTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Base(mustOpen(t, dir).genPath(7)) + tmpSuffix
	foreign := []string{"x.tmp", "wal-00000000000000000000.wseg", "ckpt-notagen.disc.tmp"}
	for _, name := range append([]string{stale}, foreign...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("left behind"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustSave(t, mustOpen(t, dir), testPayload(27))
	if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
		t.Fatalf("stale generation temp %s survived the first Save (stat err %v)", stale, err)
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("the sweep removed %s, which is not the store's: %v", name, err)
		}
	}
}

// TestStoreReaderOpenKeepsInFlightSave is the regression for a reader
// deleting a writer's checkpoint: Open used to remove every temp file in
// the directory, so a follower opening a live leader's store to restore
// from it could delete the generation the leader was writing, and the
// leader's rename failed. A reader's Open and Recover now leave the
// directory alone; the paused Save completes.
func TestStoreReaderOpenKeepsInFlightSave(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	g1 := mustSave(t, w, testPayload(30))

	paused, resume := make(chan struct{}), make(chan struct{})
	w.wrapWriter = func(f io.Writer) io.Writer {
		return &pauseWriter{w: f, after: HeaderSize, paused: paused, resume: resume}
	}
	saved := make(chan error, 1)
	go func() {
		_, err := w.Save(testPayload(40))
		saved <- err
	}()
	<-paused

	r := mustOpen(t, dir)
	if _, gen, err := r.Recover(); err != nil || gen != g1 {
		t.Fatalf("reader recover = gen %d err %v, want %d", gen, err, g1)
	}
	close(resume)
	if err := <-saved; err != nil {
		t.Fatalf("writer's save failed after a reader opened the directory: %v", err)
	}
	if _, gen, err := mustOpen(t, dir).Recover(); err != nil || gen != g1+1 {
		t.Fatalf("recover after the save = gen %d err %v, want %d", gen, err, g1+1)
	}
}

// pauseWriter forwards the first `after` bytes, then signals paused and
// blocks until resume is closed before forwarding the rest.
type pauseWriter struct {
	w              io.Writer
	after, n       int
	paused, resume chan struct{}
}

func (p *pauseWriter) Write(b []byte) (int, error) {
	if p.n < p.after && p.n+len(b) >= p.after {
		head := p.after - p.n
		if _, err := p.w.Write(b[:head]); err != nil {
			return 0, err
		}
		p.n += head
		close(p.paused)
		<-p.resume
		n, err := p.w.Write(b[head:])
		p.n += n
		return head + n, err
	}
	n, err := p.w.Write(b)
	p.n += n
	return n, err
}
