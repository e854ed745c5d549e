package server

import (
	"bytes"
	"math/rand"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"disc/internal/ckpt"
	"disc/internal/model"
	"disc/internal/obs"
)

// These tests exercise the full durability loop: a serving process writes
// checkpoints through a ckpt.Store, "dies" (we simply abandon it), and a
// fresh process recovers from disk. The recovered service must be
// bit-identical in engine state and stream position to the one that died.

// checkpointTo writes the server's checkpoint as the next store generation.
func checkpointTo(t *testing.T, store *ckpt.Store, s *Server) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	gen, err := store.Save(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// serverFrom builds a server over dir the way a process does at start-up:
// its stream is the newest valid checkpoint generation in dir, or fresh when
// there is none. The server attaches no log.
func serverFrom(cfg Config, dir string) (*Server, error) {
	reg := obs.NewRegistry()
	return newServer(cfg, reg, obs.SingleStreamMetrics(reg), dir, nil)
}

// restoreServer makes ck the one generation of a fresh directory and builds a
// server from it: the one way a checkpoint enters a stream.
func restoreServer(t testing.TB, cfg Config, ck []byte) (*Server, error) {
	t.Helper()
	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(ck); err != nil {
		t.Fatal(err)
	}
	return serverFrom(cfg, dir)
}

// mustRestore is restoreServer for a checkpoint that must restore.
func mustRestore(t testing.TB, cfg Config, ck []byte) *Server {
	t.Helper()
	s, err := restoreServer(t, cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recoverServer opens the directory as a fresh process would and builds a
// server from the newest valid generation, which it reports.
func recoverServer(t *testing.T, dir string) (*Server, uint64) {
	t.Helper()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, gen, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	s, err := serverFrom(Config{
		Cluster: model.Config{Dims: 2, Eps: 2, MinPts: 4},
		Window:  200,
		Stride:  50,
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, gen
}

// TestKillAndRestartRecovery: ingest, checkpoint durably, abandon the
// server, recover from disk, and assert the recovered engine and stream
// position are identical — then keep streaming to prove the recovered
// service is live, not just a lookalike.
func TestKillAndRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	ts, s1 := newTestServer(t)
	rng := rand.New(rand.NewSource(21))
	postPoints(t, ts, clusteredBatch(rng, 0, 350)).Body.Close()
	checkpointTo(t, store, s1)

	preSnap := s1.st.eng.Snapshot()
	preStats := s1.st.eng.Stats()
	preIngested := s1.st.ingested
	ts.Close() // the "crash"

	s2, gen := recoverServer(t, dir)
	if gen != 1 {
		t.Fatalf("recovered generation %d, want 1", gen)
	}
	if !reflect.DeepEqual(s2.st.eng.Snapshot(), preSnap) {
		t.Fatal("recovered engine snapshot differs from pre-crash state")
	}
	if s2.st.eng.Stats() != preStats {
		t.Fatalf("recovered stats %+v, want %+v", s2.st.eng.Stats(), preStats)
	}
	if s2.st.ingested != preIngested {
		t.Fatalf("recovered ingested %d, want %d", s2.st.ingested, preIngested)
	}
	if got := s2.sm.Ingested.Value(); got != int64(preIngested) {
		t.Fatalf("recovered ingest counter %d, want %d", got, preIngested)
	}

	// The recovered service keeps clustering: stream more points through
	// its HTTP surface and watch strides advance.
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp := postPoints(t, ts2, clusteredBatch(rng, 1000, 100))
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-recovery ingest status %d", resp.StatusCode)
	}
	if after := s2.st.eng.Stats(); after.Strides <= preStats.Strides {
		t.Fatalf("recovered service stuck at stride %d", after.Strides)
	}
}

// TestRecoveryFallsBackToPreviousGeneration: with two durable generations
// on disk and the newest corrupted (bit flip, then truncations at several
// offsets), recovery must land on the older generation and restore the
// state checkpointed at that earlier moment.
func TestRecoveryFallsBackToPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	ts, s1 := newTestServer(t)
	rng := rand.New(rand.NewSource(22))
	postPoints(t, ts, clusteredBatch(rng, 0, 250)).Body.Close()
	checkpointTo(t, store, s1)
	genOneSnap := s1.st.eng.Snapshot() // state the fallback must restore

	postPoints(t, ts, clusteredBatch(rng, 250, 100)).Body.Close()
	gen2 := checkpointTo(t, store, s1)
	ts.Close()

	gen2Path := dir + "/" + "ckpt-0000000000000002.disc"
	pristine, err := os.ReadFile(gen2Path)
	if err != nil {
		t.Fatal(err)
	}
	_ = gen2

	corruptions := []struct {
		name string
		mut  func() []byte
	}{
		{"bit flip in payload", func() []byte {
			b := append([]byte(nil), pristine...)
			b[ckpt.HeaderSize+len(b)/2] ^= 0x10
			return b
		}},
		{"truncated header", func() []byte { return pristine[:ckpt.HeaderSize-3] }},
		{"truncated payload", func() []byte { return pristine[:len(pristine)-7] }},
		{"empty file", func() []byte { return nil }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(gen2Path, c.mut(), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, gen := recoverServer(t, dir)
			if gen != 1 {
				t.Fatalf("recovered generation %d, want fallback to 1", gen)
			}
			if !reflect.DeepEqual(s2.st.eng.Snapshot(), genOneSnap) {
				t.Fatal("fallback recovery does not restore the older checkpoint's state")
			}
		})
	}

	// With the newest generation intact again, recovery prefers it.
	if err := os.WriteFile(gen2Path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, gen := recoverServer(t, dir); gen != 2 {
		t.Fatalf("recovered generation %d with both intact, want 2", gen)
	}
}

// TestRunnerCheckpointsLiveServer wires the real Runner to a real Server —
// the same coupling cmd/discserver uses — and verifies CheckpointNow
// produces a generation a fresh process can recover.
func TestRunnerCheckpointsLiveServer(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	ts, s1 := newTestServer(t)
	rng := rand.New(rand.NewSource(23))
	postPoints(t, ts, clusteredBatch(rng, 0, 300)).Body.Close()

	runner := ckpt.NewRunner(store, s1, 1)
	wrote, err := runner.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Strides() == 0 {
		t.Fatal("test server never advanced a stride; checkpoint would be vacuous")
	}
	preSnap := s1.st.eng.Snapshot()
	ts.Close()

	s2, gen := recoverServer(t, dir)
	if gen != wrote {
		t.Fatalf("recovered generation %d, runner wrote %d", gen, wrote)
	}
	if !reflect.DeepEqual(s2.st.eng.Snapshot(), preSnap) {
		t.Fatal("runner-written checkpoint restores different engine state")
	}
}
