package server

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"disc/internal/ckpt"
)

// TestFollowerPromotionCheckpointsAndPrunes: a promoted follower is a leader
// like any other. It checkpoints into the dead leader's directory with
// generations numbered past the dead leader's, prunes the log behind them,
// reports both in its own /metrics, and writes a final generation when Run's
// context ends; a leader restarted on the directory serves what the
// promoted one served.
func TestFollowerPromotionCheckpointsAndPrunes(t *testing.T) {
	cfg := testWALConfig() // window 200, stride 50
	walDir := t.TempDir()

	// The dead leader: a log cut into small segments, so there are whole
	// segments behind the promoted leader's checkpoints to prune, and two
	// checkpoint generations of its own.
	leader, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ckpt.OpenWAL(walDir, ckpt.WithWALSegmentBytes(4<<10),
		ckpt.WithWALMaxPayload(leader.walRecordMaxPayload()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	leader.AttachWAL(w)
	lts := httptest.NewServer(leader.Handler())
	store, err := ckpt.Open(walDir)
	if err != nil {
		t.Fatal(err)
	}
	leaderRunner := ckpt.NewRunner(store, leader, 1)

	rng := rand.New(rand.NewSource(81))
	var seq uint64
	ingest := func(url string, batches, per int) {
		t.Helper()
		for i := 0; i < batches; i++ {
			seq++
			resp := postPointsSeq(t, url, clusteredBatch(rng, int64(seq)*1000, per), "script", seq)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch %d: status %d: %s", seq, resp.StatusCode, readBody(t, resp))
			}
			resp.Body.Close()
		}
	}
	// 40-point batches straddle stride boundaries; the script still ends on
	// one (800 points, then whole strides), so no view lags a pending tail.
	ingest(lts.URL, 8, 40)
	if _, err := leaderRunner.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ingest(lts.URL, 8, 40)
	deadGen, err := leaderRunner.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	ingest(lts.URL, 4, 40) // past the newest generation: only the log has these

	every := int(cfg.checkpointInterval())
	f, err := NewFollower(FollowerConfig{Server: cfg, WALDir: walDir, Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()
	waitUntil(t, "follower catch-up", func() bool {
		leader.mu.Lock()
		lead := leader.st.ingested
		leader.mu.Unlock()
		f.srv.mu.Lock()
		defer f.srv.mu.Unlock()
		return f.srv.st.ingested == lead
	})
	lts.Close() // the leader dies: no final checkpoint, no log close
	segsBefore := walSegmentFiles(t, walDir)
	if len(segsBefore) < 3 {
		t.Fatalf("dead leader's log has %d segments, want several to prune", len(segsBefore))
	}

	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	resp, err := http.Post(fts.URL+"/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	resp.Body.Close()

	// Two rounds of `every` strides each, every round waited out until the
	// writer has reported its checkpoint: two generations of the promoted
	// leader.
	waitUntil(t, "the promoted leader's checkpoint writer", f.writer.Running)
	newest := func() uint64 {
		gens, err := store.Generations()
		if err != nil || len(gens) == 0 {
			t.Fatalf("generations %v: %v", gens, err)
		}
		return gens[len(gens)-1]
	}
	for round := 1; round <= 2; round++ {
		ingest(fts.URL, every, cfg.Stride)
		waitUntil(t, "promoted leader's checkpoint", func() bool {
			return metricValue(t, fts.URL, `disc_checkpoint_generation{stream="default"}`) == float64(deadGen+uint64(round))
		})
	}
	// Save publishes a generation before it prunes the old ones, so the
	// newest can be seen while the dead leader's are still there.
	waitUntil(t, "the dead leader's generations pruned", func() bool {
		gens, err := store.Generations()
		return err == nil && len(gens) > 0 && gens[0] > deadGen
	})
	waitUntil(t, "log truncation", func() bool { return len(walSegmentFiles(t, walDir)) < len(segsBefore) })
	if _, err := os.Stat(filepath.Join(walDir, segsBefore[0])); !os.IsNotExist(err) {
		t.Fatalf("oldest segment %s survived two checkpoints past it (stat err %v)", segsBefore[0], err)
	}
	for _, name := range []string{"disc_checkpoint_attempts_total", "disc_checkpoint_bytes_total",
		"disc_checkpoint_generation", "disc_checkpoint_last_strides", "disc_wal_truncated_segments_total"} {
		if v := metricValue(t, fts.URL, name+`{stream="default"}`); v <= 0 {
			t.Errorf("promoted leader's /metrics: %s = %g, want > 0", name, v)
		}
	}
	if got := metricValue(t, fts.URL, `disc_checkpoint_generation{stream="default"}`); got != float64(deadGen+2) {
		t.Errorf("disc_checkpoint_generation = %g, want %d", got, deadGen+2)
	}

	// One more stride, below the cadence, then shutdown: the final
	// generation captures it.
	ingest(fts.URL, 1, cfg.Stride)
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("promoted follower's Run: %v", err)
	}
	if got := newest(); got != deadGen+3 {
		t.Fatalf("newest generation after shutdown %d, want the final %d", got, deadGen+3)
	}
	payload, _, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, checkpointBytes(t, f.srv)) {
		t.Fatal("final generation is not the promoted leader's state at shutdown")
	}

	// A leader restarted on the directory serves what the promoted leader
	// served; its log no longer starts at 0, so only a restore gets there.
	// The ring of recent events lives in memory only (a restore keeps
	// eventSeq, not the ring), so /stats is compared without its eventKept
	// member.
	m, err := NewMulti(MultiConfig{Default: cfg, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(m.Handler())
	defer rts.Close()
	assertSameBodies(t, fts.URL, rts.URL, "/clusters", "/stats", "/checkpoint")
}

// TestFollowerMetricsMatchLeader: a follower's disc_* series have the names
// and labels of its leader's, before and after promotion, apart from its own
// disc_replica_* family, so dashboards keep working across a failover. The
// follower used to record into the unlabeled single-stream bundle while the
// leader's default stream carries {stream="default"}.
func TestFollowerMetricsMatchLeader(t *testing.T) {
	cfg := testWALConfig()
	dir := t.TempDir()
	m, err := NewMulti(MultiConfig{Default: cfg, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(m.Handler())
	defer lts.Close()
	postPoints(t, lts, clusteredBatch(rand.New(rand.NewSource(85)), 0, 300)).Body.Close()
	want := seriesKeys(t, lts.URL)

	f, err := NewFollower(FollowerConfig{Server: cfg, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	for _, stage := range []string{"following", "promoted"} {
		if stage == "promoted" {
			if err := f.Promote(); err != nil {
				t.Fatal(err)
			}
		}
		if got := seriesKeys(t, fts.URL); !slices.Equal(got, want) {
			t.Errorf("%s follower's disc_* series differ from the leader's:\n got %q\nwant %q", stage, got, want)
		}
	}
}

// seriesKeys returns the sorted series (name and labels) of base's /metrics
// in the disc_* namespace, the replica's own disc_replica_* family excluded.
func seriesKeys(t *testing.T, base string) []string {
	t.Helper()
	var keys []string
	for _, line := range strings.Split(getBodyString(t, base+"/metrics"), "\n") {
		key, _, ok := strings.Cut(line, " ")
		if ok && strings.HasPrefix(key, "disc_") && !strings.HasPrefix(key, "disc_replica_") {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	return keys
}

// TestMultiWALOnlyWritesOnlyLogSegments pins the path the end-to-end
// benchmark's durable workload runs: a registry with a log directory whose
// checkpoint writer is never run (RunCheckpoints is not called)
// writes nothing into the directory but log segments, fresh and on
// recovery.
func TestMultiWALOnlyWritesOnlyLogSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := MultiConfig{Default: testWALConfig(), WALDir: dir}
	rng := rand.New(rand.NewSource(83))
	for round := 1; round <= 2; round++ {
		m, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(m.Handler())
		if round == 2 {
			var sr statsResponse
			getJSON(t, ts.URL+"/stats", &sr)
			if sr.Ingested != 450 {
				t.Fatalf("recovered ingested=%d, want 450", sr.Ingested)
			}
		}
		for i := 0; i < 9; i++ {
			postPoints(t, ts, clusteredBatch(rng, int64(round*100+i)*1000, 50)).Body.Close()
		}
		ts.Close()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			t.Fatalf("round %d: no log segment written", round)
		}
		for _, e := range entries {
			if e.IsDir() || !walSegName.MatchString(e.Name()) {
				t.Fatalf("round %d: WAL-only registry wrote %q beside its log segments", round, e.Name())
			}
		}
	}
}

var walSegName = regexp.MustCompile(`^wal-\d{20}\.wseg$`)

// walSegmentFiles lists the log segment names in dir, oldest first.
func walSegmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if walSegName.MatchString(e.Name()) {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

// waitUntil polls cond for up to 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
