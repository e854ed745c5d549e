package server

// One durable directory per stream: the log is bounded by the checkpoints
// beside it, a follower needs nothing but that directory, and the layouts
// of the removed checkpoint-only and checkpoint-dir modes migrate into it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"disc/internal/ckpt"
)

// TestCheckpointInterval: a stream checkpoints once per window turnover,
// ceil(W/S) strides, whatever its geometry.
func TestCheckpointInterval(t *testing.T) {
	for _, c := range []struct {
		window, stride int
		want           uint64
	}{
		{100, 100, 1},     // W = S: every stride replaces the whole window
		{250, 100, 3},     // W not a multiple of S: rounded up
		{20000, 1000, 20}, // dtg_stride5
		{50000, 50, 1000}, // hires_smallstride
		{5000, 250, 20},   // smallbatch_durable
		{500, 100, 5},     // discload -failover
		{200, 50, 4},      // testWALConfig
	} {
		cfg := Config{Window: c.window, Stride: c.stride}
		if got := cfg.checkpointInterval(); got != c.want {
			t.Errorf("window %d, stride %d: interval %d strides, want %d", c.window, c.stride, got, c.want)
		}
	}
}

// TestCheckpointCadence: every runner a leader gets writes a generation when
// its stream's stride count crosses the next multiple of checkpointInterval,
// and not before — a stream registered fresh, one restarted over its
// directory, and a promoted follower alike. Each stream starts at a multiple
// of the interval, is left one stride short of the next, then given the last
// stride; the generation that lands is the stream's first.
func TestCheckpointCadence(t *testing.T) {
	cfg := Config{Cluster: testWALConfig().Cluster, Window: 150, Stride: 50}
	k := cfg.checkpointInterval() // 3
	rng := rand.New(rand.NewSource(97))
	var seq uint64
	// advance posts stride-sized batches until srv has completed n more
	// strides (a fresh window's first stride takes a window of points).
	advance := func(url string, srv *Server, n uint64) {
		t.Helper()
		for target := srv.Strides() + n; srv.Strides() < target; {
			seq++
			resp := postPointsSeq(t, url, clusteredBatch(rng, int64(seq)*1000, cfg.Stride), "script", seq)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch %d: status %d: %s", seq, resp.StatusCode, readBody(t, resp))
			}
			resp.Body.Close()
		}
	}
	// leaderDir runs a leader for two intervals, its writer never driven,
	// and abandons it, with a shutdown generation or without.
	leaderDir := func(checkpointed bool) string {
		dir := t.TempDir()
		m, err := NewMulti(MultiConfig{Default: cfg, WALDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(m.Handler())
		defer ts.Close()
		advance(ts.URL, m.Stream(DefaultStream), 2*k)
		if checkpointed {
			checkpointNow(m)
		}
		return dir
	}

	m, err := NewMulti(MultiConfig{Default: cfg, WALDir: leaderDir(true)})
	if err != nil {
		t.Fatal(err)
	}
	mts := httptest.NewServer(m.Handler())
	defer mts.Close()
	fresh, err := m.CreateStream("fresh", cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(FollowerConfig{Server: cfg, WALDir: leaderDir(false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(f.Handler())
	defer pts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var running sync.WaitGroup
	running.Add(2)
	go func() { defer running.Done(); m.RunCheckpoints(ctx) }()
	go func() {
		defer running.Done()
		if err := f.Run(ctx); err != nil {
			t.Errorf("promoted follower's Run: %v", err)
		}
	}()
	defer running.Wait() // the shutdown finals land before the directories go
	defer cancel()
	waitUntil(t, "both checkpoint writers", func() bool { return m.writer.Running() && f.writer.Running() })

	streams := []struct {
		name, url, metrics, stream string
		srv                        *Server
		from                       uint64 // strides when the runner was built
	}{
		{"registered", mts.URL + "/streams/fresh", mts.URL, "fresh", fresh, fresh.Strides()},
		{"restarted", mts.URL, mts.URL, DefaultStream, m.Stream(DefaultStream), m.Stream(DefaultStream).Strides()},
		{"promoted", pts.URL, pts.URL, DefaultStream, f.srv, f.srv.Strides()},
	}
	lastStrides := func(i int) float64 {
		st := streams[i]
		return metricValue(t, st.metrics, `disc_checkpoint_last_strides{stream="`+st.stream+`"}`)
	}
	for _, st := range streams {
		if st.from%k != 0 {
			t.Fatalf("%s stream starts at stride %d, not a multiple of %d", st.name, st.from, k)
		}
		advance(st.url, st.srv, k-1)
	}
	for i, st := range streams {
		if got := lastStrides(i); got != 0 {
			t.Errorf("%s stream: a generation at stride %g, %d strides past %d; want none before %d",
				st.name, got, k-1, st.from, k)
		}
		advance(st.url, st.srv, 1)
	}
	for i, st := range streams {
		want := float64(st.from + k)
		waitUntil(t, st.name+" stream's generation", func() bool { return lastStrides(i) == want })
		if got := metricValue(t, st.metrics, `disc_checkpoint_attempts_total{stream="`+st.stream+`"}`); got != 1 {
			t.Errorf("%s stream: %g checkpoint attempts by stride %g, want the one", st.name, got, want)
		}
	}
}

// TestLogBoundedByCheckpoints: a stream checkpointed every ceil(W/S)
// strides, its own interval, by the running writer keeps at most two
// intervals of log on disk and replays at most that many records on
// restart, at 10x and at 20x the window alike — what the stream's age adds
// is pruned. In general the bound is two intervals plus the strides of one
// batch; here a batch is one stride, one record, and one segment, so
// segments count strides, and each generation is waited for before the next
// batch, so none is skipped.
func TestLogBoundedByCheckpoints(t *testing.T) {
	setForTest(t, &walSegmentBytes, 1)
	cfg := testWALConfig()
	cfg.Window = 2 * cfg.Stride // W/S = 2: interval 2, bound 4
	k := cfg.checkpointInterval()
	dir := t.TempDir()
	m, err := NewMulti(MultiConfig{Default: cfg, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	defer driveCheckpoints(t, m)()
	leader := m.Stream(DefaultStream)
	rng := rand.New(rand.NewSource(91))
	ingested := 0
	for _, length := range []int{10 * cfg.Window, 20 * cfg.Window} {
		for ; ingested < length; ingested += cfg.Stride {
			postPoints(t, ts, clusteredBatch(rng, int64(ingested), cfg.Stride)).Body.Close()
			if strides := leader.Strides(); strides > 0 && strides%k == 0 {
				awaitGeneration(t, ts.URL, DefaultStream, strides)
			}
		}
		segs := walSegmentFiles(t, dir)
		restarted, err := serverFrom(cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := restarted.RecoverWAL(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d points, %d strides: %d segments on disk, %d records replayed on restart",
			length, leader.Strides(), len(segs), replayed)
		if uint64(len(segs)) > 2*k || uint64(replayed) > 2*k {
			t.Errorf("%d points: %d segments on disk and %d records replayed, want at most %d strides' worth",
				length, len(segs), replayed, 2*k)
		}
		if !bytes.Equal(checkpointBytes(t, restarted), checkpointBytes(t, leader)) {
			t.Fatalf("%d points: the restart over the pruned log diverged from the leader", length)
		}
	}
}

// TestCheckpointGenerationsFollowTheStream: a generation is a function of
// the stream, not of when it was written. Two leaders in separate
// directories, fed the same batches — sizes that straddle stride boundaries,
// some crossing two intervals at once — with every generation waited for
// before the next batch, write the same generations: byte-identical files
// under identical names, each captured at the stride count that ends the
// first batch to cross a multiple of the interval.
func TestCheckpointGenerationsFollowTheStream(t *testing.T) {
	cfg := testWALConfig() // window 200, stride 50: interval 4
	k := cfg.checkpointInterval()
	type leader struct {
		dir string
		url string
		srv *Server
	}
	leaders := make([]leader, 2)
	for i := range leaders {
		dir := t.TempDir()
		m, err := NewMulti(MultiConfig{Default: cfg, WALDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(m.Handler())
		defer ts.Close()
		defer driveCheckpoints(t, m)()
		leaders[i] = leader{dir, ts.URL, m.Stream(DefaultStream)}
	}
	rng := rand.New(rand.NewSource(101))
	generations := 0
	for seq := uint64(1); generations < 8; seq++ {
		pts := clusteredBatch(rng, int64(seq)*1000, 20+rng.Intn(250))
		before := leaders[0].srv.Strides()
		for _, l := range leaders {
			resp := postPointsSeq(t, l.url, pts, "script", seq)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch %d: status %d: %s", seq, resp.StatusCode, readBody(t, resp))
			}
			resp.Body.Close()
		}
		after := leaders[0].srv.Strides()
		if after/k == before/k {
			continue
		}
		generations++
		for _, l := range leaders {
			awaitGeneration(t, l.url, DefaultStream, after)
		}
		name := fmt.Sprintf("ckpt-%016d.disc", generations)
		var files [2][]byte
		for i, l := range leaders {
			gens := generationFiles(t, l.dir)
			if got := filepath.Base(gens[len(gens)-1]); got != name {
				t.Fatalf("leader %d: newest generation %s after crossing %d, want %s", i, got, generations, name)
			}
			b, err := os.ReadFile(gens[len(gens)-1])
			if err != nil {
				t.Fatal(err)
			}
			files[i] = b
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Fatalf("%s differs between the two leaders (%d vs %d bytes)", name, len(files[0]), len(files[1]))
		}
		t.Logf("batch %d: strides %d → %d, %s", seq, before, after, name)
	}
}

// TestLogBoundedAcrossLeaderChange: a leader that takes over a directory,
// restarted over it or promoted from a follower of it, counts the generation
// it recovered from as its previous checkpoint. So its first generation
// already prunes the log back to that one, and the log stays within
// TestLogBoundedByCheckpoints' two intervals across the change. (When the
// prune point started at 0 on every attach, that first generation pruned
// nothing: the restarted leader's left 5 segments, the promoted one's 8.)
// The pruned log must still serve a recovery that falls back to the older
// generation.
func TestLogBoundedAcrossLeaderChange(t *testing.T) {
	setForTest(t, &walSegmentBytes, 1)
	cfg := testWALConfig()
	cfg.Window = 2 * cfg.Stride // W/S = 2: interval 2, bound 4
	k := cfg.checkpointInterval()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(93))
	ingested := 0
	// post advances a leader by n strides.
	post := func(ts *httptest.Server, srv *Server, n uint64) {
		t.Helper()
		for target := srv.Strides() + n; srv.Strides() < target; ingested += cfg.Stride {
			postPoints(t, ts, clusteredBatch(rng, int64(ingested), cfg.Stride)).Body.Close()
		}
	}
	bounded := func(when string, srv *Server) {
		t.Helper()
		segs := walSegmentFiles(t, dir)
		t.Logf("%s: stride %d, %d segments on disk", when, srv.Strides(), len(segs))
		if uint64(len(segs)) > 2*k {
			t.Errorf("%s: %d segments on disk, want at most %d strides' worth", when, len(segs), 2*k)
		}
		// Recover as if the newest generation were lost: from the older
		// one, the generation the prune point was taken from, and the log.
		gens := generationFiles(t, dir)
		newest, err := os.ReadFile(gens[len(gens)-1])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(gens[len(gens)-1]); err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(gens[len(gens)-1], newest, 0o644)
		fallback, err := serverFrom(cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fallback.RecoverWAL(dir, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(checkpointBytes(t, fallback), checkpointBytes(t, srv)) {
			t.Fatalf("%s: recovery from the older generation diverged from the leader", when)
		}
	}

	m, err := NewMulti(MultiConfig{Default: cfg, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	for ingested < 10*cfg.Window {
		post(ts, m.Stream(DefaultStream), k)
		checkpointNow(m)
	}
	bounded("first leader", m.Stream(DefaultStream))
	// Each leader dies a stride past its newest generation, with no final
	// one: the stride survives in the log alone.
	post(ts, m.Stream(DefaultStream), 1)
	ts.Close()

	m, err = NewMulti(MultiConfig{Default: cfg, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(m.Handler())
	post(ts, m.Stream(DefaultStream), k)
	checkpointNow(m)
	bounded("restarted leader's first generation", m.Stream(DefaultStream))
	post(ts, m.Stream(DefaultStream), 1)
	ts.Close()

	f, err := NewFollower(FollowerConfig{Server: cfg, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(f.Handler())
	defer ts.Close()
	post(ts, f.srv, k)
	// A canceled context: Run drives the promoted leader's runner to its
	// shutdown generation and returns.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Run(ctx); err != nil {
		t.Fatal(err)
	}
	bounded("promoted leader's first generation", f.srv)
}

// TestFollowerRestoresPrunedLeaderDir: a follower given nothing but the
// leader's directory, whose log no longer starts at 0, restores the newest
// generation there, replays the log past it, and serves what the leader
// serves. Without the restore it would stop at the pruned head with a wal
// gap.
func TestFollowerRestoresPrunedLeaderDir(t *testing.T) {
	setForTest(t, &walSegmentBytes, 1)
	cfg := testWALConfig()
	dir := t.TempDir()
	m, err := NewMulti(MultiConfig{Default: cfg, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(m.Handler())
	defer lts.Close()
	leader := m.Stream(DefaultStream)
	rng := rand.New(rand.NewSource(95))
	// 40-point batches straddle the stride boundaries. The last one lands
	// past the newest generation, so the follower matches the leader only
	// once it has replayed the log.
	for seq := uint64(1); seq <= 25; seq++ {
		resp := postPointsSeq(t, lts.URL, clusteredBatch(rng, int64(seq)*1000, 40), "script", seq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", seq, resp.StatusCode)
		}
		resp.Body.Close()
		if seq < 25 && leader.Strides()%2 == 0 {
			checkpointNow(m)
		}
	}
	if segs := walSegmentFiles(t, dir); segs[0] == fixtureSegment {
		t.Fatalf("the leader's log still starts at 0 (%d segments): nothing was pruned", len(segs))
	}

	f, err := NewFollower(FollowerConfig{Server: cfg, WALDir: dir, Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
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
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("follower's Run: %v", err)
	}
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	assertSameBodies(t, lts.URL, fts.URL, "/checkpoint", "/clusters", "/stats", "/points/25039")
}

// TestLegacyCheckpointOnlyDirAsLogDir: a directory the removed
// checkpoint-only mode wrote — generations and no log — restarted as a log
// directory restores its newest generation and keeps ingesting. The log
// starts beside the generations at the restored position, and a second
// restart recovers generation and log together.
func TestLegacyCheckpointOnlyDirAsLogDir(t *testing.T) {
	cfg := testWALConfig()
	dir := t.TempDir()
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(ref.Handler())
	defer rts.Close()
	post := func(ts *httptest.Server, from, to int) {
		t.Helper()
		for i := from; i < to; i++ { // batch i is the same on every stream
			resp := postPoints(t, ts, clusteredBatch(rand.New(rand.NewSource(int64(i))), int64(i)*1000, cfg.Stride))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch %d: status %d", i, resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
	// The checkpoint-only mode: an in-memory stream, checkpointed into dir
	// at a stride boundary.
	post(rts, 0, 5)
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(checkpointBytes(t, ref)); err != nil {
		t.Fatal(err)
	}

	mcfg := MultiConfig{Default: cfg, WALDir: dir}
	m, err := NewMulti(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	mts := httptest.NewServer(m.Handler())
	defer mts.Close()
	assertSameBodies(t, rts.URL, mts.URL, "/checkpoint", "/clusters")
	post(rts, 5, 12)
	post(mts, 5, 12)
	assertSameBodies(t, rts.URL, mts.URL, "/checkpoint", "/clusters", "/stats")
	if segs := walSegmentFiles(t, dir); len(segs) == 0 || segs[0] != fmt.Sprintf("wal-%020d.wseg", 5*cfg.Stride) {
		t.Fatalf("log segments %v, want the log to start at the restored position %d", segs, 5*cfg.Stride)
	}

	m2, err := NewMulti(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	mts2 := httptest.NewServer(m2.Handler())
	defer mts2.Close()
	assertSameBodies(t, rts.URL, mts2.URL, "/checkpoint", "/clusters", "/stats")
}

// TestLegacyPairLayout: the pair the removed checkpoint-dir mode left — the
// generations in a directory of their own, the log they bound in the log
// directory. File names and formats are unchanged, so the pair is a
// one-directory stream with its generations moved out. Moved back into the
// log tree, they recover the stream byte for byte; left behind, the pruned
// log fails stream creation with a wal gap instead of starting fresh.
func TestLegacyPairLayout(t *testing.T) {
	setForTest(t, &walSegmentBytes, 1)
	cfg := testWALConfig()
	paths := []string{"/checkpoint", "/stats", "/clusters"}
	pair := func(t *testing.T) (logDir, ckptDir string, want map[string]string) {
		logDir, ckptDir = t.TempDir(), t.TempDir()
		mcfg := MultiConfig{Default: cfg, WALDir: logDir}
		m, err := NewMulti(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(m.Handler())
		rng := rand.New(rand.NewSource(99))
		for seq := uint64(1); seq <= 16; seq++ {
			postPointsSeq(t, ts.URL, clusteredBatch(rng, int64(seq)*1000, 40), "script", seq).Body.Close()
			if m.Stream(DefaultStream).Strides()%2 == 0 {
				checkpointNow(m)
			}
		}
		ts.Close()
		if walSegmentFiles(t, logDir)[0] == fixtureSegment {
			t.Fatal("the log still starts at 0: nothing was pruned")
		}
		// What the stream serves restarted over its one directory.
		one, err := NewMulti(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		ots := httptest.NewServer(one.Handler())
		defer ots.Close()
		want = map[string]string{}
		for _, path := range paths {
			want[path] = getBodyString(t, ots.URL+path)
		}
		moveGenerations(t, logDir, ckptDir)
		return logDir, ckptDir, want
	}

	t.Run("generations moved into the log tree", func(t *testing.T) {
		logDir, ckptDir, want := pair(t)
		moveGenerations(t, ckptDir, logDir)
		m, err := NewMulti(MultiConfig{Default: cfg, WALDir: logDir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(m.Handler())
		defer ts.Close()
		for _, path := range paths {
			if got := getBodyString(t, ts.URL+path); got != want[path] {
				t.Fatalf("%s after the migration:\n got %.300s\nwant %.300s", path, got, want[path])
			}
		}
	})
	t.Run("generations left behind", func(t *testing.T) {
		logDir, _, _ := pair(t)
		if _, err := NewMulti(MultiConfig{Default: cfg, WALDir: logDir}); err == nil || !strings.Contains(err.Error(), "wal gap") {
			t.Fatalf("a pruned log without its generations: %v, want a wal gap", err)
		}
	})
}

// setForTest sets one of the package's settings (walSegmentBytes,
// eventLogCap, maxIngestBytes, maxStreams, metricStreams) for the rest of
// the test.
func setForTest[T any](t testing.TB, setting *T, v T) {
	old := *setting
	*setting = v
	t.Cleanup(func() { *setting = old })
}

// checkpointNow runs the registry's checkpoint writer with a canceled
// context: one shutdown generation for every stream with unsaved strides,
// and the log pruned behind the previous one.
func checkpointNow(m *Multi) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.RunCheckpoints(ctx)
}

// driveCheckpoints runs m's checkpoint writer until the returned stop, which
// waits for its shutdown finals. It returns once the writer accepts
// captures, so the next crossing batch takes one.
func driveCheckpoints(t *testing.T, m *Multi) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { m.RunCheckpoints(ctx); close(done) }()
	waitUntil(t, "the checkpoint writer", m.writer.Running)
	return func() { cancel(); <-done }
}

// awaitGeneration waits until the stream served at base has reported a
// generation at the given stride count: written, its log pruned, and the
// stream's next crossing free to capture again.
func awaitGeneration(t *testing.T, base, stream string, strides uint64) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("the generation at stride %d", strides), func() bool {
		return metricValue(t, base, `disc_checkpoint_last_strides{stream="`+stream+`"}`) == float64(strides)
	})
}

// moveGenerations moves every checkpoint generation in from into to.
func moveGenerations(t *testing.T, from, to string) {
	t.Helper()
	for _, gen := range generationFiles(t, from) {
		if err := os.Rename(gen, filepath.Join(to, filepath.Base(gen))); err != nil {
			t.Fatal(err)
		}
	}
}

// eventKept matches /stats's size of the in-memory event ring, which a
// restore does not carry: a restore keeps eventSeq, not the ring.
var eventKept = regexp.MustCompile(`,"eventKept":\d+`)

// assertSameBodies fails unless got serves want's bodies at every path,
// /stats compared without its eventKept member.
func assertSameBodies(t *testing.T, wantBase, gotBase string, paths ...string) {
	t.Helper()
	for _, path := range paths {
		want, got := getBodyString(t, wantBase+path), getBodyString(t, gotBase+path)
		if path == "/stats" {
			want, got = eventKept.ReplaceAllString(want, ""), eventKept.ReplaceAllString(got, "")
		}
		if got != want {
			t.Fatalf("%s diverged:\n got %.300s\nwant %.300s", path, got, want)
		}
	}
}

// generationFiles lists the checkpoint generation paths in dir, oldest first.
func generationFiles(t *testing.T, dir string) []string {
	t.Helper()
	gens, err := filepath.Glob(filepath.Join(dir, "ckpt-*.disc"))
	if err != nil {
		t.Fatal(err)
	}
	return gens
}

// cutLogToNewestGeneration drops every log record in dir that ends at or
// before the stride boundary of dir's newest checkpoint generation, as a
// leader's pruning does given enough checkpoints. What those records carried
// is then recoverable from the generation alone, so a restart that passes
// after the cut did restore it: log replay alone stops with a wal gap.
func cutLogToNewestGeneration(t *testing.T, dir string, cfg Config) {
	t.Helper()
	s, err := serverFrom(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	pos := cfg.boundaryPos(s.Strides())
	type record struct {
		pos     uint64
		payload []byte
	}
	var keep []record
	r := ckpt.OpenWALReader(dir, 0, s.walRecordMaxPayload())
	for {
		at, payload, err := r.Next()
		if errors.Is(err, ckpt.ErrWALWait) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeWALRecord(payload, cfg.Cluster.Dims)
		if err != nil {
			t.Fatal(err)
		}
		if rec.end() > pos {
			keep = append(keep, record{at, append([]byte(nil), payload...)})
		}
	}
	r.Close()
	if pos == 0 || len(keep) > 0 && keep[0].pos == 0 {
		t.Fatalf("no log record ends at or before the newest generation's position %d: the cut cannot tell a restore from a replay", pos)
	}
	for _, seg := range walSegmentFiles(t, dir) {
		if err := os.Remove(filepath.Join(dir, seg)); err != nil {
			t.Fatal(err)
		}
	}
	w, err := ckpt.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, rec := range keep {
		if err := w.Append(rec.pos, rec.payload); err != nil {
			t.Fatal(err)
		}
	}
}
