package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"disc/internal/ckpt"
	"disc/internal/core"
	"disc/internal/dbscan"
	"disc/internal/geom"
	"disc/internal/metrics"
	"disc/internal/model"
	"disc/internal/wire"
)

// testdata/pre_pr13 was written by the commit before the ε-grid became the
// engine's index (R-tree engine, IndexKind 0 in the snapshot, hints without
// flags): a leader under fixtureConfig ingested ingestScript(seed 1313, 12
// batches of 37) — 444 points: the 200-point window, 4 more strides, 44
// pending; 18 borders and 20 noise points in the last window — and then
// saved its checkpoint, its write-ahead log directory and the three bodies
// the same commit served after restoring that checkpoint. testdata/pre_codec
// is the same recipe under seed 2424, written by the last commit whose three
// durable formats were gob (ε-grid engine, slot arena, hint flags). These
// tests are what "old data recovers on the new binary" means.

func fixtureConfig() Config {
	return Config{Cluster: model.Config{Dims: 2, Eps: 0.7, MinPts: 6}, Window: 200, Stride: 50}
}

const fixtureSegment = "wal-00000000000000000000.wseg"

func fixtureIn(t testing.TB, set, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", set, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fixtureLog copies a fixture's one-segment log into a fresh directory:
// recovery repairs and appends to the directory it is given.
func fixtureLog(t testing.TB, set string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fixtureSegment), fixtureIn(t, set, filepath.Join("wal", fixtureSegment)), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// gobEnvelope writes env the way WriteCheckpoint did before the codec.
func gobEnvelope(t testing.TB, env *checkpointEnvelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertExact holds the server's engine to from-scratch DBSCAN on its window.
func assertExact(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	win := s.st.slider.Window()
	if err := metrics.SameClustering(s.st.eng.Snapshot(), dbscan.Run(win, s.cfg.Cluster), win, s.cfg.Cluster); err != nil {
		t.Fatal(err)
	}
}

// checkpointRestores: a checkpoint an earlier commit wrote restores onto
// today's engine (the index is not checkpoint state), serves the bodies that
// commit served byte for byte, and stays exact over 20 more strides.
func checkpointRestores(t *testing.T, set string) {
	s := mustRestore(t, fixtureConfig(), fixtureIn(t, set, "checkpoint.bin"))
	if n := s.st.eng.WindowSize(); n != 200 {
		t.Fatalf("restored a %d-point window, want the 200-point window", n)
	}
	if got := s.st.eng.IndexName(); got != "grid" {
		t.Fatalf("restored onto the %q index, want the default grid", got)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, ep := range []string{"clusters", "stats", "events"} {
		if got, want := getBodyString(t, ts.URL+"/"+ep), string(fixtureIn(t, set, ep+".json")); got != want {
			t.Errorf("/%s after restore:\n%s\nthe recording commit served:\n%s", ep, got, want)
		}
	}
	assertExact(t, s)
	rng := rand.New(rand.NewSource(1314))
	for i := 0; i < 20; i++ {
		// A checkpoint holds the last stride boundary — the leader's 44 pending
		// points are not in it — so each 50-point batch is exactly one stride.
		resp := postPoints(t, ts, clusteredBatch(rng, 1_000_000+int64(i)*1000, 50))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stride %d after restore: status %d: %s", i, resp.StatusCode, readBody(t, resp))
		}
		resp.Body.Close()
		assertExact(t, s)
	}
}

// walRecovers: a log an earlier commit's leader wrote replays on this binary
// into exactly the state a new leader reaches on the same batches (replay and
// live ingest are one computation), and that state is exact.
func walRecovers(t *testing.T, set string, seed int64) {
	dir := fixtureLog(t, set)
	cfg := fixtureConfig()
	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := recovered.RecoverWAL(dir, nil); err != nil || n != 12 {
		t.Fatalf("RecoverWAL = %d records, %v; want 12", n, err)
	}
	assertExact(t, recovered)

	liveTS, live, _ := newWALServer(t, cfg)
	ingestScript(t, liveTS.URL, seed, 12, 37)
	if !bytes.Equal(checkpointBytes(t, recovered), checkpointBytes(t, live)) {
		t.Fatal("state replayed from the recorded log differs from a live run of the same batches")
	}
	recTS := httptest.NewServer(recovered.Handler())
	defer recTS.Close()
	for _, ep := range []string{"/clusters", "/stats", "/events"} {
		if got, want := getBodyString(t, recTS.URL+ep), getBodyString(t, liveTS.URL+ep); got != want {
			t.Errorf("%s: replayed\n%s\nlive\n%s", ep, got, want)
		}
	}
}

func TestPrePRCheckpointRestores(t *testing.T)    { checkpointRestores(t, "pre_pr13") }
func TestPrePRWALRecovers(t *testing.T)           { walRecovers(t, "pre_pr13", 1313) }
func TestPreCodecCheckpointRestores(t *testing.T) { checkpointRestores(t, "pre_codec") }
func TestPreCodecWALRecovers(t *testing.T)        { walRecovers(t, "pre_codec", 2424) }

// TestMixedLogRecovers: one log may hold both generations of record. A leader
// on this binary recovers the gob log of testdata/pre_codec, appends to it —
// the appended records are in the codec's form, the first byte of each payload
// says so — and a second recovery of the mixed log reaches the state of a
// leader that ingested the union live.
func TestMixedLogRecovers(t *testing.T) {
	dir := fixtureLog(t, "pre_codec")
	cfg := fixtureConfig()
	more := func(url string) {
		rng := rand.New(rand.NewSource(2425))
		for i := 12; i < 20; i++ {
			resp := postPointsSeq(t, url, clusteredBatch(rng, int64(i)*10_000, 37), "script", uint64(i+1))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch %d: status %d: %s", i, resp.StatusCode, readBody(t, resp))
			}
			resp.Body.Close()
		}
	}

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := first.RecoverWAL(dir, nil); err != nil || n != 12 {
		t.Fatalf("RecoverWAL = %d records, %v; want 12", n, err)
	}
	w, err := ckpt.OpenWAL(dir, ckpt.WithWALMaxPayload(first.walRecordMaxPayload()))
	if err != nil {
		t.Fatal(err)
	}
	first.AttachWAL(w)
	firstTS := httptest.NewServer(first.Handler())
	more(firstTS.URL)
	firstTS.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var forms [2]int // gob, codec
	r := ckpt.OpenWALReader(dir, 0, first.walRecordMaxPayload())
	for {
		_, payload, err := r.Next()
		if errors.Is(err, ckpt.ErrWALWait) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if wire.IsGob(payload) {
			forms[0]++
		} else {
			forms[1]++
		}
	}
	r.Close()
	if forms != [2]int{12, 8} {
		t.Fatalf("log holds %d gob and %d codec records, want 12 and 8", forms[0], forms[1])
	}

	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := second.RecoverWAL(dir, nil); err != nil || n != 20 {
		t.Fatalf("RecoverWAL of the mixed log = %d records, %v; want 20", n, err)
	}
	assertExact(t, second)
	liveTS, live, _ := newWALServer(t, cfg)
	ingestScript(t, liveTS.URL, 2424, 12, 37)
	more(liveTS.URL)
	if !bytes.Equal(checkpointBytes(t, second), checkpointBytes(t, live)) {
		t.Fatal("state recovered from the mixed log differs from a live run of the same batches")
	}
}

// settingsEraSnapshot is the engine snapshot as commits before PR 15 wrote
// it, with the four settings an engine used to carry into its checkpoints.
// gob matches fields by name, so encoding this type produces what such a
// commit's SaveSnapshot did.
type settingsEraSnapshot struct {
	Version      int
	Cfg          model.Config
	UseMSBFS     bool
	UseEpoch     bool
	Workers      int
	ConnStrategy uint8
	NextCID      int
	Stride       uint64
	Stats        model.Stats
	Points       []struct {
		ID         int64
		Pos        geom.Vec
		N, CoreDeg int32
		CID        int
		Hint       int64
		Label      model.Label
		WasCore    bool
		HasHint    bool
	}
	HintFlags bool
}

// engineSettings reads how an engine was built off its unexported fields —
// nothing a server exposes can show them, which is why a checkpoint must not
// be able to set them.
func engineSettings(e *core.Engine) string {
	v := reflect.ValueOf(e).Elem()
	return fmt.Sprintf("useMSBFS=%v useEpoch=%v workers=%d connStrategy=%d forest=%v",
		v.FieldByName("useMSBFS").Bool(), v.FieldByName("useEpoch").Bool(), v.FieldByName("workers").Int(),
		v.FieldByName("connStrategy").Uint(), !v.FieldByName("forest").IsNil())
}

// TestRestoreIgnoresPersistedSettings is the regression for the uploaded
// checkpoint that reconfigured the serving engine: an envelope whose engine
// snapshot was saved by core.New(cfg, WithMSBFS(false), WithEpochProbing(false),
// WithWorkers(64), WithConnectivity(ConnDynamic)) was answered 200 and left
// the stream on sequential BFS, no epoch reuse and 64 workers — modes no
// flag, stream spec or /stats field can set or show. A checkpoint supplies
// state; the server builds its engine one way, and a checkpoint now enters a
// stream only from its directory, so the rule is checked there.
func TestRestoreIgnoresPersistedSettings(t *testing.T) {
	cfg := fixtureConfig()
	// Only a gob snapshot has anywhere to put settings, so the donor is the
	// one whose checkpoint the commit before the codec recorded.
	var env checkpointEnvelope
	if err := gob.NewDecoder(bytes.NewReader(fixtureIn(t, "pre_codec", "checkpoint.bin"))).Decode(&env); err != nil {
		t.Fatal(err)
	}
	var snap settingsEraSnapshot
	if err := gob.NewDecoder(bytes.NewReader(env.Engine)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	snap.UseMSBFS, snap.UseEpoch, snap.Workers, snap.ConnStrategy = false, false, 64, uint8(core.ConnDynamic)
	var engBuf bytes.Buffer
	if err := gob.NewEncoder(&engBuf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	env.Engine = engBuf.Bytes()
	envBytes := gobEnvelope(t, &env)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := engineSettings(s.st.eng)
	if want := "useMSBFS=true useEpoch=true workers=1 connStrategy=0 forest=false"; fresh != want {
		t.Fatalf("a fresh server's engine runs %s, want %s", fresh, want)
	}
	s = mustRestore(t, cfg, envBytes)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if got := engineSettings(s.st.eng); got != fresh {
		t.Fatalf("the restored checkpoint reconfigured the serving engine:\n got %s\nwant %s", got, fresh)
	}
	if got, want := getBodyString(t, ts.URL+"/clusters"), string(fixtureIn(t, "pre_codec", "clusters.json")); got != want {
		t.Errorf("/clusters after restore:\n%s\nthe donor served:\n%s", got, want)
	}
	rng := rand.New(rand.NewSource(1516))
	for i := 0; i < 5; i++ {
		resp := postPoints(t, ts, clusteredBatch(rng, 1_000_000+int64(i)*1000, 50))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stride %d after restore: status %d: %s", i, resp.StatusCode, readBody(t, resp))
		}
		resp.Body.Close()
		assertExact(t, s)
	}
}
