package disc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestSourceGuards holds the program code to decisions a rename could
// otherwise undo without a failing test: each row counts the lines of a set
// of non-test Go files that match a pattern, and wants an exact count — 0
// for a name that is gone, 1 for the one place something may happen.
func TestSourceGuards(t *testing.T) {
	var all []string // every non-test Go file of the repository
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			all = append(all, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// in selects the files of one directory (not its subdirectories).
	in := func(dir string) []string {
		var out []string
		for _, f := range all {
			if filepath.ToSlash(filepath.Dir(f)) == dir {
				out = append(out, f)
			}
		}
		return out
	}
	server, core := in("internal/server"), in("internal/core")

	for _, g := range []struct {
		name    string
		why     string
		files   []string
		pattern string
		want    int
	}{
		{"gob is read-only",
			"the decoders still accept what earlier binaries wrote, and nothing writes it any more",
			all, `gob\.NewEncoder`, 0},
		{"single write path",
			"points enter a stream's slider from (*stream).apply and nowhere else, so live ingest, recovery, tailing and promotion cannot drift apart",
			server, `slider\.Push\(`, 1},
		{"single leader attach",
			"a registered stream and a promoted follower open their log in the one attach step, (*Server).attachLeader, which also builds the checkpoint runner",
			server, `ckpt\.OpenWAL\(`, 1},
		{"one durable directory",
			"log segments and checkpoint generations live together under -wal-dir; no second root",
			all, `CheckpointDir|checkpoint-dir`, 0},
		{"no one-value settings",
			"the checkpoint interval is one window turnover, and the server's one-value settings are constants, not fields or flags",
			all, `CheckpointEvery|checkpoint-every|MaxIngestBytes|EventLog|TraceConfig|trace-recent|trace-slow|MaxStreams|MetricStreams|max-streams|metric-streams`, 0},
		{"no checkpoint poll",
			"the batch that completes the interval takes the checkpoint, carrying its own trace: no clock polls the runners",
			all, `Scheduler|DefaultPoll|WithSchedulerPoll|TraceSource|strideCtx|TraceContext\(`, 0},
		{"engine construction: no settings",
			"a stream runs the engine the benchmark measures: no index, connectivity strategy or ablation switch is chosen",
			append(append([]string(nil), server...), "cmd/discserver/main.go"), `WithConnectivity|WithMSBFS|WithEpochProbing|WithRTreeIndex|WithKDTreeIndex`, 0},
		{"engine construction: one fresh",
			"a stream builds its engine from (*stream).engineOptions, fresh or restored",
			server, `core\.New\(`, 1},
		{"engine construction: one restored",
			"a stream builds its engine from (*stream).engineOptions, fresh or restored",
			server, `core\.LoadEngine\(`, 1},
		{"slots on the stride path: one id table",
			"inside internal/core a point is an int32 arena slot; the one id -> slot table is declared once and read only at the ingest/egress edge",
			core, `map\[int64\]int32`, 1},
		{"slots on the stride path: no per-point maps",
			"no map of per-point pointers and no id-keyed visited map",
			core, `map\[int64\]\*|map\[int64\]visitEntry`, 0},
		{"one way in",
			"state enters a stream only when it is built, from its directory: there is no runtime restore, so no route, refusal or view epoch for one",
			all, `handleCheckpointLoad|errLogAttached|viewEpoch|"POST", "/checkpoint"`, 0},
	} {
		re := regexp.MustCompile(g.pattern)
		got := 0
		var hits []string
		for _, f := range g.files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(b), "\n") {
				if re.MatchString(line) {
					got++
					hits = append(hits, f+":"+strconv.Itoa(i+1)+": "+strings.TrimSpace(line))
				}
			}
		}
		if len(g.files) == 0 {
			t.Errorf("%s: no files to check", g.name)
		}
		if got != g.want {
			t.Errorf("%s: %d lines of program code match %s, want %d (%s):\n%s",
				g.name, got, g.pattern, g.want, g.why, strings.Join(hits, "\n"))
		}
	}
}
