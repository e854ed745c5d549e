package ckpt

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrNoCheckpoint is returned by Recover when the directory holds no
// checkpoint generation at all — the caller should start fresh.
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")

// ErrNoValidCheckpoint is returned by Recover when generations exist but
// every one of them failed frame validation — the caller must decide
// whether starting fresh (losing the window) is acceptable.
var ErrNoValidCheckpoint = errors.New("ckpt: no valid checkpoint generation")

// DefaultKeep is how many generations a Store retains: the newest plus one
// fallback, which is the minimum for crash safety (a crash mid-write can
// tear at most the newest).
const DefaultKeep = 2

const (
	genPrefix = "ckpt-"
	genSuffix = ".disc"
	tmpSuffix = ".tmp"
)

// StoreOption configures a Store.
type StoreOption func(*Store)

// WithMaxPayload caps the payload size Recover will allocate for one
// generation; <= 0 means unlimited.
func WithMaxPayload(n int64) StoreOption {
	return func(s *Store) { s.maxPayload = n }
}

// WithStoreLogger attaches a structured logger; the store's recovery and
// pruning events are emitted through it with generation attributes.
func WithStoreLogger(l *slog.Logger) StoreOption {
	return func(s *Store) { s.slogger = l }
}

// Store persists framed checkpoint payloads in a directory as numbered
// generations (ckpt-<seq>.disc). Writes are atomic: the frame goes to a
// temp file which is fsynced and renamed into place, then the directory is
// fsynced, so a crash at any instant leaves either the previous generation
// set intact or the new generation fully visible — never a half-written
// file under a final name. Methods are not safe for concurrent use; the
// single Runner (or the single recovery path at startup) is the intended
// caller.
type Store struct {
	dir        string
	maxPayload int64
	seq        uint64 // highest generation present (0 = none)
	slogger    *slog.Logger
	swept      bool // the first Save has removed stale temps

	// wrapWriter, when set, wraps the temp-file writer during Save. Test
	// hook: fault-injection tests use it to fail or truncate the write
	// mid-frame, simulating a crash between the first byte and the rename.
	wrapWriter func(io.Writer) io.Writer
}

// Open prepares dir (creating it if needed) and scans existing
// generations. It writes nothing else: a reader may open a live writer's
// directory.
func Open(dir string, opts ...StoreOption) (*Store, error) {
	s := &Store{dir: dir}
	for _, o := range opts {
		o(s)
	}
	if err := mkdirDurable(dir); err != nil {
		return nil, fmt.Errorf("ckpt: creating checkpoint dir: %w", err)
	}
	gens, err := s.Generations()
	if err != nil {
		return nil, err
	}
	if n := len(gens); n > 0 {
		s.seq = gens[n-1]
	}
	return s, nil
}

// parseGen extracts the generation number from a ckpt-<seq>.disc filename.
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, genPrefix) || !strings.HasSuffix(name, genSuffix) {
		return 0, false
	}
	mid := name[len(genPrefix) : len(name)-len(genSuffix)]
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || gen == 0 {
		return 0, false
	}
	return gen, true
}

func (s *Store) genPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016d%s", genPrefix, gen, genSuffix))
}

// Generations returns the generation numbers present on disk, ascending.
func (s *Store) Generations() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: scanning checkpoint dir: %w", err)
	}
	var gens []uint64
	for _, ent := range entries {
		if gen, ok := parseGen(ent.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Save durably writes payload as the next generation and prunes old
// generations beyond the retention count. On any error the directory is
// left exactly as it was: the temp file is removed and no generation
// becomes visible.
func (s *Store) Save(payload []byte) (gen uint64, err error) {
	if !s.swept {
		// The first Save removes the temps of writes a crash cut short: never
		// generations, and only the directory's one writer can tell them from
		// a write in flight. Only its own ckpt-<gen>.disc.tmp names: the
		// directory is shared with the log and with operators. A leftover
		// temp is harmless; a failed removal is ignored.
		s.swept = true
		entries, _ := os.ReadDir(s.dir)
		for _, ent := range entries {
			name := ent.Name()
			base, isTemp := strings.CutSuffix(name, tmpSuffix)
			if _, own := parseGen(base); !isTemp || !own {
				continue
			}
			if os.Remove(filepath.Join(s.dir, name)) == nil && s.slogger != nil {
				s.slogger.Warn("removed stale temp checkpoint (crash mid-write)", "file", name)
			}
		}
	}
	gen = s.seq + 1
	tmp := s.genPath(gen) + tmpSuffix
	if err := s.writeTemp(tmp, payload); err != nil {
		os.Remove(tmp) // best effort; the next writer's first Save sweeps it
		return 0, err
	}
	final := s.genPath(gen)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("ckpt: publishing generation %d: %w", gen, err)
	}
	// The rename is only durable once the directory entry is flushed:
	// without this fsync a power cut could roll back to a state where
	// neither the temp nor the final name exists.
	if err := syncDir(s.dir); err != nil {
		return 0, err
	}
	s.seq = gen
	s.prune()
	return gen, nil
}

// writeTemp writes the framed payload to path and flushes it to stable
// storage before returning.
func (s *Store) writeTemp(path string, payload []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: creating temp checkpoint: %w", err)
	}
	var w io.Writer = f
	if s.wrapWriter != nil {
		w = s.wrapWriter(f)
	}
	if _, err := WriteFrame(w, payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: fsync temp checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ckpt: closing temp checkpoint: %w", err)
	}
	return nil
}

// syncDir flushes dir's entries to stable storage (a variable for tests).
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: opening dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ckpt: fsync dir %s: %w", dir, err)
	}
	return nil
}

// mkdirDurable is os.MkdirAll that also syncs the parent of every directory
// it creates, so a new stream's directory survives a crash with its first
// segment or generation in it.
func mkdirDurable(dir string) error {
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		return err
	}
	if err := mkdirDurable(filepath.Dir(dir)); err != nil {
		return err
	}
	if err := os.Mkdir(dir, 0o755); err != nil && !os.IsExist(err) {
		return err
	}
	return syncDir(filepath.Dir(dir))
}

// prune removes generations beyond the newest DefaultKeep. Failures only log:
// a leftover old generation is harmless, and the checkpoint that was just
// written must not be reported failed because of it.
func (s *Store) prune() {
	gens, err := s.Generations()
	if err != nil {
		if s.slogger != nil {
			s.slogger.Warn("checkpoint prune scan failed", "err", err)
		}
		return
	}
	if len(gens) <= DefaultKeep {
		return
	}
	for _, gen := range gens[:len(gens)-DefaultKeep] {
		if err := os.Remove(s.genPath(gen)); err != nil {
			if s.slogger != nil {
				s.slogger.Warn("pruning checkpoint generation failed", "generation", gen, "err", err)
			}
		}
	}
}

// Load reads and verifies one specific generation. ErrTooLarge means the
// file really holds a payload over the limit, not just a length field.
func (s *Store) Load(gen uint64) ([]byte, error) {
	f, err := os.Open(s.genPath(gen))
	if err != nil {
		return nil, fmt.Errorf("ckpt: opening generation %d: %w", gen, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ckpt: generation %d: %w", gen, err)
	}
	payload, err := ReadFrame(f, s.maxPayload)
	if errors.Is(err, ErrTooLarge) && fi.Size()-HeaderSize <= s.maxPayload { // the length field lies
		err = fmt.Errorf("ckpt: frame length exceeds the %d-byte file: %w", fi.Size(), io.ErrUnexpectedEOF)
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: generation %d: %w", gen, err)
	}
	// A frame followed by trailing garbage means the file was appended to
	// or mixed up; treat it as corrupt rather than silently ignoring it.
	var one [1]byte
	if n, _ := f.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("ckpt: generation %d: %w", gen, errors.New("trailing bytes after frame"))
	}
	return payload, nil
}

// Recover returns the payload of the newest generation that passes frame
// validation, trying older generations when newer ones are torn or
// corrupt and logging every generation it skips. It returns
// ErrNoCheckpoint when the directory holds no generations, an error
// wrapping ErrTooLarge at a generation over the limit (falling back would
// roll the state back), and an error wrapping ErrNoValidCheckpoint (with
// every per-generation failure attached) when none validates.
func (s *Store) Recover() (payload []byte, gen uint64, err error) {
	gens, err := s.Generations()
	if err != nil {
		return nil, 0, err
	}
	if len(gens) == 0 {
		return nil, 0, ErrNoCheckpoint
	}
	var failures []error
	for i := len(gens) - 1; i >= 0; i-- {
		payload, err := s.Load(gens[i])
		if errors.Is(err, ErrTooLarge) {
			return nil, 0, err
		}
		if err != nil {
			if s.slogger != nil {
				s.slogger.Warn("skipping corrupt checkpoint generation", "generation", gens[i], "err", err)
			}
			failures = append(failures, err)
			continue
		}
		if i != len(gens)-1 {
			if s.slogger != nil {
				s.slogger.Warn("recovered from fallback checkpoint generation",
					"generation", gens[i], "newest", gens[len(gens)-1])
			}
		}
		return payload, gens[i], nil
	}
	return nil, 0, fmt.Errorf("%w: %w", ErrNoValidCheckpoint, errors.Join(failures...))
}
