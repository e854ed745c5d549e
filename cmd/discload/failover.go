// Kill-and-failover soak (-failover): instead of a timed read/write load
// run, discload drives a fixed script that exercises the exactly-once
// ingest pipeline end to end. It starts an in-process leader with a
// write-ahead log, a reference server with none, and delivers the same
// sequence-numbered batches to both — randomly re-delivering already
// acknowledged batches and requiring each retry to come back deduplicated
// with its original body, byte for byte. Midway it abandons the leader
// without any shutdown, appends a torn frame to the log tail (the shape a
// mid-append crash leaves), tails the log with a follower, promotes it,
// retries the last pre-crash batches against the new leader (they must
// dedup — the promoted follower rebuilt the dedup window from the log),
// finishes the script — continuing until the promoted follower has
// written two checkpoint generations and pruned the log's oldest segment —
// and byte-compares the survivor's /checkpoint, /stats, /clusters, and
// /events bodies against the reference. Any divergence, lost or
// double-applied batch, or missing checkpoint or pruning fails the run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"disc/internal/ckpt"
	"disc/internal/model"
	"disc/internal/server"
)

// soakClient is the X-Disc-Client identity all sequenced batches are sent
// under; sequence numbers are 1-based batch indices.
const soakClient = "discload-failover"

// runFailover executes the soak script. It returns an error on the first
// broken guarantee; a nil return means every check held.
func runFailover(cfg config, out io.Writer) error {
	if cfg.batches < 4 {
		return fmt.Errorf("failover: -batches must be at least 4, got %d", cfg.batches)
	}
	killat := cfg.killat
	if killat < 2 || killat >= cfg.batches {
		killat = cfg.batches / 2
	}
	dir, err := os.MkdirTemp("", "discload-failover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walDir := filepath.Join(dir, "wal")

	serverCfg := server.Config{
		Cluster: model.Config{Dims: cfg.dims, Eps: cfg.eps, MinPts: cfg.minPts},
		Window:  cfg.window,
		Stride:  cfg.stride,
	}

	// The leader fsyncs every batch to its write-ahead log before
	// acknowledging it, in 4 KiB segments rather than 8 MiB ones, so the
	// promoted follower has whole segments behind its checkpoints to prune.
	leader, err := server.New(serverCfg)
	if err != nil {
		return fmt.Errorf("failover: leader: %w", err)
	}
	wal, err := ckpt.OpenWAL(walDir, ckpt.WithWALSegmentBytes(4<<10))
	if err != nil {
		return fmt.Errorf("failover: leader: %w", err)
	}
	defer wal.Close()
	leader.AttachWAL(wal)
	leaderBase, leaderHS, err := serveLoopback(leader.Handler())
	if err != nil {
		return fmt.Errorf("failover: leader: %w", err)
	}
	defer leaderHS.Close()

	// The reference ingests the same script over plain HTTP with no log and
	// no crash — the oracle the promoted follower must match byte for byte.
	ref, err := server.New(serverCfg)
	if err != nil {
		return fmt.Errorf("failover: reference: %w", err)
	}
	refBase, refHS, err := serveLoopback(ref.Handler())
	if err != nil {
		return fmt.Errorf("failover: reference: %w", err)
	}
	defer refHS.Close()

	client := &http.Client{Timeout: 10 * time.Second}

	// Keep every batch so a re-delivery is bit-identical to the original:
	// monotonic ids over two Gaussian blobs, the same synthetic shape the
	// load mode pours in.
	rng := rand.New(rand.NewSource(424242))
	var batches, acks [][]byte
	id := int64(0)
	addBatch := func() {
		pts := make([]ingestPoint, cfg.batch)
		for j := range pts {
			c := float64(rng.Intn(2)) * 20
			pts[j] = ingestPoint{
				ID:     id,
				Time:   id,
				Coords: []float64{c + rng.NormFloat64(), c + rng.NormFloat64()},
			}
			id++
		}
		b, _ := json.Marshal(pts)
		batches, acks = append(batches, b), append(acks, nil)
	}
	for range cfg.batches {
		addBatch()
	}

	deduped := 0
	dupesLeft := cfg.dupes

	// deliver sends batch i for the first time: it must be applied, not
	// answered from the dedup window.
	deliver := func(who, base string, i int) ([]byte, error) {
		resp, ack, err := postSeqBatch(client, base, i+1, batches[i])
		if err != nil {
			return nil, fmt.Errorf("%s: batch %d: %w", who, i, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: batch %d: status %d: %s", who, i, resp.StatusCode, ack)
		}
		if resp.Header.Get("X-Disc-Deduped") != "" {
			return nil, fmt.Errorf("%s: batch %d: first delivery answered from the dedup window", who, i)
		}
		return ack, nil
	}
	// redeliver retries batch i: it must dedup, not re-apply, and the
	// replayed acknowledgment must be the original one.
	redeliver := func(who, base string, i int) error {
		resp, ack, err := postSeqBatch(client, base, i+1, batches[i])
		if err != nil {
			return fmt.Errorf("%s: redelivered batch %d: %w", who, i, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: redelivered batch %d: status %d: %s", who, i, resp.StatusCode, ack)
		}
		if resp.Header.Get("X-Disc-Deduped") != "1" {
			return fmt.Errorf("%s: redelivered batch %d: applied twice instead of deduplicated", who, i)
		}
		if !bytes.Equal(ack, acks[i]) {
			return fmt.Errorf("%s: redelivered batch %d: replayed ack differs from the original:\n got %s\nwant %s",
				who, i, ack, acks[i])
		}
		return nil
	}
	// sendBoth drives batch i into the current leader and the reference and
	// cross-checks their acknowledgments, which are a pure function of the
	// batch sequence.
	sendBoth := func(who, base string, i int) error {
		ack, err := deliver(who, base, i)
		if err != nil {
			return err
		}
		acks[i] = ack
		refAck, err := deliver("reference", refBase, i)
		if err != nil {
			return err
		}
		if !bytes.Equal(ack, refAck) {
			return fmt.Errorf("batch %d: %s ack %s != reference ack %s", i, who, ack, refAck)
		}
		return nil
	}

	// Phase 1: sequenced ingest into the original leader, with random
	// duplicate re-deliveries (at-least-once delivery simulated). Retries
	// stay within the last few sequence numbers so they land inside the
	// dedup window.
	for i := 0; i < killat; i++ {
		if err := sendBoth("leader", leaderBase, i); err != nil {
			return fmt.Errorf("failover: %w", err)
		}
		if dupesLeft > 0 && i > 0 && rng.Intn(2) == 0 {
			j := i - rng.Intn(min(i, 8))
			if err := redeliver("leader", leaderBase, j); err != nil {
				return fmt.Errorf("failover: %w", err)
			}
			deduped++
			dupesLeft--
		}
	}
	leaderStrides := parseStrides(acks[killat-1])

	// Crash: the leader is abandoned with no shutdown, no final checkpoint,
	// no log close — and its log tail gets a torn frame appended, the state
	// a crash mid-append leaves behind. Everything acknowledged so far is
	// already fsynced, so nothing may be lost.
	fmt.Fprintf(out, "discload: killing leader after batch %d (stride %d), tearing the log tail\n",
		killat-1, leaderStrides)
	leaderHS.Close()
	if err := tearWALTail(walDir); err != nil {
		return fmt.Errorf("failover: %w", err)
	}

	fol, err := server.NewFollower(server.FollowerConfig{
		Server: serverCfg, WALDir: walDir, Poll: 2 * time.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("failover: follower: %w", err)
	}
	runErr := make(chan error, 1)
	ctx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	go func() { runErr <- fol.Run(ctx) }()
	folBase, folHS, err := serveLoopback(fol.Handler())
	if err != nil {
		return fmt.Errorf("failover: follower: %w", err)
	}
	defer folHS.Close()

	// The follower must catch up to the leader's last acknowledged stride
	// through its public read surface — and refuse writes until promoted.
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, err := getStrides(client, folBase)
		if err != nil {
			return fmt.Errorf("failover: follower stats: %w", err)
		}
		if got >= leaderStrides {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("failover: follower stuck at stride %d, leader acknowledged %d", got, leaderStrides)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, body, err := postSeqBatch(client, folBase, killat, batches[killat-1]); err != nil {
		return fmt.Errorf("failover: pre-promotion write probe: %w", err)
	} else if resp.StatusCode != http.StatusForbidden {
		return fmt.Errorf("failover: unpromoted follower accepted a write: status %d: %s", resp.StatusCode, body)
	}

	resp, body, err := postJSON(client, folBase+"/promote", nil)
	if err != nil {
		return fmt.Errorf("failover: promote: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("failover: promote: status %d: %s", resp.StatusCode, body)
	}
	fmt.Fprintf(out, "discload: follower promoted at stride %d\n", leaderStrides)
	segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.wseg")) // tearWALTail found at least one
	sort.Strings(segs)

	// The client never saw the crash: it retries the batches it sent last.
	// The promoted follower rebuilt the dedup window from the log, so both
	// must come back deduplicated with their original bodies.
	for i := killat - 2; i < killat; i++ {
		if err := redeliver("promoted follower", folBase, i); err != nil {
			return fmt.Errorf("failover: %w", err)
		}
		deduped++
	}

	// Phase 2: the rest of the script flows into the new leader, duplicate
	// re-deliveries included.
	for i := killat; i < cfg.batches; i++ {
		if err := sendBoth("promoted follower", folBase, i); err != nil {
			return fmt.Errorf("failover: %w", err)
		}
		if dupesLeft > 0 && rng.Intn(2) == 0 {
			j := i - rng.Intn(min(i-killat+1, 8))
			if err := redeliver("promoted follower", folBase, j); err != nil {
				return fmt.Errorf("failover: %w", err)
			}
			deduped++
			dupesLeft--
		}
	}

	// The promoted follower is a leader like any other: it checkpoints once
	// per window turnover, ceil(window/stride) strides, and prunes the log
	// behind the previous generation.
	// Keep the script flowing until it has done both.
	store, err := ckpt.Open(walDir)
	if err != nil {
		return fmt.Errorf("failover: %w", err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; {
		gens, _ := store.Generations()
		if _, err := os.Stat(segs[0]); len(gens) >= 2 && os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("failover: promoted follower wrote generations %v and did not prune %s", gens, segs[0])
		}
		addBatch()
		if err := sendBoth("promoted follower", folBase, len(batches)-1); err != nil {
			return fmt.Errorf("failover: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Survivor vs. oracle: equal states serialize to equal bytes (the
	// checkpoint snapshot is sorted, the dedup table is sorted, the view
	// bodies are pure functions of state), so byte equality across the
	// whole read surface is the exactly-once verdict.
	for _, path := range []string{"/checkpoint", "/stats", "/clusters", "/events"} {
		got, err := getBytes(client, folBase+path)
		if err != nil {
			return fmt.Errorf("failover: promoted follower %s: %w", path, err)
		}
		want, err := getBytes(client, refBase+path)
		if err != nil {
			return fmt.Errorf("failover: reference %s: %w", path, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("failover: %s diverged between promoted follower and reference (%d vs %d bytes)",
				path, len(got), len(want))
		}
	}
	cancelRun()
	if err := <-runErr; err != nil {
		return fmt.Errorf("failover: promoted follower: %w", err)
	}

	finalStrides := parseStrides(acks[len(acks)-1])
	fmt.Fprintf(out, "discload: failover OK — %d batches (%d before the kill), %d duplicate deliveries deduplicated, final stride %d, state byte-identical across /checkpoint /stats /clusters /events\n",
		len(batches), killat, deduped, finalStrides)
	return nil
}

// serveLoopback starts h on an ephemeral loopback port.
func serveLoopback(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), hs, nil
}

// postSeqBatch delivers one batch under the soak's client identity and
// the given 1-based sequence number.
func postSeqBatch(client *http.Client, base string, seq int, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/ingest", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Disc-Client", soakClient)
	req.Header.Set("X-Disc-Seq", strconv.Itoa(seq))
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

func postJSON(client *http.Client, url string, body []byte) (*http.Response, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

func getBytes(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return b, nil
}

// parseStrides pulls the stride counter out of an ingest acknowledgment.
func parseStrides(ack []byte) uint64 {
	var ir struct {
		Strides uint64 `json:"strides"`
	}
	json.Unmarshal(ack, &ir)
	return ir.Strides
}

// getStrides reads the stride counter off GET /stats.
func getStrides(client *http.Client, base string) (uint64, error) {
	b, err := getBytes(client, base+"/stats")
	if err != nil {
		return 0, err
	}
	var sr struct {
		Stats struct {
			Strides uint64 `json:"strides"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(b, &sr); err != nil {
		return 0, err
	}
	return sr.Stats.Strides, nil
}

// tearWALTail appends a truncated frame header to the newest log segment
// — the bytes a leader killed mid-append leaves behind. The follower must
// wait at the tear rather than guess past it, and promotion must repair
// it away before appending.
func tearWALTail(dir string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.wseg"))
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return fmt.Errorf("no wal segments in %s", dir)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write([]byte("DCKP\x00\x00")); err != nil {
		return err
	}
	return f.Close()
}
