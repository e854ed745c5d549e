// Command e2e is the repository's ingest-to-visible benchmark: it drives a
// real in-process server.Multi (write-ahead log with fsync on, server
// defaults otherwise) with seeded streams, checks the served clustering
// against from-scratch DBSCAN, and reports either the end-to-end metrics
// (untraced, over loopback HTTP) or the per-layer ledger (traced, no
// network). See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: every workload, untraced pass then traced pass)")
		seed     = flag.Int64("seed", 1, "seed of the generated input streams; the only input knob")
		seconds  = flag.Int("seconds", runSeconds, "measuring time of one run")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics over loopback HTTP; 1: per-layer ledger, in-process with spans; default: 0 for one workload, both passes for all")
		repeat   = flag.Int("repeat", 1, "run the untraced pass this many times and report min/median/max and spread per metric")
		outDir   = flag.String("out", "benchmarks/e2e/out", "directory for span dumps, result files and the servers' log directories")
		describe = flag.Bool("describe", false, "print BENCHMARK.json as the metric tables define it and exit")
	)
	flag.Parse()
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if err := run(*name, *seed, *seconds, *trace, *repeat, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace, repeat int, outDir string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if seconds < 1 || repeat < 1 || trace < -1 || trace > 1 {
		return fmt.Errorf("-seconds and -repeat must be positive, -trace 0 or 1")
	}
	// Writer, server and reader need their own cores: on one core every
	// latency below is scheduler queueing.
	if p := runtime.GOMAXPROCS(0); p < 2 {
		return fmt.Errorf("GOMAXPROCS is %d: refusing to measure a client and a server sharing one core", p)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	list := workloads
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		list = []*workload{w}
		if trace < 0 {
			trace = 0
		}
	}

	failed := false
	var last *result
	untraced := map[string][]*result{}
	if trace != 1 {
		for i := 0; i < repeat; i++ {
			for _, w := range list {
				res, err := runUntraced(w, seed, seconds, outDir)
				if err != nil {
					return err
				}
				if err := report(res, outDir); err != nil {
					return err
				}
				untraced[w.name] = append(untraced[w.name], res)
				failed = failed || !res.Correct
				last = res
			}
		}
		if repeat > 1 {
			printSpread(list, untraced)
		}
	}
	if trace != 0 {
		for _, w := range list {
			res, err := runTraced(w, seed, seconds, outDir)
			if err != nil {
				return err
			}
			if u := untraced[w.name]; len(u) > 0 {
				// Both passes ran: the gap between them is what tracing (and
				// the missing network) changes.
				a, b := res.Info["ingest_visible_p50_ms"], u[0].Metrics["ingest_visible_p50_ms"].Value
				res.Info["bench.trace_overhead_pct"] = (a/b - 1) * 100
			}
			if err := report(res, outDir); err != nil {
				return err
			}
			failed = failed || !res.Correct
			last = res
		}
	}
	if name != "" {
		// The contract's result line: last on standard output.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed {
		return fmt.Errorf("outputs were not correct: see the failures above")
	}
	return nil
}

// report prints one run's metrics by name with unit and writes the full
// result beside the span dumps.
func report(res *result, outDir string) error {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Printf("== %s seed %d %s (%d s)  stream %s  host: %d cpu, GOMAXPROCS %d, %s, %s, wal on %s\n",
		res.Workload, res.Seed, pass, res.Seconds, res.StreamHash,
		res.Host.NProc, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.CPUModel, res.Host.WALFS)
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		if s := res.Samples[n]; s > 0 {
			fmt.Printf("  %-28s %14.6g %-6s (n=%d)\n", n, m.Value, m.Unit, s)
		} else {
			fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	for _, n := range sortedKeys(res.Info) {
		fmt.Printf("  . %-26s %14.6g\n", n, res.Info[n])
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	if res.Traced {
		printLedger(res)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	file := fmt.Sprintf("result-%s-%s.json", res.Workload, pass)
	return os.WriteFile(filepath.Join(outDir, file), append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printSpread is the -repeat self-check: per workload and end-to-end
// metric, min/median/max over the repeats and whether the relative gap
// between the extremes stays inside the metric's regression bound.
func printSpread(list []*workload, runs map[string][]*result) {
	fmt.Println("== repeat self-check: min / median / max, (max-min)/median against the bound")
	for _, w := range list {
		for _, d := range endToEnd {
			var xs []float64
			for _, r := range runs[w.name] {
				xs = append(xs, r.Metrics[d.name].Value)
			}
			lo, med, hi := percentile(xs, 0), median(xs), percentile(xs, 100)
			spread := (hi - lo) / med
			verdict := "inside"
			if spread > d.bound {
				verdict = "OUTSIDE"
			}
			fmt.Printf("  %-20s %-24s %12.6g %12.6g %12.6g %-5s spread %5.1f%% bound %4.0f%% %s\n",
				w.name, d.name, lo, med, hi, d.unit, spread*100, d.bound*100, verdict)
		}
	}
}
