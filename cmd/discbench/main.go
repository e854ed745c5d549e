// Command discbench regenerates the tables and figures of the DISC paper's
// evaluation (§VI) on the synthetic dataset analogs.
//
// Usage:
//
//	discbench -fig 4            # one figure (4..12)
//	discbench -fig table2       # the parameter table
//	discbench -fig ext3,ext4    # a comma-separated subset
//	discbench -fig all          # everything, in paper order
//	discbench -fig 9 -scale 0.5 # half-size windows (faster)
//
// Fig. 12 additionally writes CSV cluster dumps under -outdir. Unless -json
// is set to the empty string, every run also writes a machine-readable
// throughput summary (all measured rows plus host metadata) to BENCH_disc.json.
// With -stridelog file.jsonl, every measured DISC stride additionally emits
// one JSON record (phase timings, Δ sizes, ex/neo-core counts, search and
// prune counters, evolution events), and exact stride-latency percentiles
// are folded into the BENCH_disc.json summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"disc/internal/bench"
	"disc/internal/trace"
)

// slowRing is the tracer's slow-ring capacity under -traceslow: room for
// every measured DISC stride of the figure runs at their default sizes, so
// the stride log's trace ids resolve in the -tracedump file.
const slowRing = 4096

func main() {
	fig := flag.String("fig", "all", "figures to regenerate: 4..12, table2, a comma-separated list, or all")
	scale := flag.Float64("scale", 1, "window scale relative to the (already scaled-down) Table II defaults")
	strides := flag.Int("strides", 10, "measured strides per engine run")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-engine-run time budget (DNF beyond)")
	memcap := flag.Int64("memcap", 5_000_000, "EXTRA-N resident bookkeeping budget in items (DNF beyond)")
	outdir := flag.String("outdir", "out", "directory for Fig. 12 cluster dumps")
	seed := flag.Int64("seed", 0, "dataset seed override (0 keeps defaults)")
	csvPath := flag.String("csv", "", "also export every measured row to this CSV file")
	jsonPath := flag.String("json", "BENCH_disc.json", "write the JSON throughput summary here (empty disables)")
	strideLogPath := flag.String("stridelog", "", "write one JSON record per measured DISC stride to this JSONL file")
	traceSlow := flag.Duration("traceslow", 0,
		"record span trees for measured DISC strides, retaining those slower than this threshold (0 disables tracing)")
	traceDump := flag.String("tracedump", "",
		"write retained slow traces as JSON to this file after the run (requires -traceslow)")
	flag.Parse()

	opts := bench.Options{
		Out:       os.Stdout,
		Scale:     *scale,
		Strides:   *strides,
		Timeout:   *timeout,
		MemoryCap: *memcap,
		OutDir:    *outdir,
		Seed:      *seed,
	}

	var strideLog *bench.StrideLogger
	if *strideLogPath != "" {
		f, err := os.Create(*strideLogPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		strideLog = bench.NewStrideLogger(f)
		opts.StrideLog = strideLog
	}

	var tracer *trace.Tracer
	if *traceSlow > 0 {
		tracer = trace.NewTracer(trace.Config{SlowThreshold: *traceSlow, Slow: slowRing})
		opts.Tracer = tracer
		if strideLog != nil {
			strideLog.SetTraceThreshold(*traceSlow)
		}
	}

	var allRows []bench.Row
	run := func(id string) error {
		if strideLog != nil {
			strideLog.SetFigure(id)
		}
		if id == "table2" {
			fmt.Println("\n[Table II] thresholds and window sizes (scaled analogs)")
			return bench.Table2(opts)
		}
		f, ok := bench.Figures()[id]
		if !ok {
			return fmt.Errorf("unknown figure %q (have table2, %v)", id, bench.FigureIDs())
		}
		start := time.Now()
		rows, err := f(opts)
		allRows = append(allRows, rows...)
		fmt.Printf("\n  (figure %s regenerated in %v)\n", id, time.Since(start).Round(time.Millisecond))
		return err
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "discbench:", err)
		os.Exit(1)
	}
	if *fig == "all" {
		if err := run("table2"); err != nil {
			fail(err)
		}
		for _, id := range bench.FigureIDs() {
			if err := run(id); err != nil {
				fail(err)
			}
		}
	} else {
		for _, id := range strings.Split(*fig, ",") {
			if err := run(strings.TrimSpace(id)); err != nil {
				fail(err)
			}
		}
	}
	if *csvPath != "" {
		if err := bench.WriteRowsCSV(*csvPath, allRows); err != nil {
			fail(err)
		}
		fmt.Printf("\n%d rows exported to %s\n", len(allRows), *csvPath)
	}
	if strideLog != nil {
		fmt.Printf("\n%d stride records logged to %s\n", strideLog.Lines(), *strideLogPath)
	}
	if tracer != nil && *traceDump != "" {
		f, err := os.Create(*traceDump)
		if err != nil {
			fail(err)
		}
		if err := tracer.WriteJSON(f, true); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("\nslow traces (total > %v) dumped to %s\n", *traceSlow, *traceDump)
	}
	if *jsonPath != "" {
		var lat *bench.LatencySummary
		if strideLog != nil {
			lat = strideLog.Summary()
		}
		if err := bench.WriteRowsJSON(*jsonPath, allRows, lat); err != nil {
			fail(err)
		}
		fmt.Printf("\n%d rows summarized in %s\n", len(allRows), *jsonPath)
	}
}
