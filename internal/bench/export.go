package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// WriteRowsCSV writes figure rows to a CSV file for plotting: one line per
// (figure, dataset, param, engine) data point, with auxiliary metrics
// flattened into extra columns. Rows from several figures can be appended
// into one slice and exported together.
func WriteRowsCSV(path string, rows []Row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()

	// Collect the union of extra-metric names for stable columns.
	extraKeys := map[string]bool{}
	for _, r := range rows {
		for k := range r.Extra {
			extraKeys[k] = true
		}
	}
	extras := make([]string, 0, len(extraKeys))
	for k := range extraKeys {
		extras = append(extras, k)
	}
	sort.Strings(extras)

	header := []string{"figure", "dataset", "param", "engine", "value", "unit", "dnf", "note", "index"}
	header = append(header, extras...)
	if err := w.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Figure, r.Dataset, r.Param, r.Engine,
			strconv.FormatFloat(r.Value, 'g', -1, 64),
			r.Unit, strconv.FormatBool(r.DNF), r.Note, r.Index,
		}
		for _, k := range extras {
			if v, ok := r.Extra[k]; ok {
				rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
			} else {
				rec = append(rec, "")
			}
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}

// Summary is the machine-readable report written by WriteRowsJSON: the raw
// figure rows plus enough host metadata to compare runs across machines
// (worker-scaling numbers are meaningless without the core count).
type Summary struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Rows        []Row    `json:"rows"`
	Figures     []string `json:"figures"`
	// StrideLatency carries exact per-stride latency percentiles over every
	// observed DISC stride of the run; present only when a stride log was
	// active (discbench -stridelog).
	StrideLatency *LatencySummary `json:"stride_latency,omitempty"`
}

// WriteRowsJSON writes the rows as a JSON throughput summary (the
// BENCH_disc.json artifact emitted by cmd/discbench and CI). lat may be
// nil when no stride observer was attached.
func WriteRowsJSON(path string, rows []Row, lat *LatencySummary) error {
	figSet := map[string]bool{}
	var figs []string
	for _, r := range rows {
		if !figSet[r.Figure] {
			figSet[r.Figure] = true
			figs = append(figs, r.Figure)
		}
	}
	sum := Summary{
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Rows:          rows,
		Figures:       figs,
		StrideLatency: lat,
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}
