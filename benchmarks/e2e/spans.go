package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by benchmark code only.
// Times are nanoseconds since the recorder was created. Parent is the index
// of the span that caused it (-1 for a root); Batch ties the spans of one
// request or stride together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int64  `json:"batch"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced run shares the load-generation code and pays one
// nil check per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(name string, parent int, batch int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Batch: batch, Start: int64(time.Since(r.t0))})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span and returns its duration in nanoseconds.
func (r *recorder) end(id int) int64 {
	if r == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	d := now - r.spans[id].Start
	r.mu.Unlock()
	return d
}

// rename gives a span the name that only its outcome decides (an ingest that
// turned out to complete a stride).
func (r *recorder) rename(id int, name string) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].Name = name
	r.mu.Unlock()
}

// durations returns the duration in nanoseconds of every closed span with
// the given name, in recording order.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span name, the total self time in nanoseconds: a
// span's duration minus the part of it its direct children cover.
func (r *recorder) selfTimes() map[string]int64 {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]int64{}
	for i, s := range r.spans {
		if s.End > 0 {
			out[s.Name] += s.End - s.Start - child[i]
		}
	}
	return out
}

func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
