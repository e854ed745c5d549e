// Read path: after every successful stride the ingest path installs ONE
// immutable view of everything the GET
// endpoints serve — cluster census, per-point assignments, stats, event
// tail, stride/window counters — with a single atomic pointer store.
// Queries load the pointer and read; they never touch the server mutex, so
// reads cannot block the stream and the stream cannot block reads (RCU-style
// snapshot publication). Every response from one view is exactly consistent
// with every other response from that view: DISC's per-stride exactness (the
// paper's core claim) extends to the serving surface, stride by stride.
//
// A view is not rebuilt from the window. It is the previous view plus the
// engine's assignment delta (core.Delta), and it keeps the engine's two
// indirections instead of resolved cluster ids — a core stores its raw cid,
// resolved through a rename map of absorbed cids; a border stores the id of
// its hint core — because only that form can be maintained in O(Δ): a merger
// renames every member of the absorbed clusters and a split silently re-homes
// the borders hinted to the relabelled cores, and neither set is in the
// delta. Consecutive views share structure:
//
//   - the id→entry table is a fixed-size hash trie (root → page → bucket)
//     whose pages and buckets are copied on first write in a stride, mutated
//     in place for the rest of it, and frozen by the publication;
//   - the rename map is shared until a stride merges clusters;
//   - the census, kept in (size desc, id asc) order, is re-emitted by one
//     merge pass over the previous view's rows and the stride's changed rows
//     (a memcpy of #clusters small rows, no comparison sort of the whole).
//
// Memory bound: one table plus, for each older view a reader still pins,
// the O(Δ) chunks and the census copy that view does not share with its
// successor.
package server

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"disc/internal/core"
	"disc/internal/model"
)

// pointEntry is one resident point in the engine's raw form.
type pointEntry struct {
	id    int64
	ref   int64 // Core: raw cluster id; Border: id of the hint core
	label model.Label
}

const (
	// pageFan is the number of buckets per page. A write copies one page
	// (pageFan pointers) and one bucket; the root a stride copies once has
	// one pointer per page.
	pageFan = 16
	// bucketLoad is the mean number of entries per bucket at a full window;
	// a lookup scans one bucket linearly.
	bucketLoad = 8
	// hashMul spreads ids — sequential ones included — over the buckets
	// (Fibonacci hashing: the top bits of id × 2⁶⁴/φ).
	hashMul = 0x9E3779B97F4A7C15
)

// bucket and page carry the publish generation that allocated them: the
// writer may mutate a chunk of its own generation in place and must copy any
// other, because a published view can reach it. Readers never look at gen.
type bucket struct {
	gen     uint64
	entries []pointEntry
}

type page struct {
	gen     uint64
	buckets [pageFan]*bucket
}

// pointTable is a persistent id→entry hash table. The value is a handle:
// copying it shares every page.
type pointTable struct {
	pages []*page
	shift uint // 64 − log2(#buckets)
}

// newPointTable sizes a table for capacity resident points. The bucket
// count never changes: a count-based window never holds more than its
// extent, and overfull buckets would only lengthen a scan.
func newPointTable(capacity int) pointTable {
	buckets := pageFan
	for buckets*bucketLoad < capacity {
		buckets *= 2
	}
	return pointTable{
		pages: make([]*page, buckets/pageFan),
		shift: uint(64 - bits.TrailingZeros(uint(buckets))),
	}
}

func (t pointTable) bucketOf(id int64) (pg, slot int) {
	h := int(uint64(id) * hashMul >> t.shift)
	return h / pageFan, h % pageFan
}

// get is the read path of GET /points/{id}: two pointer hops and a scan of
// one small bucket, no allocation.
func (t pointTable) get(id int64) (pointEntry, bool) {
	pg, slot := t.bucketOf(id)
	if p := t.pages[pg]; p != nil {
		if b := p.buckets[slot]; b != nil {
			for i := range b.entries {
				if b.entries[i].id == id {
					return b.entries[i], true
				}
			}
		}
	}
	return pointEntry{}, false
}

// censusRow is one cluster of the census; its size is cores + borders.
type censusRow struct {
	id             int
	cores, borders int32
}

func (r censusRow) size() int32 { return r.cores + r.borders }

// compareRows orders the census: larger clusters first, ties by ascending id.
func compareRows(a, b censusRow) int {
	if c := cmp.Compare(b.size(), a.size()); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// publishedView is one immutable per-stride snapshot of the serving state.
// Nothing reachable from it is ever mutated after publication; handlers may
// read any field concurrently without synchronization.
type publishedView struct {
	strides uint64 // engine strides completed when this view was built
	// etag is `"disc-<incarnation>-s<strides>"`: the stream value's random
	// incarnation (hex) makes a tag name one body across recreations and
	// restarts, the stride count one body within a stream's life.
	etag string
	// points and renames hold every resident point's exact assignment as of
	// this stride, resolved at read time by assignment.
	points  pointTable
	renames map[int]int // absorbed cid → the root it resolves to
	// census and noise are the /clusters body, already in response order.
	census []censusRow
	noise  int
	// stats is the complete /stats body: counters are the values as of
	// this view's stride, so header and body can never disagree.
	stats statsResponse
	// events is the retained event tail at publication (oldest first). It
	// aliases the server's append-only log: elements are never rewritten and
	// the capped slice cannot see later appends.
	events []eventRecord
}

// rootOf resolves a raw cid to the cluster id it is served under.
func rootOf(renames map[int]int, cid int64) int {
	if r, ok := renames[int(cid)]; ok {
		return r
	}
	return int(cid)
}

// assignment resolves id the way the engine's Snapshot does: a core through
// the renames, a border through its hint core.
func (v *publishedView) assignment(id int64) (model.Assignment, bool) {
	e, ok := v.points.get(id)
	if !ok {
		return model.Assignment{}, false
	}
	switch e.label {
	case model.Core:
		return model.Assignment{Label: model.Core, ClusterID: rootOf(v.renames, e.ref)}, true
	case model.Border:
		if h, ok := v.points.get(e.ref); ok && h.label == model.Core {
			return model.Assignment{Label: model.Border, ClusterID: rootOf(v.renames, h.ref)}, true
		}
	}
	return model.Assignment{Label: model.Noise, ClusterID: model.NoCluster}, true
}

// appendClusters renders the /clusters body byte for byte as encoding/json
// renders a clustersResponse (a nil cluster list is null there): the body
// runs to thousands of rows, it sits inside every ingest-to-visible sample,
// and reflection was most of its cost.
func (v *publishedView) appendClusters(b []byte) []byte {
	b = append(b, `{"strides":`...)
	b = strconv.AppendUint(b, v.strides, 10)
	b = append(b, `,"window":`...)
	b = strconv.AppendInt(b, int64(v.stats.Resident), 10)
	b = append(b, `,"noise":`...)
	b = strconv.AppendInt(b, int64(v.noise), 10)
	b = append(b, `,"clusters":`...)
	if len(v.census) == 0 {
		return append(b, "null}\n"...)
	}
	sep := byte('[')
	for _, r := range v.census {
		b = append(b, sep)
		sep = ','
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(r.id), 10)
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, int64(r.size()), 10)
		b = append(b, `,"cores":`...)
		b = strconv.AppendInt(b, int64(r.cores), 10)
		b = append(b, `,"borders":`...)
		b = strconv.AppendInt(b, int64(r.borders), 10)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// clusterCount is a census row under maintenance: its current counts, and
// the counts it had in the last published census if this stride touched it.
type clusterCount struct {
	censusRow
	was censusRow // valid when gen == viewState.gen
	gen uint64
}

// viewState is the writer's half of the view: what publish needs to turn the
// previous view and one core.Delta into the next view. Server.mu guards it.
//
// Invariants between strides, with cids resolved through renames:
// hinted[h] is the number of border entries whose ref is h; counts[c] holds,
// over the core entries whose cid resolves to c, their number and the sum of
// their hinted counts; noise counts the noise entries. set keeps all three
// true one entry at a time, in whatever order a delta lists the points — a
// border may be re-hinted before or after its new hint core turns core.
type viewState struct {
	gen      uint64 // publish generation; chunks stamped with it are writable
	points   pointTable
	renames  map[int]int
	hinted   map[int64]int32
	counts   map[int]*clusterCount
	dirty    []*clusterCount // rows this stride touched
	census   []censusRow
	noise    int
	resident int
}

// reset forgets everything, ahead of a full delta.
func (vs *viewState) reset(window int) {
	vs.points = newPointTable(window)
	vs.renames = map[int]int{}
	vs.hinted = map[int64]int32{}
	vs.counts = map[int]*clusterCount{}
	vs.census, vs.noise, vs.resident = nil, 0, 0
}

// ownBucket returns id's bucket, writable: the page and the bucket are each
// copied the first time a stride writes through them (publish has already
// copied the root).
func (vs *viewState) ownBucket(id int64) *bucket {
	pg, slot := vs.points.bucketOf(id)
	p := vs.points.pages[pg]
	switch {
	case p == nil:
		p = &page{gen: vs.gen}
	case p.gen != vs.gen:
		cp := *p
		cp.gen = vs.gen
		p = &cp
	}
	vs.points.pages[pg] = p
	b := p.buckets[slot]
	switch {
	case b == nil:
		b = &bucket{gen: vs.gen, entries: make([]pointEntry, 0, bucketLoad)}
	case b.gen != vs.gen:
		// One spare slot: most copies are made to insert.
		b = &bucket{gen: vs.gen, entries: append(make([]pointEntry, 0, len(b.entries)+1), b.entries...)}
	}
	p.buckets[slot] = b
	return b
}

func (vs *viewState) put(e pointEntry) {
	b := vs.ownBucket(e.id)
	for i := range b.entries {
		if b.entries[i].id == e.id {
			b.entries[i] = e
			return
		}
	}
	b.entries = append(b.entries, e)
}

func (vs *viewState) remove(id int64) {
	b := vs.ownBucket(id)
	for i := range b.entries {
		if b.entries[i].id == id {
			last := len(b.entries) - 1
			b.entries[i] = b.entries[last]
			b.entries = b.entries[:last]
			return
		}
	}
}

// count returns cid's census row for writing, remembering its published
// value the first time a stride touches it.
func (vs *viewState) count(cid int) *clusterCount {
	c := vs.counts[cid]
	if c == nil {
		c = &clusterCount{censusRow: censusRow{id: cid}}
		vs.counts[cid] = c
	}
	if c.gen != vs.gen {
		c.gen, c.was = vs.gen, c.censusRow
		vs.dirty = append(vs.dirty, c)
	}
	return c
}

// tally adds (sign = +1) or withdraws (−1) one table entry's contribution
// to hinted, counts and noise.
func (vs *viewState) tally(e pointEntry, sign int32) {
	switch e.label {
	case model.Core:
		c := vs.count(rootOf(vs.renames, e.ref))
		c.cores += sign
		c.borders += sign * vs.hinted[e.id]
	case model.Border:
		if n := vs.hinted[e.ref] + sign; n == 0 {
			delete(vs.hinted, e.ref)
		} else {
			vs.hinted[e.ref] = n
		}
		if h, ok := vs.points.get(e.ref); ok && h.label == model.Core {
			vs.count(rootOf(vs.renames, h.ref)).borders += sign
		}
	default:
		vs.noise += int(sign)
	}
}

// set applies one point of a delta. An entry equal to the stored one writes
// nothing, so the untouched majority of a large affected set costs a lookup.
func (vs *viewState) set(p core.RawAssignment) {
	old, had := vs.points.get(p.ID)
	if p.Label == model.Deleted {
		if had {
			vs.tally(old, -1)
			vs.remove(p.ID)
			vs.resident--
		}
		return
	}
	e := pointEntry{id: p.ID, ref: p.Ref, label: p.Label}
	if had {
		if old == e {
			return
		}
		vs.tally(old, -1)
	} else {
		vs.resident++
	}
	vs.tally(e, +1)
	vs.put(e)
}

// merge applies the stride's cid unions: each absorbed cluster's census row
// folds into the survivor's and every cid that resolved to it is re-pointed.
// No point is touched. The previous view shares the rename map, so a stride
// that merges works on a copy.
func (vs *viewState) merge(unions []core.CIDUnion) {
	if len(unions) == 0 {
		return
	}
	vs.renames = maps.Clone(vs.renames)
	for _, u := range unions {
		for cid, r := range vs.renames {
			if r == u.From {
				vs.renames[cid] = u.Into
			}
		}
		vs.renames[u.From] = u.Into
		if vs.counts[u.From] != nil {
			from, into := vs.count(u.From), vs.count(u.Into)
			into.cores += from.cores
			into.borders += from.borders
			from.cores, from.borders = 0, 0
		}
	}
}

// sealCensus folds the stride's touched rows into the sorted census: a row
// whose counts changed leaves its old position and enters at its new one.
// The previous census is immutable (the last view serves it), so the result
// is a fresh slice — the unchanged runs between the changed rows are
// block-copied, and only the changed rows are comparison-sorted.
func (vs *viewState) sealCensus() {
	var removed, added []censusRow
	for _, c := range vs.dirty {
		now := c.censusRow
		if now.size() == 0 {
			delete(vs.counts, now.id)
		}
		if now == c.was {
			continue
		}
		if c.was.size() > 0 {
			removed = append(removed, c.was)
		}
		if now.size() > 0 {
			added = append(added, now)
		}
	}
	clear(vs.dirty) // drop the pointers to deleted rows
	vs.dirty = vs.dirty[:0]
	if len(removed)+len(added) == 0 {
		return
	}
	slices.SortFunc(removed, compareRows)
	slices.SortFunc(added, compareRows)
	rest := vs.census
	out := make([]censusRow, 0, len(rest)-len(removed)+len(added))
	for len(removed)+len(added) > 0 {
		if len(added) == 0 || len(removed) > 0 && compareRows(removed[0], added[0]) < 0 {
			i, found := slices.BinarySearchFunc(rest, removed[0], compareRows)
			if !found || rest[i] != removed[0] {
				panic("server: census out of step with the published view")
			}
			out, rest, removed = append(out, rest[:i]...), rest[i+1:], removed[1:]
		} else {
			i, _ := slices.BinarySearchFunc(rest, added[0], compareRows)
			out, rest, added = append(append(out, rest[:i]...), added[0]), rest[i:], added[1:]
		}
	}
	vs.census = append(out, rest...)
}

// publish folds the engine's delta of the stride just completed (or, on a
// fresh or restored engine, its full state) into the view state and
// atomically installs the resulting view. Callers must hold the server's mu
// (or have exclusive access, as in newStream).
func (st *stream) publish() {
	vs := &st.vs
	vs.gen++
	d := st.eng.Delta()
	if d.Full {
		vs.reset(st.cfg.Window)
	} else {
		vs.points.pages = slices.Clone(vs.points.pages) // the last view keeps the old root
	}
	vs.merge(d.Unions)
	d.Points(vs.set)
	vs.sealCensus()

	stats := st.eng.Stats()
	strides := uint64(stats.Strides)
	n := len(st.events)
	st.view.Store(&publishedView{
		strides: strides,
		etag:    fmt.Sprintf("\"disc-%x-s%d\"", st.incarnation, strides),
		points:  vs.points,
		renames: vs.renames,
		census:  vs.census,
		noise:   vs.noise,
		events:  st.events[:n:n],
		stats: statsResponse{
			Config:    st.cfg.Cluster,
			Window:    st.cfg.Window,
			Stride:    st.cfg.Stride,
			Ingested:  st.ingested,
			Resident:  vs.resident,
			Stats:     stats,
			EventSeq:  st.eventSeq,
			EventKept: n,
		},
	})
}

// etagMatches reports whether an If-None-Match field value matches etag
// under RFC 9110 §13.1.2: "*" matches any current representation; otherwise
// the value is a comma-separated list of entity-tags compared weakly, so a
// W/ prefix on the client's copy is ignored. A malformed list matches
// nothing past the malformation.
func etagMatches(field, etag string) bool {
	field = strings.TrimSpace(field)
	if field == "*" {
		return true
	}
	for {
		field = strings.TrimLeft(field, " \t,")
		tag := strings.TrimPrefix(field, "W/")
		if !strings.HasPrefix(tag, `"`) {
			return false
		}
		end := strings.IndexByte(tag[1:], '"')
		if end < 0 {
			return false
		}
		if tag[:end+2] == etag {
			return true
		}
		field = tag[end+2:]
	}
}

// serveView adapts a view-reading handler into an instrumented, lock-free
// http.HandlerFunc: it pins the current view ONCE and derives everything —
// the X-Disc-Stride header, the strong ETag, the If-None-Match freshness
// check, the body, and the lag baseline — from that single instance, so a
// view published mid-request can never leak into the response or the
// metrics attributed to it. (If-None-Match short-circuits to 304; every
// GET body is a pure function of (view, URL), which is what makes the
// ETag sound.) It records latency plus served-stride lag.
func (s *Server) serveView(endpoint string, h func(v *publishedView, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		v := s.st.view.Load()
		w.Header().Set("X-Disc-Stride", strconv.FormatUint(v.strides, 10))
		w.Header().Set("ETag", v.etag)
		fresh := false
		for _, field := range r.Header.Values("If-None-Match") {
			fresh = fresh || etagMatches(field, v.etag)
		}
		if fresh {
			w.WriteHeader(http.StatusNotModified)
		} else {
			h(v, w, r)
		}
		// Lag = strides published while this request was being served,
		// measured against the served instance v. A stream's stride count
		// only moves forward.
		lag := float64(s.st.view.Load().strides - v.strides)
		s.qm.ObserveQuery(endpoint, time.Since(start).Seconds(), lag)
	}
}
