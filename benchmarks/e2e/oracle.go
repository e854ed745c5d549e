package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"disc/internal/dbscan"
	"disc/internal/geom"
	"disc/internal/grid"
	"disc/internal/model"
)

// served is one point's assignment as the server reports it.
type served struct {
	Label   string `json:"label"`
	Cluster int    `json:"cluster"`
}

// verifyExact compares the server's assignments of the resident points with
// a from-scratch DBSCAN over the same points and returns a description of
// every disagreement (nil when the clustering is exact). Labels must be
// identical; cores must fall into the same partition up to cluster renaming;
// a border, which DBSCAN may attach to any adjacent cluster, must sit within
// ε of a core of the cluster the server put it in.
func verifyExact(pts []model.Point, got map[int64]served, cfg model.Config) []string {
	var bad []string
	want := dbscan.Run(pts, cfg)
	toRef := map[int]int{}   // server cluster id → reference cluster id
	fromRef := map[int]int{} // and back: together a bijection
	cores := grid.New(cfg.Dims, cfg.Eps)
	for _, p := range pts {
		g, ok := got[p.ID]
		if !ok {
			bad = append(bad, fmt.Sprintf("point %d: resident but not served", p.ID))
			continue
		}
		ref := want[p.ID]
		if g.Label != ref.Label.String() {
			bad = append(bad, fmt.Sprintf("point %d: served %s, DBSCAN says %s", p.ID, g.Label, ref.Label))
			continue
		}
		switch ref.Label {
		case model.Core:
			cores.Insert(p.ID, p.Pos)
			if g.Cluster == model.NoCluster {
				bad = append(bad, fmt.Sprintf("point %d: core without a cluster", p.ID))
				continue
			}
			r, seen := toRef[g.Cluster]
			s, seenRef := fromRef[ref.ClusterID]
			if (seen && r != ref.ClusterID) || (seenRef && s != g.Cluster) {
				bad = append(bad, fmt.Sprintf("point %d: core in served cluster %d / DBSCAN cluster %d breaks the cluster correspondence",
					p.ID, g.Cluster, ref.ClusterID))
				continue
			}
			toRef[g.Cluster], fromRef[ref.ClusterID] = ref.ClusterID, g.Cluster
		case model.Noise:
			if g.Cluster != model.NoCluster {
				bad = append(bad, fmt.Sprintf("point %d: noise in cluster %d", p.ID, g.Cluster))
			}
		}
	}
	for _, p := range pts {
		g, ok := got[p.ID]
		if !ok || want[p.ID].Label != model.Border || g.Label != model.Border.String() {
			continue
		}
		adjacent := false
		cores.SearchBall(p.Pos, cfg.Eps, func(id int64, _ geom.Vec) bool {
			adjacent = got[id].Cluster == g.Cluster
			return !adjacent
		})
		if !adjacent {
			bad = append(bad, fmt.Sprintf("point %d: border in cluster %d but no core of that cluster within eps", p.ID, g.Cluster))
		}
	}
	return bad
}

// residentAssignments derives the visible window from the server itself:
// it probes GET /points/{id} (in-process; this is verification, not
// measurement) for every candidate stream index and keeps the points the
// server answers for, then checks their number against /stats — so it holds
// whatever order two interleaved writers' batches arrived in.
func residentAssignments(h http.Handler, pts []model.Point, candidates []int) ([]model.Point, map[int64]served, error) {
	c := newInprocConn(h)
	got := make(map[int64]served, len(candidates)/2)
	var resident []model.Point
	for _, idx := range candidates {
		p := pts[idx]
		rp, _ := c.do("GET", "/points/"+strconv.FormatInt(p.ID, 10), nil)
		switch rp.status {
		case http.StatusNotFound:
		case http.StatusOK:
			var s served
			if err := json.Unmarshal(rp.body, &s); err != nil {
				return nil, nil, fmt.Errorf("point %d: bad body %q: %w", p.ID, rp.body, err)
			}
			got[p.ID] = s
			resident = append(resident, p)
		default:
			return nil, nil, fmt.Errorf("point %d: status %d", p.ID, rp.status)
		}
	}
	rp, _ := c.do("GET", "/stats", nil)
	n, ok := jsonUint(rp.body, "resident")
	if rp.status != http.StatusOK || !ok {
		return nil, nil, fmt.Errorf("GET /stats: status %d body %q", rp.status, rp.body)
	}
	if int(n) != len(resident) {
		return nil, nil, fmt.Errorf("server reports %d resident points but answers for %d of the %d probed", n, len(resident), len(candidates))
	}
	return resident, got, nil
}

// candidateIndices lists, for every writer, the stream indices of the last
// 2×window points it sent (set-up points were sent by writer 0).
func candidateIndices(w *workload, sent []int) []int {
	var out []int
	setupN := w.setupPoints()
	for k := 0; k < w.writers; k++ {
		need := 2 * w.window
		for p := sent[k] - 1; p >= 0 && need > 0; p, need = p-1, need-1 {
			out = append(out, streamIndex(w, k, p))
		}
		if k == 0 {
			for i := setupN - 1; i >= 0 && need > 0; i, need = i-1, need-1 {
				out = append(out, i)
			}
		}
	}
	return out
}

// checkExact runs the whole oracle against an instance and returns the
// number of resident points plus every disagreement found.
func checkExact(w *workload, h http.Handler, pts []model.Point, sent []int) (int, []string) {
	resident, got, err := residentAssignments(h, pts, candidateIndices(w, sent))
	if err != nil {
		return 0, []string{"oracle: " + err.Error()}
	}
	return len(resident), verifyExact(resident, got, w.cfg)
}
