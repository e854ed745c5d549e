package core

import (
	"sort"

	"disc/internal/model"
)

// ClusterInfo summarizes one cluster of the current window.
type ClusterInfo struct {
	ID      int
	Cores   int
	Borders int
}

// Size returns the total member count.
func (c ClusterInfo) Size() int { return c.Cores + c.Borders }

// Clusters returns a census of the current window's clusters, sorted by
// descending size (ties by ascending id), plus the number of noise points.
// Border points count toward the cluster their hint resolves to. The
// returned slice is freshly allocated; use ClustersInto to reuse a buffer.
func (e *Engine) Clusters() (clusters []ClusterInfo, noise int) {
	return e.ClustersInto(nil)
}

// ClustersInto is Clusters writing into buf (grown as needed, contents
// replaced). The cluster-id lookup table is pooled on the engine, so a
// caller that recycles buf performs a census with zero steady-state
// allocations. Unlike Clusters it is not safe for concurrent callers: the
// pooled lookup table is engine state.
func (e *Engine) ClustersInto(buf []ClusterInfo) (clusters []ClusterInfo, noise int) {
	if e.censusIdx == nil {
		e.censusIdx = make(map[int]int32)
	} else {
		clear(e.censusIdx)
	}
	clusters = buf[:0]
	for s := range e.hot {
		if !e.resident(int32(s)) {
			continue
		}
		a := e.assignmentOf(int32(s))
		if a.ClusterID == model.NoCluster {
			noise++
			continue
		}
		idx, ok := e.censusIdx[a.ClusterID]
		if !ok {
			idx = int32(len(clusters))
			e.censusIdx[a.ClusterID] = idx
			clusters = append(clusters, ClusterInfo{ID: a.ClusterID})
		}
		if a.Label == model.Core {
			clusters[idx].Cores++
		} else {
			clusters[idx].Borders++
		}
	}
	sort.Slice(clusters, func(i, j int) bool {
		if clusters[i].Size() != clusters[j].Size() {
			return clusters[i].Size() > clusters[j].Size()
		}
		return clusters[i].ID < clusters[j].ID
	})
	return clusters, noise
}

// ClusterMembers returns the ids of every point assigned to the cluster,
// cores first, then borders; nil if the cluster does not exist.
func (e *Engine) ClusterMembers(clusterID int) []int64 {
	var cores, borders []int64
	for s := range e.hot {
		if !e.resident(int32(s)) {
			continue
		}
		a := e.assignmentOf(int32(s))
		if a.ClusterID != clusterID {
			continue
		}
		if a.Label == model.Core {
			cores = append(cores, e.ids[s])
		} else {
			borders = append(borders, e.ids[s])
		}
	}
	if len(cores) == 0 && len(borders) == 0 {
		return nil
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	sort.Slice(borders, func(i, j int) bool { return borders[i] < borders[j] })
	return append(cores, borders...)
}
