package kdtree

import (
	"math/rand"
	"sort"
	"testing"

	"disc/internal/geom"
)

func randVec(rng *rand.Rand, dims int, scale float64) geom.Vec {
	var v geom.Vec
	for i := 0; i < dims; i++ {
		v[i] = rng.Float64()*scale - scale/2
	}
	return v
}

type brute struct {
	dims int
	pts  map[int64]geom.Vec
}

func newBrute(dims int) *brute { return &brute{dims: dims, pts: map[int64]geom.Vec{}} }

func (b *brute) search(c geom.Vec, eps float64) []int64 {
	var out []int64
	for id, p := range b.pts {
		if geom.WithinEps(p, c, b.dims, eps) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func collectBall(t *T, c geom.Vec, eps float64) []int64 {
	var out []int64
	t.SearchBall(c, eps, func(id int64, _ geom.Vec) bool { out = append(out, id); return true })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSearchMatchesBruteForce(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(int64(dims) * 13))
		tr := New(dims)
		bf := newBrute(dims)
		for id := int64(0); id < 3000; id++ {
			p := randVec(rng, dims, 100)
			tr.Insert(id, p)
			bf.pts[id] = p
		}
		for i := 0; i < 150; i++ {
			c := randVec(rng, dims, 100)
			eps := rng.Float64() * 15
			if got, want := collectBall(tr, c, eps), bf.search(c, eps); !equal(got, want) {
				t.Fatalf("dims=%d: got %d ids, want %d", dims, len(got), len(want))
			}
		}
	}
}

func TestInsertDeleteChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New(2)
	bf := newBrute(2)
	var next int64
	for step := 0; step < 20000; step++ {
		if len(bf.pts) == 0 || rng.Float64() < 0.55 {
			p := randVec(rng, 2, 60)
			tr.Insert(next, p)
			bf.pts[next] = p
			next++
		} else {
			for id, p := range bf.pts {
				if !tr.Delete(id, p) {
					t.Fatalf("step %d: delete %d failed", step, id)
				}
				delete(bf.pts, id)
				break
			}
		}
	}
	if tr.size != len(bf.pts) {
		t.Fatalf("Len=%d want %d", tr.size, len(bf.pts))
	}
	for i := 0; i < 80; i++ {
		c := randVec(rng, 2, 60)
		eps := rng.Float64() * 10
		if got, want := collectBall(tr, c, eps), bf.search(c, eps); !equal(got, want) {
			t.Fatal("post-churn search mismatch")
		}
	}
}

func TestDuplicateCoordinates(t *testing.T) {
	tr := New(2)
	p := geom.NewVec(1, 1)
	for id := int64(0); id < 200; id++ {
		tr.Insert(id, p)
	}
	if got := collectBall(tr, p, 0); len(got) != 200 {
		t.Fatalf("found %d stacked points, want 200", len(got))
	}
	for id := int64(0); id < 200; id++ {
		if !tr.Delete(id, p) {
			t.Fatalf("delete %d failed", id)
		}
	}
	if tr.size != 0 {
		t.Fatal("leftovers after deleting duplicates")
	}
}

func TestEarlyStop(t *testing.T) {
	tr := New(2)
	for id := int64(0); id < 100; id++ {
		tr.Insert(id, geom.NewVec(float64(id%10), float64(id/10)))
	}
	count := 0
	if tr.SearchBall(geom.NewVec(5, 5), 100, func(int64, geom.Vec) bool {
		count++
		return count < 3
	}) {
		t.Fatal("early-stopped search reported completion")
	}
	if count != 3 {
		t.Fatalf("callback ran %d times", count)
	}
}

func TestNewValidatesDims(t *testing.T) {
	for _, d := range []int{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
}

func BenchmarkSearchBall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New(2)
	for i := int64(0); i < 100000; i++ {
		tr.Insert(i, randVec(rng, 2, 1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SearchBall(randVec(rng, 2, 1000), 10, func(int64, geom.Vec) bool { return true })
	}
}
