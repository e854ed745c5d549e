// Package geom provides low-dimensional (2–4D) geometric primitives used by
// the spatial indexes and clustering engines: points, axis-aligned
// rectangles, Euclidean distances, and ball/rectangle predicates.
//
// Coordinates are stored in fixed-size arrays of MaxDims entries with an
// explicit dimension count, which keeps points and rectangle bounds free of
// per-object heap allocations on the hot search paths.
package geom

import (
	"fmt"
	"math"
)

// MaxDims is the largest dimensionality supported. The datasets evaluated in
// the DISC paper use 2 (DTG, COVID-19), 3 (GeoLife) and 4 (IRIS) dimensions.
const MaxDims = 4

// Vec is a coordinate vector. Only the first Dims(…) components of a Vec are
// meaningful; the remainder must be zero so that comparisons and hashing work.
type Vec [MaxDims]float64

// NewVec builds a Vec from a slice of coordinates. It panics if the slice has
// more than MaxDims entries; unfilled components stay zero.
func NewVec(coords ...float64) Vec {
	if len(coords) > MaxDims {
		panic(fmt.Sprintf("geom: %d coordinates exceed MaxDims=%d", len(coords), MaxDims))
	}
	var v Vec
	copy(v[:], coords)
	return v
}

// Dist2 returns the squared Euclidean distance between a and b over the first
// dims components. Squared distances avoid math.Sqrt on hot paths.
//
// Every square in this file is rounded before it is summed — the explicit
// float64 conversion forbids the compiler to fuse d*d into the addition —
// because arm64 and other targets would otherwise compute the sum with fused
// multiply-adds, and a pair at distance ε could then be a neighbour on one
// architecture and not on another.
func Dist2(a, b Vec, dims int) float64 {
	var s float64
	for i := 0; i < dims; i++ {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// Dist returns the Euclidean distance between a and b over dims components.
func Dist(a, b Vec, dims int) float64 {
	return math.Sqrt(Dist2(a, b, dims))
}

// WithinEps reports whether a and b are within distance eps of each other.
func WithinEps(a, b Vec, dims int, eps float64) bool {
	return Dist2(a, b, dims) <= eps*eps
}

// Dist2Slab returns the squared Euclidean distance between c and the point
// stored in the first dims components of a packed coordinate slab. It is the
// inner kernel of batched leaf scans over struct-of-arrays node layouts:
// coords is a view into a contiguous float64 slab, so consecutive calls walk
// memory linearly instead of chasing per-entry rectangles.
func Dist2Slab(coords []float64, c Vec, dims int) float64 {
	var s float64
	for i := 0; i < dims; i++ {
		d := coords[i] - c[i]
		s += float64(d * d)
	}
	return s
}

// VecFromSlab materializes a Vec from the first len(coords) components of a
// packed coordinate slab. len(coords) must not exceed MaxDims; the remaining
// components stay zero, preserving the Vec comparability contract.
func VecFromSlab(coords []float64) Vec {
	var v Vec
	copy(v[:], coords)
	return v
}

// Rect is an axis-aligned rectangle (hyper-box) given by its min and max
// corners. A Rect with Min[i] > Max[i] for the active dimensions is empty.
type Rect struct {
	Min, Max Vec
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Vec) Rect { return Rect{Min: p, Max: p} }

// BallRect returns the bounding rectangle of the ball centered at c with
// radius r, over dims dimensions.
func BallRect(c Vec, dims int, r float64) Rect {
	var rect Rect
	for i := 0; i < dims; i++ {
		rect.Min[i] = c[i] - r
		rect.Max[i] = c[i] + r
	}
	return rect
}

// Contains reports whether r contains point p over dims dimensions.
func (r Rect) Contains(p Vec, dims int) bool {
	for i := 0; i < dims; i++ {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether r fully contains s over dims dimensions.
func (r Rect) ContainsRect(s Rect, dims int) bool {
	for i := 0; i < dims; i++ {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s overlap over dims dimensions.
func (r Rect) Intersects(s Rect, dims int) bool {
	for i := 0; i < dims; i++ {
		if r.Min[i] > s.Max[i] || s.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Enlarged returns the smallest rectangle covering both r and s.
func (r Rect) Enlarged(s Rect, dims int) Rect {
	out := r
	for i := 0; i < dims; i++ {
		if s.Min[i] < out.Min[i] {
			out.Min[i] = s.Min[i]
		}
		if s.Max[i] > out.Max[i] {
			out.Max[i] = s.Max[i]
		}
	}
	return out
}

// Area returns the measure (area/volume) of r over dims dimensions.
// An empty rectangle has area 0.
func (r Rect) Area(dims int) float64 {
	a := 1.0
	for i := 0; i < dims; i++ {
		side := r.Max[i] - r.Min[i]
		if side < 0 {
			return 0
		}
		a *= side
	}
	return a
}

// Margin returns the sum of side lengths of r over dims dimensions.
func (r Rect) Margin(dims int) float64 {
	var m float64
	for i := 0; i < dims; i++ {
		if side := r.Max[i] - r.Min[i]; side > 0 {
			m += side
		}
	}
	return m
}

// EnlargementArea returns how much r's area grows when enlarged to cover s.
func (r Rect) EnlargementArea(s Rect, dims int) float64 {
	return r.Enlarged(s, dims).Area(dims) - r.Area(dims)
}

// MinDist2 returns the squared distance from point p to the nearest point of
// rectangle r (0 if p is inside r), over dims dimensions.
func (r Rect) MinDist2(p Vec, dims int) float64 {
	var s float64
	for i := 0; i < dims; i++ {
		var d float64
		switch {
		case p[i] < r.Min[i]:
			d = r.Min[i] - p[i]
		case p[i] > r.Max[i]:
			d = p[i] - r.Max[i]
		default:
			continue
		}
		s += float64(d * d)
	}
	return s
}

// MaxDist2 returns the squared distance from point p to the farthest point of
// rectangle r, over dims dimensions.
func (r Rect) MaxDist2(p Vec, dims int) float64 {
	var s float64
	for i := 0; i < dims; i++ {
		d1 := math.Abs(p[i] - r.Min[i])
		d2 := math.Abs(p[i] - r.Max[i])
		d := math.Max(d1, d2)
		s += float64(d * d)
	}
	return s
}

// IntersectsBall reports whether r intersects the ball centered at c with
// radius eps, over dims dimensions.
func (r Rect) IntersectsBall(c Vec, dims int, eps float64) bool {
	return r.MinDist2(c, dims) <= eps*eps
}

// InsideBall reports whether every point of r lies within the ball centered
// at c with radius eps, over dims dimensions.
func (r Rect) InsideBall(c Vec, dims int, eps float64) bool {
	return r.MaxDist2(c, dims) <= eps*eps
}
