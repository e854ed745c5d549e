// Package window implements the sliding-window model of stream processing
// used throughout the DISC paper: a window of fixed extent anchored at the
// newest data, advancing in strides. Both count-based windows (extent and
// stride measured in points) and time-based windows (measured in timestamp
// units) are provided; the clustering engines are agnostic to which is used,
// exactly as §II-B of the paper requires.
package window

import (
	"fmt"

	"disc/internal/model"
)

// Step is one window advance: Out lists points leaving the window, In points
// entering it. For the first step Out is empty and In is the initial window
// fill.
type Step struct {
	In, Out []model.Point
	// Window is the full content of the window after this step, in arrival
	// order. It aliases the slider's internal storage and is only valid
	// until the next step.
	Window []model.Point
}

// CountSlider produces steps for a count-based sliding window over a stream
// of points delivered via Push. The window holds exactly `window` points
// (once warm) and advances whenever `stride` new points have accumulated.
type CountSlider struct {
	window, stride int
	// buf is the current window in arrival order: a sub-slice of store that
	// slides right by one stride per step and is moved back to the front
	// only when it reaches the end of store — once every slack/stride steps,
	// so a step costs O(stride) amortized, not a memmove of the window.
	store, buf []model.Point
	pending    []model.Point
	warm       bool
	// present counts, per id, how many resident copies (window + pending)
	// the slider holds; Contains answers duplicate checks in O(1). A count
	// map rather than a set so the slider itself stays agnostic to
	// duplicates — rejecting them is the consumer's policy.
	present map[int64]int
	// lastStep is the step returned by the most recent Push, cleared by
	// any other mutation; Rewind is only meaningful against it.
	lastStep *Step
}

// NewCountSlider returns a slider for a count-based window. stride must not
// exceed window; both must be positive.
func NewCountSlider(window, stride int) (*CountSlider, error) {
	if window <= 0 || stride <= 0 {
		return nil, fmt.Errorf("window: extent %d and stride %d must be positive", window, stride)
	}
	if stride > window {
		return nil, fmt.Errorf("window: stride %d exceeds window %d", stride, window)
	}
	return &CountSlider{window: window, stride: stride, present: make(map[int64]int)}, nil
}

// Push adds one point to the stream. It returns a non-nil Step when the
// arrival completes a stride (or the initial window fill), nil otherwise.
func (s *CountSlider) Push(p model.Point) *Step {
	s.lastStep = nil
	s.pending = append(s.pending, p)
	s.present[p.ID]++
	if !s.warm {
		if len(s.pending) < s.window {
			return nil
		}
		s.buf = s.fill(s.pending)
		// The fill grew pending to a whole window; strides need one stride.
		s.pending = make([]model.Point, 0, s.stride)
		s.warm = true
		in := make([]model.Point, len(s.buf))
		copy(in, s.buf)
		s.lastStep = &Step{In: in, Window: s.buf}
		return s.lastStep
	}
	if len(s.pending) < s.stride {
		return nil
	}
	out := make([]model.Point, s.stride)
	copy(out, s.buf[:s.stride])
	for _, q := range out {
		s.forget(q.ID)
	}
	s.buf = s.buf[s.stride:]
	if cap(s.buf)-len(s.buf) < len(s.pending) {
		s.buf = s.fill(s.buf)
	}
	in := make([]model.Point, len(s.pending))
	copy(in, s.pending)
	s.buf = append(s.buf, in...) // in place: fill left room for a stride
	s.pending = s.pending[:0]
	s.lastStep = &Step{In: in, Out: out, Window: s.buf}
	return s.lastStep
}

// Rewind undoes the most recent Push — legal only when that Push returned
// a step which the consumer then failed to apply (e.g. the engine rejected
// the advance). The departed points of step.Out re-enter the window, the
// stride's arrivals return to the pending buffer, and the triggering point
// itself — the one passed to the rewound Push — is discarded entirely, as
// if it had never arrived. Afterwards the slider is exactly in its
// pre-Push state, so the stream can resume with corrected input. The step
// (including its aliased Window slice) must not be used again. Rewind
// panics if the preceding Push did not return a step or the slider mutated
// since: silently accepting a stale rewind would corrupt the window.
func (s *CountSlider) Rewind(step *Step) {
	if step == nil || step != s.lastStep {
		panic("window: Rewind without an immediately preceding Push that returned this step")
	}
	s.lastStep = nil
	trigger := step.In[len(step.In)-1]
	if len(step.Out) == 0 {
		// Undo the initial window fill: back to cold, everything but the
		// triggering point pending again.
		s.pending = append(s.pending[:0], step.In[:len(step.In)-1]...)
		s.buf = s.buf[:0]
		s.warm = false
	} else {
		// Undo a steady-state stride: rebuild the window at the front of
		// store — survivors after the departed prefix (copy is memmove-safe
		// for the overlap) — and return Δin minus the trigger to pending.
		survivors := s.buf[:len(s.buf)-len(step.In)]
		s.buf = s.store[:s.stride+len(survivors)]
		copy(s.buf[s.stride:], survivors)
		copy(s.buf, step.Out)
		s.pending = append(s.pending[:0], step.In[:len(step.In)-1]...)
		for _, q := range step.Out {
			s.present[q.ID]++
		}
	}
	s.forget(trigger.ID)
}

// fill moves pts (which may alias store) to the front of store, allocating
// it on first use with slack for max(stride, window/4) points of sliding,
// and returns the moved window.
func (s *CountSlider) fill(pts []model.Point) []model.Point {
	if s.store == nil {
		s.store = make([]model.Point, s.window+max(s.stride, s.window/4))
	}
	return s.store[:copy(s.store, pts)]
}

// Contains reports whether a point with the given id is currently resident
// in the slider — in the window proper or buffered in the pending partial
// stride. Consumers that feed an engine which rejects duplicate ids (DISC
// panics on them) should check this before Push.
func (s *CountSlider) Contains(id int64) bool { return s.present[id] > 0 }

// forget decrements id's residency count, dropping the entry at zero.
func (s *CountSlider) forget(id int64) {
	if n := s.present[id] - 1; n <= 0 {
		delete(s.present, id)
	} else {
		s.present[id] = n
	}
}

// Window returns the current window contents in arrival order (aliased).
func (s *CountSlider) Window() []model.Point { return s.buf }

// Pending returns the points buffered below the next stride boundary, in
// arrival order (aliased): accepted by Push but not yet part of any step.
func (s *CountSlider) Pending() []model.Point { return s.pending }

// RestoreWindow primes the slider with an already-full window in arrival
// order (resuming from a checkpoint). Any pending partial stride is
// discarded. The slice must be empty (reset to cold start) or exactly one
// window long.
func (s *CountSlider) RestoreWindow(pts []model.Point) error {
	if len(pts) != 0 && len(pts) != s.window {
		return fmt.Errorf("window: restore needs 0 or %d points, got %d", s.window, len(pts))
	}
	s.buf = s.fill(pts)
	s.pending = s.pending[:0]
	s.warm = len(pts) == s.window
	s.lastStep = nil
	s.present = make(map[int64]int, len(pts))
	for _, p := range pts {
		s.present[p.ID]++
	}
	return nil
}

// TimeSlider produces steps for a time-based sliding window: the window
// covers (t-window, t] where t is the end of the most recent stride
// boundary, and advances every `stride` timestamp units. Points must be
// pushed in non-decreasing timestamp order.
type TimeSlider struct {
	window, stride int64
	origin         int64 // timestamp of the first point
	nextBoundary   int64
	started        bool
	buf            []model.Point
	pending        []model.Point
}

// NewTimeSlider returns a slider for a time-based window measured in the
// units of model.Point.Time.
func NewTimeSlider(window, stride int64) (*TimeSlider, error) {
	if window <= 0 || stride <= 0 {
		return nil, fmt.Errorf("window: extent %d and stride %d must be positive", window, stride)
	}
	if stride > window {
		return nil, fmt.Errorf("window: stride %d exceeds window %d", stride, window)
	}
	return &TimeSlider{window: window, stride: stride}, nil
}

// Push adds one point; it returns a Step when the point's timestamp crosses
// a stride boundary. The triggering point belongs to the *next* stride, as
// is conventional: a boundary at time b emits the window (b-window, b].
func (s *TimeSlider) Push(p model.Point) *Step {
	if !s.started {
		s.started = true
		s.origin = p.Time
		s.nextBoundary = p.Time + s.window
	}
	if p.Time < s.nextBoundary {
		s.pending = append(s.pending, p)
		return nil
	}
	// A quiet stream can leave several stride boundaries behind before the
	// triggering point arrives. Advance to the last boundary the point
	// crosses before emitting, so the emitted window reflects every expiry
	// the skipped boundaries caused — emitting at the first boundary would
	// hand the consumer points that are already out of the window, leaving
	// them to linger until the next emit.
	for p.Time >= s.nextBoundary+s.stride {
		s.nextBoundary += s.stride
	}
	step := s.emit()
	s.nextBoundary += s.stride
	s.pending = append(s.pending, p)
	return step
}

// Flush emits a final step covering any pending points, as if the next
// stride boundary had just been reached; returns nil if nothing is pending.
func (s *TimeSlider) Flush() *Step {
	if len(s.pending) == 0 {
		return nil
	}
	return s.emit()
}

func (s *TimeSlider) emit() *Step {
	lo := s.nextBoundary - s.window // expiry threshold: drop Time < lo ... window covers [lo, boundary)
	// A pending point that already expired — possible only when a gap
	// skipped past it before any boundary emitted it — was never part of an
	// observable window: drop it silently rather than reporting it in In
	// (it would instantly be stale) or Out (it was never In).
	in := make([]model.Point, 0, len(s.pending))
	for _, p := range s.pending {
		if p.Time >= lo {
			in = append(in, p)
		}
	}
	s.pending = s.pending[:0]
	var out []model.Point
	keep := s.buf[:0]
	for _, p := range s.buf {
		if p.Time < lo {
			out = append(out, p)
		} else {
			keep = append(keep, p)
		}
	}
	s.buf = append(keep, in...)
	return &Step{In: in, Out: out, Window: s.buf}
}

// Steps slices a finite dataset into count-based window steps: the first
// step fills the window, each later step advances by stride. Points are
// taken in slice order (the paper ingests by record timestamp order). The
// returned steps share backing storage with data; callers must not mutate.
func Steps(data []model.Point, window, stride int) ([]Step, error) {
	if window <= 0 || stride <= 0 || stride > window {
		return nil, fmt.Errorf("window: invalid extent %d / stride %d", window, stride)
	}
	if len(data) < window {
		return nil, fmt.Errorf("window: dataset of %d points smaller than window %d", len(data), window)
	}
	steps := []Step{{In: data[:window], Window: data[:window]}}
	for start := stride; start+window <= len(data); start += stride {
		steps = append(steps, Step{
			Out:    data[start-stride : start],
			In:     data[start+window-stride : start+window],
			Window: data[start : start+window],
		})
	}
	return steps, nil
}
