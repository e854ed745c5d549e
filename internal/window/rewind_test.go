package window

import (
	"math/rand"
	"reflect"
	"testing"

	"disc/internal/geom"
	"disc/internal/model"
)

func pt(id int64) model.Point {
	return model.Point{ID: id, Time: id, Pos: geom.NewVec(float64(id), 0)}
}

// cloneState captures everything observable about a slider: window
// contents, pending contents, and residency answers for a set of ids.
func cloneState(s *CountSlider, ids []int64) (win, pend []model.Point, present map[int64]bool) {
	win = append([]model.Point(nil), s.Window()...)
	pend = append([]model.Point(nil), s.Pending()...)
	present = make(map[int64]bool, len(ids))
	for _, id := range ids {
		present[id] = s.Contains(id)
	}
	return win, pend, present
}

// TestRewindSteadyStride: rewinding a steady-state stride restores the
// exact pre-Push state minus nothing — the triggering point is dropped.
func TestRewindSteadyStride(t *testing.T) {
	s, err := NewCountSlider(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for id := int64(0); id < 20; id++ {
		ids = append(ids, id)
	}
	// Warm up: 6 points fill the window, then one pending point.
	for id := int64(0); id < 7; id++ {
		s.Push(pt(id))
	}
	preWin, prePend, prePresent := cloneState(s, ids)

	step := s.Push(pt(7)) // completes the stride
	if step == nil {
		t.Fatal("8th push did not complete a stride")
	}
	s.Rewind(step)

	win, pend, present := cloneState(s, ids)
	if !reflect.DeepEqual(win, preWin) {
		t.Fatalf("window after rewind %v, want %v", win, preWin)
	}
	if !reflect.DeepEqual(pend, prePend) {
		t.Fatalf("pending after rewind %v, want %v", pend, prePend)
	}
	if !reflect.DeepEqual(present, prePresent) {
		t.Fatalf("residency after rewind %v, want %v", present, prePresent)
	}

	// The stream resumes exactly as if the rejected point never arrived:
	// pushing a replacement completes the stride with the replacement.
	step = s.Push(pt(100))
	if step == nil {
		t.Fatal("replacement push did not complete the stride")
	}
	if got := step.In[len(step.In)-1].ID; got != 100 {
		t.Fatalf("stride trigger id %d, want the replacement 100", got)
	}
	if s.Contains(7) {
		t.Fatal("rewound trigger id 7 still reported resident")
	}
}

// TestRewindInitialFill: rewinding the warm-up step returns the slider to
// its cold state with all but the trigger pending.
func TestRewindInitialFill(t *testing.T) {
	s, err := NewCountSlider(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 3; id++ {
		if st := s.Push(pt(id)); st != nil {
			t.Fatal("stride before the window filled")
		}
	}
	step := s.Push(pt(3))
	if step == nil || len(step.Out) != 0 {
		t.Fatalf("fill step = %+v, want In-only", step)
	}
	s.Rewind(step)
	if len(s.Window()) != 0 {
		t.Fatalf("window %v after fill rewind, want empty", s.Window())
	}
	if got := len(s.Pending()); got != 3 {
		t.Fatalf("pending %d after fill rewind, want 3", got)
	}
	if s.Contains(3) {
		t.Fatal("rewound trigger still resident")
	}
	// Refill works.
	if step := s.Push(pt(9)); step == nil || len(step.In) != 4 {
		t.Fatalf("refill step %+v", step)
	}
}

// TestRewindMatchesFreshSlider: after any prefix of pushes, a push+rewind
// leaves the slider behaviorally identical to one that never saw the
// rejected point — checked by replaying the remainder of the stream on
// both and comparing every emitted step.
func TestRewindMatchesFreshSlider(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		window := 2 + rng.Intn(8)
		stride := 1 + rng.Intn(window)
		a, _ := NewCountSlider(window, stride)
		b, _ := NewCountSlider(window, stride)

		n := window + rng.Intn(4*window)
		var steps int
		for id := int64(0); id < int64(n); id++ {
			sa := a.Push(pt(id))
			sb := b.Push(pt(id))
			if (sa == nil) != (sb == nil) {
				t.Fatalf("trial %d: sliders disagree at id %d", trial, id)
			}
			if sa != nil {
				steps++
			}
		}
		// Poison stream a with a rejected point at the next boundary, then
		// rewind. Slider b never sees it.
		var rejected *Step
		id := int64(n)
		for rejected == nil {
			rejected = a.Push(pt(10_000 + id))
			if rejected == nil {
				b.Push(pt(10_000 + id)) // keep b in lockstep for accepted points
			}
			id++
		}
		a.Rewind(rejected)

		// Replay 3 more windows' worth of stream on both; every step must
		// be identical.
		for k := int64(0); k < int64(3*window); k++ {
			pid := int64(20_000) + k
			sa, sb := a.Push(pt(pid)), b.Push(pt(pid))
			if (sa == nil) != (sb == nil) {
				t.Fatalf("trial %d: post-rewind stride disagreement at %d", trial, pid)
			}
			if sa == nil {
				continue
			}
			if !reflect.DeepEqual(sa.In, sb.In) || !reflect.DeepEqual(sa.Out, sb.Out) {
				t.Fatalf("trial %d: post-rewind step differs:\n a: in=%v out=%v\n b: in=%v out=%v",
					trial, sa.In, sa.Out, sb.In, sb.Out)
			}
			if !reflect.DeepEqual(a.Window(), b.Window()) {
				t.Fatalf("trial %d: post-rewind windows differ", trial)
			}
		}
	}
}

// TestRewindMisusePanics: Rewind is only legal immediately after a Push
// that returned a step.
func TestRewindMisusePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	s, _ := NewCountSlider(3, 1)
	expectPanic("rewind on fresh slider", func() { s.Rewind(&Step{In: []model.Point{pt(0)}}) })
	for id := int64(0); id < 3; id++ {
		s.Push(pt(id))
	}
	step := s.Push(pt(3))
	if step == nil {
		t.Fatal("no stride")
	}
	s.Rewind(step)
	expectPanic("double rewind", func() { s.Rewind(step) })

	step = s.Push(pt(3))
	if step == nil {
		t.Fatal("no stride on re-push")
	}
	s.Push(pt(4)) // mutates: the step is stale now
	expectPanic("stale rewind", func() { s.Rewind(step) })
	expectPanic("nil rewind", func() { s.Rewind(nil) })
}

// TestRewindForgetsTriggerBothBranches: Rewind must release the triggering
// point's residency count in BOTH the cold (initial-fill) and warm
// (steady-stride) branches — a forget applied in only one branch would make
// Contains report the rejected id resident forever, so a consumer running
// the documented duplicate check could never re-send a corrected point
// under the same id. The re-push must then reproduce the identical step.
func TestRewindForgetsTriggerBothBranches(t *testing.T) {
	// Cold branch: the rewound fill trigger must be re-sendable.
	s, err := NewCountSlider(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 3; id++ {
		s.Push(pt(id))
	}
	first := s.Push(pt(3))
	if first == nil {
		t.Fatal("no fill step")
	}
	wantIn := append([]model.Point(nil), first.In...)
	s.Rewind(first)
	if s.Contains(3) {
		t.Fatal("cold branch: rewound trigger id 3 still resident")
	}
	second := s.Push(pt(3)) // same id re-sent
	if second == nil {
		t.Fatal("re-sent trigger did not complete the fill")
	}
	if !reflect.DeepEqual(second.In, wantIn) {
		t.Fatalf("re-sent fill step In = %v, want %v", second.In, wantIn)
	}

	// Warm branch: same contract for a steady-state stride.
	for id := int64(4); id < 5; id++ {
		s.Push(pt(id))
	}
	step := s.Push(pt(5))
	if step == nil {
		t.Fatal("no stride step")
	}
	wantIn = append(wantIn[:0:0], step.In...)
	wantOut := append([]model.Point(nil), step.Out...)
	s.Rewind(step)
	if s.Contains(5) {
		t.Fatal("warm branch: rewound trigger id 5 still resident")
	}
	redo := s.Push(pt(5))
	if redo == nil {
		t.Fatal("re-sent stride trigger did not complete the stride")
	}
	if !reflect.DeepEqual(redo.In, wantIn) || !reflect.DeepEqual(redo.Out, wantOut) {
		t.Fatalf("re-sent stride step in=%v out=%v, want in=%v out=%v",
			redo.In, redo.Out, wantIn, wantOut)
	}
}

// TestRewindDuplicateIDCounts: present is a count map precisely so that
// duplicate ids survive Rewind's bookkeeping. Two scenarios where the
// trigger's id collides with another resident copy: the trigger duplicates
// a departing window point, and the trigger duplicates a pending arrival.
// In both, Rewind must restore the exact pre-Push residency — decrementing
// the trigger's copy without erasing the survivor's.
func TestRewindDuplicateIDCounts(t *testing.T) {
	ids := []int64{1, 2, 3, 4, 5, 9}

	// Trigger id 1 duplicates window-resident (and departing) point 1.
	s, _ := NewCountSlider(4, 2)
	for id := int64(1); id <= 4; id++ {
		s.Push(pt(id))
	}
	s.Push(pt(5))
	preWin, prePend, prePresent := cloneState(s, ids)
	step := s.Push(pt(1))
	if step == nil || step.Out[0].ID != 1 {
		t.Fatalf("expected a stride departing id 1, got %+v", step)
	}
	s.Rewind(step)
	win, pend, present := cloneState(s, ids)
	if !reflect.DeepEqual(win, preWin) || !reflect.DeepEqual(pend, prePend) {
		t.Fatalf("state after duplicate-of-departure rewind: win=%v pend=%v, want win=%v pend=%v",
			win, pend, preWin, prePend)
	}
	if !reflect.DeepEqual(present, prePresent) {
		t.Fatalf("residency after duplicate-of-departure rewind %v, want %v", present, prePresent)
	}
	if !s.Contains(1) {
		t.Fatal("surviving window copy of id 1 lost its residency")
	}

	// Trigger id 9 duplicates the pending arrival 9.
	s2, _ := NewCountSlider(4, 2)
	for id := int64(1); id <= 4; id++ {
		s2.Push(pt(id))
	}
	s2.Push(pt(9))
	pre2Win, pre2Pend, pre2Present := cloneState(s2, ids)
	step2 := s2.Push(pt(9))
	if step2 == nil {
		t.Fatal("duplicate pending push did not trigger a stride")
	}
	s2.Rewind(step2)
	win2, pend2, present2 := cloneState(s2, ids)
	if !reflect.DeepEqual(win2, pre2Win) || !reflect.DeepEqual(pend2, pre2Pend) {
		t.Fatalf("state after duplicate-of-pending rewind: win=%v pend=%v, want win=%v pend=%v",
			win2, pend2, pre2Win, pre2Pend)
	}
	if !reflect.DeepEqual(present2, pre2Present) {
		t.Fatalf("residency after duplicate-of-pending rewind %v, want %v", present2, pre2Present)
	}
	if !s2.Contains(9) {
		t.Fatal("surviving pending copy of id 9 lost its residency")
	}
}

// TestContainsTracksResidency: Contains covers window and pending points
// and expires with eviction.
func TestContainsTracksResidency(t *testing.T) {
	s, _ := NewCountSlider(4, 2)
	for id := int64(0); id < 5; id++ { // 4 fill the window, 1 pending
		s.Push(pt(id))
	}
	for id := int64(0); id < 5; id++ {
		if !s.Contains(id) {
			t.Fatalf("id %d not resident", id)
		}
	}
	if s.Contains(99) {
		t.Fatal("phantom resident")
	}
	s.Push(pt(5)) // stride: 0 and 1 leave
	for id, want := range map[int64]bool{0: false, 1: false, 2: true, 5: true} {
		if got := s.Contains(id); got != want {
			t.Fatalf("Contains(%d) = %v after stride, want %v", id, got, want)
		}
	}
	// RestoreWindow rebuilds residency from scratch.
	if err := s.RestoreWindow([]model.Point{pt(10), pt(11), pt(12), pt(13)}); err != nil {
		t.Fatal(err)
	}
	if s.Contains(2) || !s.Contains(12) {
		t.Fatal("residency not rebuilt by RestoreWindow")
	}
}

// TestRewindAcrossCompaction: the window slides through its backing store
// and moves back to the front every few strides. A rewind must restore the
// exact pre-Push state whether the rewound Push slid in place, ran into the
// end of the store and compacted, or was the first after a compaction — so
// this rewinds at every one of a run of consecutive strides that spans
// several compactions, and checks the stream then continues as on a slider
// that never saw the rejected point.
func TestRewindAcrossCompaction(t *testing.T) {
	const window, stride = 16, 2 // slack 4: a compaction every second stride
	var ids []int64
	for id := int64(0); id < 200; id++ {
		ids = append(ids, id)
	}
	for k := 0; k < 12; k++ {
		a, _ := NewCountSlider(window, stride)
		b, _ := NewCountSlider(window, stride)
		next := int64(0)
		for ; next < int64(window+k*stride+stride-1); next++ {
			a.Push(pt(next))
			b.Push(pt(next))
		}
		preWin, prePend, prePresent := cloneState(a, ids)
		step := a.Push(pt(150))
		if step == nil {
			t.Fatalf("k=%d: push did not complete a stride", k)
		}
		if want := append(append([]model.Point(nil), preWin[stride:]...), step.In...); !reflect.DeepEqual(step.Window, want) {
			t.Fatalf("k=%d: step window %v, want %v", k, step.Window, want)
		}
		a.Rewind(step)
		win, pend, present := cloneState(a, ids)
		if !reflect.DeepEqual(win, preWin) || !reflect.DeepEqual(pend, prePend) || !reflect.DeepEqual(present, prePresent) {
			t.Fatalf("k=%d: state after rewind: win=%v pend=%v, want win=%v pend=%v", k, win, pend, preWin, prePend)
		}
		for ; next < int64(window+k*stride+4*window); next++ {
			sa, sb := a.Push(pt(next)), b.Push(pt(next))
			if (sa == nil) != (sb == nil) {
				t.Fatalf("k=%d: stride disagreement at id %d", k, next)
			}
			if sa != nil && !(reflect.DeepEqual(sa.In, sb.In) && reflect.DeepEqual(sa.Out, sb.Out) && reflect.DeepEqual(sa.Window, sb.Window)) {
				t.Fatalf("k=%d: step at id %d differs from the never-rewound slider", k, next)
			}
		}
	}
}
