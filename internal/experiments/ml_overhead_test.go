package experiments

import (
	"reflect"
	"testing"

	"darkarts/internal/trace"
)

func TestBuildMLDatasetShape(t *testing.T) {
	ds := BuildMLDataset(1)
	if len(ds.X) != 272 {
		t.Errorf("samples = %d, want 272 (paper)", len(ds.X))
	}
	if len(ds.X[0]) != trace.FeatureDim {
		t.Errorf("features = %d, want %d", len(ds.X[0]), trace.FeatureDim)
	}
	var pos, neg int
	for _, y := range ds.Y {
		if y == 1 {
			pos++
		} else {
			neg++
		}
	}
	if neg != 172 || pos != 100 {
		t.Errorf("benign/malicious = %d/%d", neg, pos)
	}
	// Throttle labels only on malicious samples.
	for i, th := range ds.ThrottleOf {
		if (ds.Y[i] == 1) != (th >= 0) {
			t.Fatalf("throttle label mismatch at %d", i)
		}
	}
}

// TestBuildMLDatasetDeterministic: the dataset behind Figure 18 is a pure
// function of its seed, so the printed figure is reproducible.
func TestBuildMLDatasetDeterministic(t *testing.T) {
	a, b := BuildMLDataset(7), BuildMLDataset(7)
	if !reflect.DeepEqual(a.Y, b.Y) {
		t.Fatal("labels differ between two builds with the same seed")
	}
	for i := range a.X {
		if !reflect.DeepEqual(a.X[i], b.X[i]) {
			t.Fatalf("sample %d differs between two builds with the same seed", i)
		}
	}
}

func TestFigure18ModelsBehave(t *testing.T) {
	results, tab, err := Figure18(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("models = %d", len(results))
	}
	byName := map[string]Figure18Result{}
	for _, r := range results {
		byName[r.Model] = r
	}

	// Paper headline: all models strong at low throttle; SVM stays strong
	// at 95% throttle with low FPR.
	svm := byName["SVM"]
	for _, th := range []float64{0.10, 0.30, 0.50} {
		if v := svm.DetectByTh[th]; v >= 0 && v < 0.9 {
			t.Errorf("SVM detection at %.0f%% throttle = %.2f", th*100, v)
		}
	}
	if v := svm.DetectByTh[0.95]; v >= 0 && v < 0.8 {
		t.Errorf("SVM detection at 95%% throttle = %.2f (paper: 100%%)", v)
	}
	if svm.FPR > 0.05 {
		t.Errorf("SVM FPR = %.2f (paper: <2%%)", svm.FPR)
	}
	if len(tab.Rows) != len(Figure18Throttles)+1 {
		t.Errorf("table rows = %d", len(tab.Rows))
	}
}

func TestOverheadUnderOnePercent(t *testing.T) {
	results, tab, err := Overhead(DefaultOverheadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range results {
		if r.OverheadPct >= 0.01 {
			t.Errorf("%s overhead %.2f%% >= 1%% (paper: all <1%%)", r.Name, 100*r.OverheadPct)
		}
		if r.DefendedCycles < r.BaseCycles {
			t.Errorf("%s: defended cheaper than base", r.Name)
		}
	}
	if len(tab.Rows) != len(results) {
		t.Error("table rows mismatch")
	}
}
