package eval

import (
	"fmt"
	"math"
	"testing"
)

func TestAtBasics(t *testing.T) {
	truth := []bool{true, false, true, false, true} // 3 errors
	m, err := At([]int{0, 1}, truth)
	if err != nil {
		t.Fatal(err)
	}
	if m.Precision != 0.5 {
		t.Errorf("precision = %v", m.Precision)
	}
	if math.Abs(m.Recall-1.0/3.0) > 1e-12 {
		t.Errorf("recall = %v", m.Recall)
	}
	wantF := 2 * 0.5 * (1.0 / 3.0) / (0.5 + 1.0/3.0)
	if math.Abs(m.F-wantF) > 1e-12 {
		t.Errorf("F = %v, want %v", m.F, wantF)
	}
	if m.K != 2 {
		t.Errorf("K = %d", m.K)
	}
}

func TestAtPerfectAndZero(t *testing.T) {
	truth := []bool{true, true, false}
	m, _ := At([]int{0, 1}, truth)
	if m.Precision != 1 || m.Recall != 1 || m.F != 1 {
		t.Errorf("perfect detection: %+v", m)
	}
	m, _ = At([]int{2}, truth)
	if m.Precision != 0 || m.Recall != 0 || m.F != 0 {
		t.Errorf("zero detection: %+v", m)
	}
	m, _ = At(nil, truth)
	if m.Precision != 0 || m.F != 0 {
		t.Errorf("empty flags: %+v", m)
	}
}

func TestAtNoErrorsInTruth(t *testing.T) {
	m, err := At([]int{0}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if m.Recall != 0 {
		t.Errorf("recall with empty truth = %v", m.Recall)
	}
}

func TestAtValidation(t *testing.T) {
	truth := []bool{true, false}
	if _, err := At([]int{5}, truth); err == nil {
		t.Error("want error for out-of-range row")
	}
	if _, err := At([]int{-1}, truth); err == nil {
		t.Error("want error for negative row")
	}
	if _, err := At([]int{0, 0}, truth); err == nil {
		t.Error("want error for duplicate flag")
	}
}

func TestPrefixRankerAndCurve(t *testing.T) {
	truth := []bool{true, true, false, false, true}
	ranking := []int{0, 1, 4, 2, 3} // perfect ranking
	prefix := Ranker(func(k int) ([]int, error) {
		if k > len(ranking) {
			return nil, fmt.Errorf("k=%d beyond the ranking", k)
		}
		return ranking[:k], nil
	})
	curve, err := Curve(prefix, truth, []int{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve length %d", len(curve))
	}
	if curve[0].Precision != 1 || curve[1].Precision != 1 {
		t.Errorf("prefix precisions: %+v", curve)
	}
	if curve[1].Recall != 1 {
		t.Errorf("recall@3 = %v, want 1", curve[1].Recall)
	}
	if curve[2].Precision != 3.0/5.0 {
		t.Errorf("precision@5 = %v", curve[2].Precision)
	}
	if _, err := Curve(prefix, truth, []int{10}); err == nil {
		t.Error("want the ranker's error for k beyond ranking")
	}
}

func TestMaxAndMeanF(t *testing.T) {
	curve := []Metrics{{F: 0.2}, {F: 0.8}, {F: 0.5}}
	if MaxF(curve) != 0.8 {
		t.Errorf("MaxF = %v", MaxF(curve))
	}
	if MeanF(curve) != 0.5 {
		t.Errorf("MeanF = %v", MeanF(curve))
	}
	if MaxF(nil) != 0 || MeanF(nil) != 0 {
		t.Error("empty curves should return 0")
	}
}

func TestTruthCount(t *testing.T) {
	if TruthCount([]bool{true, false, true}) != 2 {
		t.Error("TruthCount wrong")
	}
}

func TestKs(t *testing.T) {
	got := Ks(10, 50, 20)
	want := []int{10, 30, 50}
	if len(got) != len(want) {
		t.Fatalf("Ks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ks = %v, want %v", got, want)
			break
		}
	}
	// hi always included even when aligned.
	got = Ks(10, 30, 10)
	if got[len(got)-1] != 30 {
		t.Errorf("Ks = %v", got)
	}
}
