package stats

import "testing"

func TestHypergeometricPMFSumsToOne(t *testing.T) {
	d := Hypergeometric{N: 20, K: 7, Draws: 9}
	sum := 0.0
	for k := 0; k <= d.Draws; k++ {
		sum += d.PMF(k)
	}
	if !approxEq(sum, 1, 1e-12) {
		t.Errorf("PMF sums to %v", sum)
	}
	if d.PMF(-1) != 0 || d.PMF(10) != 0 || d.PMF(8) != 0 {
		// k=8 impossible: only 7 successes exist.
		t.Error("impossible outcomes must have probability 0")
	}
}

func TestHypergeometricKnownValue(t *testing.T) {
	// P(X=2) for N=10, K=4, n=5: C(4,2)C(6,3)/C(10,5) = 6*20/252.
	d := Hypergeometric{N: 10, K: 4, Draws: 5}
	want := 6.0 * 20.0 / 252.0
	if got := d.PMF(2); !approxEq(got, want, 1e-12) {
		t.Errorf("PMF(2) = %v, want %v", got, want)
	}
}

func TestCramersV(t *testing.T) {
	// Perfect association on a 2x2 diagonal: V = 1.
	v, err := CramersV(Table{{10, 0}, {0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(v, 1, 1e-12) {
		t.Errorf("V = %v, want 1", v)
	}
	// Exact independence: V = 0.
	v, _ = CramersV(Table{{10, 20}, {20, 40}})
	if !approxEq(v, 0, 1e-9) {
		t.Errorf("V = %v, want 0", v)
	}
	// Degenerate (constant column): V = 0.
	v, _ = CramersV(Table{{10}, {20}})
	if v != 0 {
		t.Errorf("degenerate V = %v", v)
	}
	if _, err := CramersV(Table{}); err == nil {
		t.Error("want error for empty table")
	}
}
