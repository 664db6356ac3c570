package segtree

import (
	"math/rand"
	"testing"
)

// TestFenwickMergeMatchesBruteForce pins CountLE against a direct scan on
// random rank sets, including heavy ties and degenerate universes.
func TestFenwickMergeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(200)
		ux := 1 + rng.Intn(12)
		uy := 1 + rng.Intn(12)
		xr := make([]int, n)
		yr := make([]int, n)
		for i := range xr {
			xr[i] = rng.Intn(ux)
			yr[i] = rng.Intn(uy)
		}
		var f FenwickMerge
		f.Rebuild(xr, yr, ux, uy)
		for q := 0; q < 50; q++ {
			qx := rng.Intn(ux+2) - 1
			qy := rng.Intn(uy+2) - 1
			var want int64
			for i := range xr {
				if xr[i] <= qx && yr[i] <= qy {
					want++
				}
			}
			if got := f.CountLE(qx, qy); got != want {
				t.Fatalf("trial %d: CountLE(%d,%d) = %d, want %d (n=%d ux=%d uy=%d)",
					trial, qx, qy, got, want, n, ux, uy)
			}
		}
	}
}

// TestFenwickMergeRebuildReuse pins that Rebuild leaves no stale state
// behind when the new point set is smaller than the old one.
func TestFenwickMergeRebuildReuse(t *testing.T) {
	var f FenwickMerge
	f.Rebuild([]int{0, 1, 2, 3}, []int{3, 2, 1, 0}, 4, 4)
	if got := f.CountLE(3, 3); got != 4 {
		t.Fatalf("initial total = %d", got)
	}
	f.Rebuild([]int{0, 0}, []int{1, 1}, 1, 2)
	if got := f.CountLE(0, 1); got != 2 {
		t.Errorf("after rebuild total = %d", got)
	}
	if got := f.CountLE(0, 0); got != 0 {
		t.Errorf("after rebuild CountLE(0,0) = %d", got)
	}
	f.Rebuild(nil, nil, 0, 0)
	if got := f.CountLE(5, 5); got != 0 {
		t.Errorf("empty rebuild CountLE = %d", got)
	}
}

// TestCompressRanksUniqInto pins the uniq contract: ranks index into the
// ascending distinct values.
func TestCompressRanksUniqInto(t *testing.T) {
	v := []float64{3, 1, 1, 5, 6, 5, -2}
	ranks, uniq := CompressRanksUniqInto(v, nil, nil)
	wantUniq := []float64{-2, 1, 3, 5, 6}
	if len(uniq) != len(wantUniq) {
		t.Fatalf("uniq = %v", uniq)
	}
	for i := range uniq {
		//scoded:lint-ignore floatcmp exact values round-trip through sorting unchanged
		if uniq[i] != wantUniq[i] {
			t.Fatalf("uniq = %v, want %v", uniq, wantUniq)
		}
	}
	for i, r := range ranks {
		//scoded:lint-ignore floatcmp rank lookup is defined by exact equality
		if uniq[r] != v[i] {
			t.Errorf("ranks[%d] = %d does not map back to %v", i, r, v[i])
		}
	}
	// Buffer reuse keeps results correct.
	ranks2, uniq2 := CompressRanksUniqInto([]float64{2, 2, 2}, ranks, uniq)
	if len(uniq2) != 1 || len(ranks2) != 3 || ranks2[0] != 0 {
		t.Errorf("reuse: ranks=%v uniq=%v", ranks2, uniq2)
	}
}
