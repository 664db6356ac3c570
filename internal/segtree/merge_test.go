package segtree

import (
	"math/rand"
	"sort"
	"testing"
)

// rebuild feeds f the points (xr[p], yr[p]) with the y order Rebuild
// takes from its caller.
func rebuild(f *FenwickMerge, xr, yr []int32, ux int) {
	byY := make([]int32, len(yr))
	for p := range byY {
		byY[p] = int32(p)
	}
	sort.Slice(byY, func(a, b int) bool { return yr[byY[a]] < yr[byY[b]] })
	f.Rebuild(byY, xr, yr, ux)
}

// TestFenwickMergeMatchesBruteForce pins CountLE against a direct scan on
// random rank sets, including heavy ties and degenerate universes.
func TestFenwickMergeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(200)
		ux := 1 + rng.Intn(12)
		uy := 1 + rng.Intn(12)
		xr := make([]int32, n)
		yr := make([]int32, n)
		for i := range xr {
			xr[i] = int32(rng.Intn(ux))
			yr[i] = int32(rng.Intn(uy))
		}
		var f FenwickMerge
		rebuild(&f, xr, yr, ux)
		for q := 0; q < 50; q++ {
			qx := rng.Intn(ux+2) - 1
			qy := rng.Intn(uy+2) - 1
			var want int64
			for i := range xr {
				if int(xr[i]) <= qx && int(yr[i]) <= qy {
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
	rebuild(&f, []int32{0, 1, 2, 3}, []int32{3, 2, 1, 0}, 4)
	if got := f.CountLE(3, 3); got != 4 {
		t.Fatalf("initial total = %d", got)
	}
	rebuild(&f, []int32{0, 0}, []int32{1, 1}, 1)
	if got := f.CountLE(0, 1); got != 2 {
		t.Errorf("after rebuild total = %d", got)
	}
	if got := f.CountLE(0, 0); got != 0 {
		t.Errorf("after rebuild CountLE(0,0) = %d", got)
	}
	rebuild(&f, nil, nil, 0)
	if got := f.CountLE(5, 5); got != 0 {
		t.Errorf("empty rebuild CountLE = %d", got)
	}
}
