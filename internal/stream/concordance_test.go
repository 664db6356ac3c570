package stream

import (
	"math"
	"math/rand"
	"testing"

	"scoded/internal/segtree"
)

// TestConcordanceIndexMatchesCompressRanks drives the index through
// inserts and FIFO evictions. After every rebuild it compares the merged
// snapshot with segtree.CompressRanksInto over the window in arrival
// order: per-point ranks, distinct values, cumulative counts and the kept
// orders. After every mutation it checks signedSum against a direct scan
// of the window, and that the evicted prefix the arrays carry stays within
// the rebuild threshold.
func TestConcordanceIndexMatchesCompressRanks(t *testing.T) {
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		window int // 0 = unbounded
		ops    int
		vals   []float64 // drawn uniformly; nil = continuous values
	}{
		{"heavy ties", 300, 3000, []float64{0, 1, 2, 3}},
		{"signed zeros", 200, 2000, []float64{negZero, 0, -1, 1}},
		{"infinities", 200, 2000, []float64{-inf, inf, 0, 1, -1}},
		{"window 1", 1, 500, []float64{0, 1, 2}},
		{"window below 64", 20, 2000, []float64{0, 1, 2, 3, 4, 5}},
		{"unbounded window", 0, 2000, nil},
		{"continuous", 500, 5000, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			draw := func() float64 {
				if tc.vals == nil {
					return math.Round(rng.NormFloat64()*1e3) / 1e3
				}
				return tc.vals[rng.Intn(len(tc.vals))]
			}
			c := concordanceIndex{limit: 64}
			var winX, winY []float64
			rebuilds, turnovers := 0, 0
			check := func(step int) {
				t.Helper()
				if len(c.xs) > len(winX)+c.limit {
					t.Fatalf("step %d: arrays carry %d points for %d residents", step, len(c.xs), len(winX))
				}
				if c.pending() == 0 {
					rebuilds++
					checkSnapshot(t, step, &c, winX, winY)
				}
				qx, qy := draw(), draw()
				if got, want := c.signedSum(qx, qy), bruteSignedSum(qx, qy, winX, winY); got != want {
					t.Fatalf("step %d: signedSum(%v, %v) = %d, direct scan %d", step, qx, qy, got, want)
				}
			}
			for step := 0; step < tc.ops; step++ {
				if c.head > c.snapN {
					turnovers++ // every snapshot point left before the next rebuild
				}
				if tc.window > 0 && len(winX) >= tc.window {
					x, y := c.oldest()
					if math.Float64bits(x) != math.Float64bits(winX[0]) || math.Float64bits(y) != math.Float64bits(winY[0]) {
						t.Fatalf("step %d: oldest (%v, %v), want (%v, %v)", step, x, y, winX[0], winY[0])
					}
					c.drop()
					winX, winY = winX[1:], winY[1:]
					check(step)
				}
				x, y := draw(), draw()
				c.add(x, y)
				winX, winY = append(winX, x), append(winY, y)
				check(step)
			}
			if rebuilds < 3 {
				t.Fatalf("only %d rebuilds in %d steps", rebuilds, tc.ops)
			}
			if tc.window > 0 && tc.window < 64 && turnovers == 0 {
				t.Fatalf("window %d never turned over between rebuilds", tc.window)
			}
			if c.len() != len(winX) {
				t.Fatalf("index holds %d residents, window %d", c.len(), len(winX))
			}
		})
	}
}

// checkSnapshot compares a freshly rebuilt snapshot with
// segtree.CompressRanksInto over the window in arrival order.
func checkSnapshot(t *testing.T, step int, c *concordanceIndex, winX, winY []float64) {
	t.Helper()
	if c.head != 0 || c.snapN != len(winX) || len(c.xs) != len(winX) {
		t.Fatalf("step %d: rebuilt snapshot holds %d points (head %d), window %d", step, c.snapN, c.head, len(winX))
	}
	for _, ax := range []struct {
		name  string
		v     []float64
		ranks []int32
		order []int32
		uniq  []float64
		cnt   []int64
	}{
		{"x", winX, c.xr, c.byX, c.snapX, c.xcnt},
		{"y", winY, c.yr, c.byY, c.snapY, c.ycnt},
	} {
		want, distinct, sorted := segtree.CompressRanksInto(ax.v, nil, nil)
		if len(ax.uniq) != distinct || len(ax.cnt) != distinct {
			t.Fatalf("step %d %s: %d distinct values and %d counts, want %d", step, ax.name, len(ax.uniq), len(ax.cnt), distinct)
		}
		for r := 0; r < distinct; r++ {
			//scoded:lint-ignore floatcmp distinct values must match exactly; ±0 are one value under ==
			if ax.uniq[r] != sorted[r] {
				t.Fatalf("step %d %s: distinct value %d is %v, want %v", step, ax.name, r, ax.uniq[r], sorted[r])
			}
		}
		perRank := make([]int64, distinct)
		for p, r := range want {
			if int(ax.ranks[p]) != r {
				t.Fatalf("step %d %s: point %d (%v) has rank %d, want %d", step, ax.name, p, ax.v[p], ax.ranks[p], r)
			}
			perRank[r]++
		}
		var cum int64
		for r, k := range perRank {
			cum += k
			if ax.cnt[r] != cum {
				t.Fatalf("step %d %s: cumulative count at rank %d is %d, want %d", step, ax.name, r, ax.cnt[r], cum)
			}
		}
		if len(ax.order) != len(ax.v) {
			t.Fatalf("step %d %s: order lists %d points, want %d", step, ax.name, len(ax.order), len(ax.v))
		}
		seen := make([]bool, len(ax.v))
		for i, p := range ax.order {
			if seen[p] {
				t.Fatalf("step %d %s: order lists point %d twice", step, ax.name, p)
			}
			seen[p] = true
			if i > 0 && want[ax.order[i-1]] > want[p] {
				t.Fatalf("step %d %s: order is not sorted at %d", step, ax.name, i)
			}
		}
	}
}

func bruteSignedSum(qx, qy float64, xs, ys []float64) int64 {
	var s int64
	for i := range xs {
		s += signProduct(qx, qy, xs[i], ys[i])
	}
	return s
}
