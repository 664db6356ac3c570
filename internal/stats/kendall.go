//scoded:hotpath
package stats

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// kendallScratch pools Kendall's working memory: the sort order, the
// permuted columns, the merge buffer and the tie groups. All of it is
// consumed inside the call (the result holds only counts and floats), so
// pooling is invisible to callers and a steady-state Kendall allocates
// nothing.
var kendallScratch = sync.Pool{New: func() any { return new(kendallBuffers) }}

type kendallBuffers struct {
	ints []int     // the sort order, then room for both columns' tie groups
	mem  []float64 // the permuted columns and the merge buffer
}

// KendallResult reports Kendall rank-correlation statistics for a sample of
// paired observations.
type KendallResult struct {
	// TauA is the paper's statistic: (nc - nd) / C(n,2).
	TauA float64
	// TauB is the tie-corrected coefficient (nc-nd)/sqrt((n0-n1)(n0-n2)).
	TauB float64
	// Concordant, Discordant are the pair counts n_c(D) and n_d(D).
	Concordant, Discordant int64
	// TiesX, TiesY, TiesXY count pairs tied on x, on y, and on both.
	TiesX, TiesY, TiesXY int64
	// Z is the tie-corrected normal z-score of (nc - nd) under independence.
	Z float64
	// P is the two-sided p-value from the Gaussian approximation.
	P float64
	// N is the sample size.
	N int
	// Approximate is true when n <= 60, where the Gaussian approximation to
	// the tau null distribution is considered unreliable (NIST rule cited by
	// the paper).
	Approximate bool
}

// Kendall computes Kendall's rank correlation between x and y in
// O(n log n) time with Knight's algorithm, the method the paper cites
// (§4.3, ref. [36]). It is the one τ kernel: the resident kernel cache
// memoizes its result, and the streamed path calls it on a stratum's
// gathered vectors, so the two agree bit for bit by construction.
//
// One sort orders the rows by (x, y, index). The pairs tied on x, the
// pairs tied on both columns and the x tie groups are read off that joint
// order. One bottom-up merge sort of y in that order counts the discordant
// pairs and leaves y sorted, so the y tie groups are read off its output.
func Kendall(x, y []float64) (KendallResult, error) {
	n := len(x)
	if n != len(y) {
		return KendallResult{}, fmt.Errorf("stats: Kendall length mismatch %d vs %d", n, len(y))
	}
	if n < 2 {
		return KendallResult{}, fmt.Errorf("stats: Kendall needs at least 2 observations, got %d", n)
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			return KendallResult{}, fmt.Errorf("stats: Kendall input contains NaN at %d", i)
		}
	}
	sc := kendallScratch.Get().(*kendallBuffers)
	res := sc.kendall(x, y)
	kendallScratch.Put(sc)
	return res, nil
}

// kendall runs Knight's algorithm on a validated sample in sc's memory.
func (sc *kendallBuffers) kendall(x, y []float64) KendallResult {
	n := len(x)
	if cap(sc.ints) < 2*n {
		sc.ints = make([]int, 2*n)
	}
	if cap(sc.mem) < 3*n {
		sc.mem = make([]float64, 3*n)
	}
	order := sc.ints[:n]
	// A column of n values has at most n/2 tie groups, so neither
	// column's groups outgrow their share of the rest.
	xt, yt := sc.ints[n:n:n+n/2], sc.ints[n+n/2:n+n/2:2*n]
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case x[a] < x[b]:
			return -1
		case x[b] < x[a]:
			return 1
		case y[a] < y[b]:
			return -1
		case y[b] < y[a]:
			return 1
		}
		return a - b
	})
	xs, ys, buf := sc.mem[:n], sc.mem[n:2*n], sc.mem[2*n:3*n]
	for i, id := range order {
		xs[i], ys[i] = x[id], y[id]
	}

	// Pairs tied on both columns are adjacent in the joint order: a run of
	// r equal points holds r(r-1)/2 of them.
	var n3, run int64
	for i := 1; i < n; i++ {
		//scoded:lint-ignore floatcmp Kendall ties are defined by exact value equality
		if xs[i] == xs[i-1] && ys[i] == ys[i-1] {
			run++
			n3 += run
		} else {
			run = 0
		}
	}
	xt, n1 := tieRuns(xs, xt)
	// Discordant pairs are the strict descents of y in the joint order.
	// Within an x-tie block y ascends, so pairs tied on x never count.
	nd := countInversions(ys, buf)
	yt, n2 := tieRuns(ys, yt)

	n0 := int64(n) * int64(n-1) / 2
	nc := n0 - n1 - n2 + n3 - nd

	res := KendallResult{
		Concordant: nc,
		Discordant: nd,
		TiesX:      n1,
		TiesY:      n2,
		TiesXY:     n3,
		N:          n,
	}
	num := float64(nc - nd)
	res.TauA = num / float64(n0)
	denom := math.Sqrt(float64(n0-n1) * float64(n0-n2))
	if denom <= 0 {
		// A constant column: tau-b undefined; report 0 correlation with p=1.
		res.TauB = 0
		res.Z = 0
		res.P = 1
		return res
	}
	res.TauB = clampUnit(num / denom)

	res.Z, res.P = kendallZPFromTies(n, xt, yt, num)
	res.Approximate = n <= 60
	return res
}

// kendallZP computes the tie-corrected variance of (nc - nd) under the null
// of independence and the resulting two-sided Gaussian p-value. The variance
// formula is the standard one (Kendall 1970; also used by scipy.stats
// kendalltau):
//
//	var = (v0 - vt - vu)/18 + v1 + v2
//
// with v0, vt, vu the n(n-1)(2n+5) terms and v1, v2 the joint-tie
// corrections.
func kendallZP(n int, x, y []float64, num float64) (z, p float64) {
	return kendallZPFromTies(n, tieGroupSizes(x), tieGroupSizes(y), num)
}

// kendallZPFromTies is kendallZP with the tie group sizes given. The groups
// must be in ascending value order, as tieGroupSizes returns them, so the
// float accumulation order, and hence the result bits, match exactly.
func kendallZPFromTies(n int, xt, yt []int, num float64) (z, p float64) {
	fn := float64(n)
	v0 := fn * (fn - 1) * (2*fn + 5)
	var vt, vu, sx1, sx2, sy1, sy2 float64
	for _, t := range xt {
		ft := float64(t)
		vt += ft * (ft - 1) * (2*ft + 5)
		sx1 += ft * (ft - 1)
		sx2 += ft * (ft - 1) * (ft - 2)
	}
	for _, u := range yt {
		fu := float64(u)
		vu += fu * (fu - 1) * (2*fu + 5)
		sy1 += fu * (fu - 1)
		sy2 += fu * (fu - 1) * (fu - 2)
	}
	v := (v0-vt-vu)/18 +
		sx1*sy1/(2*fn*(fn-1))
	if n > 2 {
		v += sx2 * sy2 / (9 * fn * (fn - 1) * (fn - 2))
	}
	if v <= 0 {
		return 0, 1
	}
	z = num / math.Sqrt(v)
	p = StdNormal.TwoSidedP(z)
	return z, p
}

// clampUnit clips rounding residue so that a mathematically exact ±1
// correlation reports as exactly ±1.
func clampUnit(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// tieGroupSizes returns the sizes of groups of equal values in v, in
// ascending value order.
func tieGroupSizes(v []float64) []int {
	s := append([]float64(nil), v...)
	slices.Sort(s)
	groups, _ := tieRuns(s, nil)
	return groups
}

// tieRuns appends to groups the size of every run of equal values longer
// than one in sorted s, and returns it with the number of tied pairs the
// runs hold: a run of r contributes r(r-1)/2.
func tieRuns(s []float64, groups []int) ([]int, int64) {
	var pairs int64
	run := 1
	for i := 1; i <= len(s); i++ {
		//scoded:lint-ignore floatcmp tie runs group exactly-equal sorted values
		if i < len(s) && s[i] == s[i-1] {
			run++
			continue
		}
		if run > 1 {
			groups = append(groups, run)
			pairs += int64(run) * int64(run-1) / 2
		}
		run = 1
	}
	return groups, pairs
}

// countInversions counts pairs (i, j), i < j, with v[i] > v[j], via
// bottom-up merge sort. It mutates v; buf must be the same length.
func countInversions(v, buf []float64) int64 {
	n := len(v)
	var inv int64
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n-width; lo += 2 * width {
			mid := lo + width
			hi := mid + width
			if hi > n {
				hi = n
			}
			inv += mergeCount(v, buf, lo, mid, hi)
		}
	}
	return inv
}

func mergeCount(v, buf []float64, lo, mid, hi int) int64 {
	copy(buf[lo:hi], v[lo:hi])
	i, j := lo, mid
	var inv int64
	for k := lo; k < hi; k++ {
		switch {
		case i >= mid:
			v[k] = buf[j]
			j++
		case j >= hi:
			v[k] = buf[i]
			i++
		case buf[j] < buf[i]:
			// Strict inequality: equal values are ties, not inversions.
			inv += int64(mid - i)
			v[k] = buf[j]
			j++
		default:
			v[k] = buf[i]
			i++
		}
	}
	return inv
}

// KendallNaive computes tau-a, tau-b and the pair counts by the O(n²)
// definition. It exists as a correctness oracle for tests and for the
// brute-force drill-down baseline.
func KendallNaive(x, y []float64) KendallResult {
	n := len(x)
	var nc, nd, tX, tY, tXY int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Compare, never subtract: Inf-Inf is NaN, which would turn a
			// pair tied at an infinity into a discordant one.
			//scoded:lint-ignore floatcmp Kendall ties are defined by exact value equality
			sameX, sameY := x[i] == x[j], y[i] == y[j]
			switch {
			case sameX && sameY:
				tXY++
				tX++
				tY++
			case sameX:
				tX++
			case sameY:
				tY++
			case (x[i] < x[j]) == (y[i] < y[j]):
				nc++
			default:
				nd++
			}
		}
	}
	n0 := int64(n) * int64(n-1) / 2
	res := KendallResult{
		Concordant: nc, Discordant: nd,
		TiesX: tX, TiesY: tY, TiesXY: tXY, N: n,
	}
	if n0 > 0 {
		res.TauA = float64(nc-nd) / float64(n0)
		denom := math.Sqrt(float64(n0-tX) * float64(n0-tY))
		if denom > 0 {
			res.TauB = clampUnit(float64(nc-nd) / denom)
		}
	}
	res.Z, res.P = kendallZP(n, x, y, float64(nc-nd))
	return res
}

// Test adapts k to the TestResult interface used by the violation
// detector: the statistic is |tau-b| and the p-value is the two-sided
// Gaussian approximation.
func (k KendallResult) Test() TestResult {
	return TestResult{
		Statistic:   math.Abs(k.TauB),
		P:           k.P,
		N:           k.N,
		Approximate: k.Approximate,
	}
}
