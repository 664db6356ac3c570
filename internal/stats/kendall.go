//scoded:hotpath
package stats

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

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

// Kendall computes Kendall's rank correlation between x and y with
// Knight's algorithm, the method the paper cites (§4.3, ref. [36]): it
// ranks both columns, as DenseRanks does, and counts on the ranks, as
// KendallRanks does. It is the one τ kernel: the resident kernel cache and
// the streamed fold count on kept rank views, so every path agrees bit for
// bit by construction.
func Kendall(x, y []float64) (KendallResult, error) {
	n := len(x)
	if err := kendallErr(n, len(y), -1, -1); err != nil {
		return KendallResult{}, err
	}
	sc := kendallPool.Get().(*kendallScratch)
	defer kendallPool.Put(sc)
	// The ranks, then room for the larger of a ranking's row ids (2n) and
	// the count's scratch (at most 6n+1).
	ints := sc.grow(8*n + 1)
	xv, yv := RankView{Ranks: ints[:n]}, RankView{Ranks: ints[n : 2*n]}
	xv.Distinct, xv.NaN = sc.rank(x, xv.Ranks, ints[2*n:])
	yv.Distinct, yv.NaN = sc.rank(y, yv.Ranks, ints[2*n:])
	return countRanks(xv, yv, ints[2*n:])
}

// KendallRanks is Kendall counted on two columns' rank views: the same
// result bits, and the same errors, as Kendall on the values they rank.
func KendallRanks(x, y RankView) (KendallResult, error) {
	sc := kendallPool.Get().(*kendallScratch)
	defer kendallPool.Put(sc)
	return countRanks(x, y, sc.grow(countWork(len(x.Ranks), x.Distinct, y.Distinct)))
}

// RankView is a numeric column's order, all that τ reads of its values.
type RankView struct {
	// Ranks holds each value's dense 0-based rank. Equal values share a
	// rank, ±0 included; ±Inf are ordinary values. It is unset past a NaN.
	Ranks    []int32
	Distinct int // distinct values, one past the top rank
	NaN      int // index of the first NaN, or -1
}

// DenseRanks returns v's rank view in fresh memory.
func DenseRanks(v []float64) RankView {
	r := RankView{Ranks: make([]int32, len(v))}
	sc := kendallPool.Get().(*kendallScratch)
	r.Distinct, r.NaN = sc.rank(v, r.Ranks, sc.grow(2*len(v)))
	kendallPool.Put(sc)
	return r
}

// kendallErr checks a sample's shape, then its columns' first NaN indices
// (-1 for none), in Kendall's error order.
func kendallErr(nx, ny, nanX, nanY int) error {
	if nx != ny {
		return fmt.Errorf("stats: Kendall length mismatch %d vs %d", nx, ny)
	}
	if nx < 2 {
		return fmt.Errorf("stats: Kendall needs at least 2 observations, got %d", nx)
	}
	// As a uint, -1 is the largest value, so min finds the first NaN row.
	if i := int(min(uint(nanX), uint(nanY))); i >= 0 {
		return fmt.Errorf("stats: Kendall input contains NaN at %d", i)
	}
	return nil
}

// kendallPool lends the τ kernel's working memory. None of it outlives a
// call, so pooling is invisible to callers and a steady-state Kendall
// allocates nothing.
var kendallPool = sync.Pool{New: func() any { return new(kendallScratch) }}

// kendallScratch is the τ kernel's working memory: two arenas that every
// buffer of a call is carved from, the radix sort's keys and the int32
// rest (ranks, row ids, the count's order, histograms and Fenwick tree).
type kendallScratch struct {
	keys []uint64
	ints []int32
}

// grow returns the int32 arena resized to n; its contents are unspecified.
func (sc *kendallScratch) grow(n int) []int32 {
	if cap(sc.ints) < n {
		sc.ints = make([]int32, n)
	}
	return sc.ints[:n]
}

// rank writes v's dense ranks into out and returns the distinct count, or
// the index of v's first NaN, leaving out unset. It is an LSD radix sort,
// a byte per pass, of order-preserving keys carried with their row ids
// (ids holds 2·len(v)); a byte every key shares is skipped.
func (sc *kendallScratch) rank(v []float64, out, ids []int32) (distinct, nan int) {
	n := len(v)
	if n == 0 {
		return 0, -1
	}
	if cap(sc.keys) < 2*n {
		sc.keys = make([]uint64, 2*n)
	}
	src, dst := sc.keys[:n], sc.keys[n:2*n]
	srcID, dstID := ids[:n], ids[n:2*n]
	var hist [8][256]int32
	for i, f := range v {
		b := math.Float64bits(f)
		// Flip negatives whole and set the sign bit of the rest, so that
		// unsigned order is float order; −0 folds onto +0.
		switch {
		case b&^(1<<63) > 0x7ff0000000000000: // above +Inf's bits: NaN
			return 0, i
		case b<<1 == 0:
			b = 1 << 63
		case b>>63 != 0:
			b = ^b
		default:
			b |= 1 << 63
		}
		src[i], srcID[i] = b, int32(i)
		for d := range hist {
			hist[d][byte(b>>(8*d))]++
		}
	}
	for d := range hist {
		h := &hist[d]
		if h[byte(src[0]>>(8*d))] == int32(n) {
			continue
		}
		var sum int32
		for j, c := range h {
			h[j], sum = sum, sum+c
		}
		for i, k := range src {
			at := &h[byte(k>>(8*d))]
			dst[*at], dstID[*at] = k, srcID[i]
			*at++
		}
		src, dst, srcID, dstID = dst, src, dstID, srcID
	}
	r := int32(0)
	for i, k := range src {
		if i > 0 && k != src[i-1] {
			r++
		}
		out[srcID[i]] = r
	}
	return int(r) + 1, -1
}

// countWork is the int32 scratch countRanks needs for n rows with kx and ky
// distinct values.
func countWork(n, kx, ky int) int { return n + 2*kx + 3*ky + 1 }

// countRanks is Kendall on two rank views, carving its scratch from work
// (countWork ints).
//
// A stable counting sort orders the rows by x rank. One Fenwick pass over
// the y ranks then walks the x-tie blocks in ascending x: each row of a
// block counts the earlier rows, all of smaller x, that have a larger y (a
// discordant pair), and only then is the block inserted, so pairs tied on
// x never count. A per-y-rank counter, cleared after each block, counts
// the pairs tied on both. The rank histograms are the tie groups, in
// ascending value order.
func countRanks(x, y RankView, work []int32) (KendallResult, error) {
	n, kx, ky := len(x.Ranks), x.Distinct, y.Distinct
	if err := kendallErr(n, len(y.Ranks), x.NaN, y.NaN); err != nil {
		return KendallResult{}, err
	}
	order, ends, work := work[:n], work[n:n+kx], work[n+kx:countWork(n, kx, ky)]
	clear(work)
	cx, cy, seen, tree := work[:kx], work[kx:kx+ky], work[kx+ky:kx+2*ky], work[kx+2*ky:]
	for i, r := range x.Ranks {
		cx[r]++
		cy[y.Ranks[i]]++
	}
	var n1, n2 int64
	var start int32
	for r, c := range cx {
		ends[r], start = start, start+c
		n1 += int64(c) * int64(c-1) / 2
	}
	for _, c := range cy {
		n2 += int64(c) * int64(c-1) / 2
	}
	for i, r := range x.Ranks {
		order[ends[r]] = int32(i)
		ends[r]++
	}
	var nd, n3 int64
	start = 0
	for _, end := range ends {
		for _, i := range order[start:end] {
			yr := y.Ranks[i]
			below := int64(0) // inserted rows ranked at most yr
			for j := yr + 1; j > 0; j &= j - 1 {
				below += int64(tree[j])
			}
			nd += int64(start) - below
			n3 += int64(seen[yr])
			seen[yr]++
		}
		for _, i := range order[start:end] {
			yr := y.Ranks[i]
			seen[yr] = 0
			for j := int(yr) + 1; j <= ky; j += j & -j {
				tree[j]++
			}
		}
		start = end
	}

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
		return res, nil
	}
	res.TauB = clampUnit(num / denom)
	res.Z, res.P = kendallZPFromTies(n, cx, cy, num)
	res.Approximate = n <= 60
	return res, nil
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
// must be in ascending value order, as tieGroupSizes and a rank histogram
// list them, so the float accumulation order, and hence the result bits,
// match exactly. Groups of one tie nothing and are skipped.
func kendallZPFromTies(n int, xt, yt []int32, num float64) (z, p float64) {
	fn := float64(n)
	v0 := fn * (fn - 1) * (2*fn + 5)
	var vt, vu, sx1, sx2, sy1, sy2 float64
	for _, t := range xt {
		if t < 2 {
			continue
		}
		ft := float64(t)
		vt += ft * (ft - 1) * (2*ft + 5)
		sx1 += ft * (ft - 1)
		sx2 += ft * (ft - 1) * (ft - 2)
	}
	for _, u := range yt {
		if u < 2 {
			continue
		}
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

// tieGroupSizes returns the sizes of the groups of two or more equal
// values in v, in ascending value order. It is KendallNaive's, computed
// from the values independently of the rank kernel.
func tieGroupSizes(v []float64) []int32 {
	s := append([]float64(nil), v...)
	slices.Sort(s)
	var groups []int32
	run := int32(1)
	for i := 1; i <= len(s); i++ {
		//scoded:lint-ignore floatcmp tie runs group exactly-equal sorted values
		if i < len(s) && s[i] == s[i-1] {
			run++
			continue
		}
		if run > 1 {
			groups = append(groups, run)
		}
		run = 1
	}
	return groups
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
