package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// The paper (Section 4.3, "Computing p-values") notes that when the sample is
// too small for the closed-form chi-squared / Gaussian approximations, exact
// tests must be used. We implement Monte-Carlo permutation tests: under the
// null of (conditional) independence, the pairing of X and Y values is
// exchangeable, so permuting one column yields a draw from the null
// distribution of the statistic.

// PermutationGTest estimates the exact p-value of the G statistic by Monte
// Carlo permutation: y codes are shuffled iters times and the fraction of
// permuted G statistics >= the observed one (with the +1 smoothing of
// Davison & Hinkley) is returned.
func PermutationGTest(x, y []int32, kx, ky, iters int, rng *rand.Rand) (TestResult, error) {
	if len(x) != len(y) {
		return TestResult{}, fmt.Errorf("stats: permutation G length mismatch %d vs %d", len(x), len(y))
	}
	if iters < 1 {
		return TestResult{}, fmt.Errorf("stats: permutation iters must be positive, got %d", iters)
	}
	obs := GStatistic(TableFromCodes(x, y, kx, ky))
	perm := append([]int32(nil), y...)
	ge := 0
	for it := 0; it < iters; it++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if GStatistic(TableFromCodes(x, perm, kx, ky)) >= obs-1e-12 {
			ge++
		}
	}
	return TestResult{
		Statistic: obs,
		P:         float64(ge+1) / float64(iters+1),
		N:         len(x),
	}, nil
}

// PermutationKendallTest estimates the exact two-sided p-value of Kendall's
// tau by Monte Carlo permutation of the y column. It ranks x and y once and
// shuffles the y ranks, which permutes the pairing exactly as shuffling the
// values would, and counts every permutation on the ranks.
func PermutationKendallTest(x, y []float64, iters int, rng *rand.Rand) (TestResult, error) {
	if len(x) != len(y) {
		return TestResult{}, fmt.Errorf("stats: permutation tau length mismatch %d vs %d", len(x), len(y))
	}
	if iters < 1 {
		return TestResult{}, fmt.Errorf("stats: permutation iters must be positive, got %d", iters)
	}
	xr, yr := DenseRanks(x), DenseRanks(y)
	k, err := KendallRanks(xr, yr)
	if err != nil {
		return TestResult{}, err
	}
	obs := math.Abs(k.TauB)
	perm := yr.Ranks // DenseRanks' fresh memory: shuffling it permutes yr
	work := make([]int32, countWork(len(perm), xr.Distinct, yr.Distinct))
	ge := 0
	for it := 0; it < iters; it++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if pk, _ := countRanks(xr, yr, work); math.Abs(pk.TauB) >= obs-1e-12 {
			ge++
		}
	}
	return TestResult{
		Statistic: obs,
		P:         float64(ge+1) / float64(iters+1),
		N:         len(x),
	}, nil
}
