package stats

import (
	"fmt"
	"math"
	"sort"
)

// Pearson computes Pearson's product-moment correlation r between x and y,
// together with the two-sided p-value from the t reference distribution with
// n-2 degrees of freedom. The paper discusses Pearson's rho as the parametric
// alternative to Kendall's tau (Section 4.3). r is undefined over NaN or
// infinite values, so those are an error rather than a NaN p-value.
func Pearson(x, y []float64) (r, p float64, err error) {
	n := len(x)
	if n != len(y) {
		return 0, 0, fmt.Errorf("stats: Pearson length mismatch %d vs %d", n, len(y))
	}
	if n < 3 {
		return 0, 0, fmt.Errorf("stats: Pearson needs at least 3 observations, got %d", n)
	}
	for i := range x {
		if !isFinite(x[i]) || !isFinite(y[i]) {
			return 0, 0, fmt.Errorf("stats: Pearson input is not finite at %d", i)
		}
	}
	mx, my := mean(x), mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx <= 0 || syy <= 0 {
		// A constant column (zero sum of squares) is uncorrelated with
		// everything.
		return 0, 1, nil
	}
	r = sxy / math.Sqrt(sxx*syy)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	if math.Abs(r) >= 1 {
		// Perfectly collinear after clamping: the t statistic diverges.
		return r, 0, nil
	}
	df := float64(n - 2)
	t := r * math.Sqrt(df/(1-r*r))
	p = StudentsT{Nu: df}.TwoSidedP(t)
	return r, p, nil
}

// Spearman computes Spearman's rank correlation rho_s: the Pearson
// correlation of the (mid-)ranks, with the same t-based p-value. NaN has no
// rank, so it is an error; ±Inf ranks like any other value.
func Spearman(x, y []float64) (rho, p float64, err error) {
	if len(x) != len(y) {
		return 0, 0, fmt.Errorf("stats: Spearman length mismatch %d vs %d", len(x), len(y))
	}
	for i := range x {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			return 0, 0, fmt.Errorf("stats: Spearman input contains NaN at %d", i)
		}
	}
	return Pearson(Ranks(x), Ranks(y))
}

// Ranks returns the 1-based mid-ranks of v (ties get the average of their
// rank range), the standard ranking used by Spearman's rho.
func Ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		//scoded:lint-ignore floatcmp mid-rank runs group exactly-equal data values
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		// Rows i..j are tied; assign the mid-rank.
		mid := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = mid
		}
		i = j + 1
	}
	return out
}

// PearsonTest adapts Pearson to the TestResult interface: statistic |r|,
// two-sided p-value.
func PearsonTest(x, y []float64) (TestResult, error) {
	r, p, err := Pearson(x, y)
	if err != nil {
		return TestResult{}, err
	}
	return TestResult{Statistic: math.Abs(r), P: p, N: len(x)}, nil
}

// SpearmanTest adapts Spearman to the TestResult interface.
func SpearmanTest(x, y []float64) (TestResult, error) {
	r, p, err := Spearman(x, y)
	if err != nil {
		return TestResult{}, err
	}
	return TestResult{Statistic: math.Abs(r), P: p, N: len(x)}, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Mean is the arithmetic mean of v; it panics on empty input.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		panic("stats: Mean of empty slice")
	}
	return mean(v)
}

// Variance is the unbiased sample variance of v.
func Variance(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	m := mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev is the unbiased sample standard deviation of v.
func StdDev(v []float64) float64 { return math.Sqrt(Variance(v)) }
