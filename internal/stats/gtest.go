//scoded:hotpath
package stats

import (
	"fmt"
	"math"
	"sync"
)

// Table is a two-way contingency table of observed counts. Counts[i][j] is
// the count for row level i and column level j; rows must be equal length.
type Table [][]float64

// N returns the total count of the table.
func (t Table) N() float64 {
	var n float64
	for _, row := range t {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Marginals returns the row and column marginal totals.
func (t Table) Marginals() (rows, cols []float64) {
	if len(t) == 0 {
		return nil, nil
	}
	rows = make([]float64, len(t))
	cols = make([]float64, len(t[0]))
	for i, row := range t {
		for j, v := range row {
			rows[i] += v
			cols[j] += v
		}
	}
	return rows, cols
}

// validate checks the table shape and non-negativity.
func (t Table) validate() error {
	if len(t) == 0 || len(t[0]) == 0 {
		return fmt.Errorf("stats: empty contingency table")
	}
	w := len(t[0])
	for i, row := range t {
		if len(row) != w {
			return fmt.Errorf("stats: ragged contingency table at row %d", i)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("stats: invalid count %v at (%d,%d)", v, i, j)
			}
		}
	}
	return nil
}

// degreesOfFreedom counts (r-1)(c-1) over rows/columns with positive
// marginals.
func (t Table) degreesOfFreedom() int {
	rm, cm := t.Marginals()
	nr, nc := 0, 0
	for _, v := range rm {
		if v > 0 {
			nr++
		}
	}
	for _, v := range cm {
		if v > 0 {
			nc++
		}
	}
	if nr < 2 || nc < 2 {
		return 0
	}
	return (nr - 1) * (nc - 1)
}

// MutualInformation computes the empirical mutual information of the table
// in bits (base-2 logarithm), matching the paper's definition in Section 2.2.
// A value of 0 means the empirical distribution factorises exactly.
func MutualInformation(t Table) float64 {
	return mutualInformationBase(t, math.Log2)
}

// MutualInformationNats computes the mutual information in nats.
func MutualInformationNats(t Table) float64 {
	return mutualInformationBase(t, math.Log)
}

func mutualInformationBase(t Table, logf func(float64) float64) float64 {
	n := t.N()
	if n <= 0 {
		return 0
	}
	rm, cm := t.Marginals()
	mi := 0.0
	for i, row := range t {
		for j, o := range row {
			if o <= 0 {
				continue
			}
			p := o / n
			px := rm[i] / n
			py := cm[j] / n
			mi += p * logf(p/(px*py))
		}
	}
	if mi < 0 { // clamp tiny negative rounding residue
		mi = 0
	}
	return mi
}

// GStatistic computes the G statistic G = 2 Σ O ln(O/E) of the table. It is
// the paper's "rescaled mutual information" G = 2·N·I(X;Y) with I measured
// in nats.
func GStatistic(t Table) float64 {
	return 2 * t.N() * MutualInformationNats(t)
}

// TestResult is the outcome of a hypothesis test: the observed statistic, its
// degrees of freedom (0 if not applicable), the p-value under the null of
// independence, and the effective sample size.
type TestResult struct {
	// Statistic is the observed test statistic.
	Statistic float64
	// DF is the degrees of freedom of the reference distribution (0 when
	// the reference is not chi-squared).
	DF int
	// P is the p-value: the probability, under independence, of a statistic
	// at least as extreme as the observed one.
	P float64
	// N is the sample size the statistic was computed from.
	N int
	// Approximate reports whether the closed-form reference distribution was
	// outside its validity regime (e.g. expected cell counts below 5 for the
	// G-test, n <= 60 for the tau test), signalling that an exact test is
	// advisable.
	Approximate bool
}

// gtestScratch pools the marginal buffers of GTest. The test is called once
// per (constraint, stratum) on the detection hot path, and its total, the two
// marginals, the degrees of freedom and the min-expected check all need the
// same row/column sums — the pool lets one fused accumulation serve them all
// without a per-call allocation. Buffers never escape: TestResult carries
// only scalars.
var gtestScratch = sync.Pool{New: func() any { return new(gtestBuffers) }}

type gtestBuffers struct {
	rm, cm []float64
}

// grow returns b resized to n with every element zeroed.
func grow(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// GTest performs the G-test of independence on a contingency table, using
// the chi-squared reference distribution with (r-1)(c-1) degrees of freedom.
//
// The implementation fuses what used to be four separate passes (N, the
// marginals for MI, the marginals for the degrees of freedom, and the
// marginals for the min-expected check) into one marginal accumulation in
// the exact row-major order of Table.N and Table.Marginals, so results stay
// bit-identical to composing those primitives.
func GTest(t Table) (TestResult, error) {
	if err := t.validate(); err != nil {
		return TestResult{}, err
	}
	sc := gtestScratch.Get().(*gtestBuffers)
	res := sc.gtest(t)
	gtestScratch.Put(sc)
	return res, nil
}

// gtest runs the G-test on a validated table in sc's marginal buffers.
func (sc *gtestBuffers) gtest(t Table) TestResult {
	rm := grow(sc.rm, len(t))
	cm := grow(sc.cm, len(t[0]))
	sc.rm, sc.cm = rm, cm
	var n float64
	for i, row := range t {
		for j, v := range row {
			n += v
			rm[i] += v
			cm[j] += v
		}
	}

	// G = 2·N·I(X;Y) in nats (mutualInformationBase with math.Log, using the
	// shared marginals).
	var g float64
	if n > 0 {
		mi := 0.0
		for i, row := range t {
			for j, o := range row {
				if o <= 0 {
					continue
				}
				p := o / n
				px := rm[i] / n
				py := cm[j] / n
				mi += p * math.Log(p/(px*py))
			}
		}
		if mi < 0 { // clamp tiny negative rounding residue
			mi = 0
		}
		g = 2 * n * mi
	}

	// Degrees of freedom over rows/columns with positive marginals.
	nr, nc := 0, 0
	for _, v := range rm {
		if v > 0 {
			nr++
		}
	}
	for _, v := range cm {
		if v > 0 {
			nc++
		}
	}
	df := 0
	if nr >= 2 && nc >= 2 {
		df = (nr - 1) * (nc - 1)
	}

	res := TestResult{Statistic: g, DF: df, N: int(n)}
	if df == 0 {
		// A degenerate table (a constant row or column) carries no evidence
		// against independence.
		res.P = 1
		return res
	}
	res.P = ChiSquared{K: float64(df)}.Survival(g)
	// minExpected inline over the shared marginals: the smallest expected
	// count decides whether the chi-squared reference is trustworthy.
	minE := math.Inf(1)
	for i := range rm {
		if rm[i] <= 0 {
			continue
		}
		for j := range cm {
			if cm[j] <= 0 {
				continue
			}
			if e := rm[i] * cm[j] / n; e < minE {
				minE = e
			}
		}
	}
	if math.IsInf(minE, 1) {
		minE = 0
	}
	res.Approximate = minE < 5
	return res
}

// ChiSquareTest performs the classical Pearson chi-squared test of
// independence, X² = Σ (O-E)²/E, on a contingency table.
func ChiSquareTest(t Table) (TestResult, error) {
	if err := t.validate(); err != nil {
		return TestResult{}, err
	}
	n := t.N()
	rm, cm := t.Marginals()
	x2 := 0.0
	for i, row := range t {
		for j, o := range row {
			if rm[i] <= 0 || cm[j] <= 0 {
				continue
			}
			e := rm[i] * cm[j] / n
			d := o - e
			x2 += d * d / e
		}
	}
	df := t.degreesOfFreedom()
	res := TestResult{Statistic: x2, DF: df, N: int(n)}
	if df == 0 {
		res.P = 1
		return res, nil
	}
	res.P = ChiSquared{K: float64(df)}.Survival(x2)
	res.Approximate = minExpected(t) < 5
	return res, nil
}

func minExpected(t Table) float64 {
	n := t.N()
	rm, cm := t.Marginals()
	min := math.Inf(1)
	for i := range rm {
		if rm[i] <= 0 {
			continue
		}
		for j := range cm {
			if cm[j] <= 0 {
				continue
			}
			if e := rm[i] * cm[j] / n; e < min {
				min = e
			}
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// TableFromCodes builds a contingency table from two parallel slices of
// category codes with the given cardinalities. It panics if a code is out of
// range; codes come from dictionary-encoded columns so this indicates a
// programming error.
//
// The rows are views into a single kx·ky cell slab, so building a table
// costs two allocations regardless of cardinality (the seed allocated one
// slice per row).
func TableFromCodes(x, y []int32, kx, ky int) Table {
	if len(x) != len(y) {
		panic("stats: TableFromCodes length mismatch")
	}
	t := NewTable(kx, ky)
	for i := range x {
		t[x[i]][y[i]]++
	}
	return t
}

// NewTable returns a zeroed kx-by-ky table whose rows alias one contiguous
// cell slab.
func NewTable(kx, ky int) Table {
	cells := make([]float64, kx*ky)
	t := make(Table, kx)
	for i := range t {
		t[i] = cells[i*ky : (i+1)*ky : (i+1)*ky]
	}
	return t
}
