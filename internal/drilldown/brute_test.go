package drilldown

import (
	"fmt"
	"math"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// bruteForceTopK solves the top-k contribution problem exactly by
// enumerating all C(n, k) removal sets and returning the one that optimizes
// the objective — the Section 5.2 brute-force baseline. It is exponentially
// expensive and serves as the correctness oracle for the greedy strategies;
// it supports only marginal single-variable constraints and refuses
// instances with more than a few thousand candidate subsets.
func bruteForceTopK(d *relation.Relation, c sc.SC, k int, opts Options) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if !c.IsSingle() || !c.IsMarginal() {
		return Result{}, fmt.Errorf("drilldown: brute force supports only marginal single-variable constraints")
	}
	n := d.NumRows()
	if k <= 0 || k > n {
		return Result{}, fmt.Errorf("drilldown: k=%d out of range (1..%d)", k, n)
	}
	if binomialExceeds(n, k, 2_000_000) {
		return Result{}, fmt.Errorf("drilldown: C(%d,%d) too large for brute force", n, k)
	}
	opts = opts.withDefaults()

	objective := func(drop map[int]bool) (float64, error) {
		rest := d.Drop(drop)
		stat, err := dependenceStat(rest, c, opts)
		if err != nil {
			return 0, err
		}
		if c.Dependence {
			return -math.Abs(stat), nil // DSC: maximize dependence
		}
		return math.Abs(stat), nil // ISC: minimize dependence
	}

	full, err := dependenceStat(d, c, opts)
	if err != nil {
		return Result{}, err
	}
	res := Result{InitialStat: full, Strategy: K}

	subset := make([]int, k)
	bestScore := math.Inf(1)
	var bestRows []int
	var rec func(start, depth int) error
	rec = func(start, depth int) error {
		if depth == k {
			drop := make(map[int]bool, k)
			for _, r := range subset {
				drop[r] = true
			}
			score, err := objective(drop)
			if err != nil {
				return err
			}
			if score < bestScore {
				bestScore = score
				bestRows = append(bestRows[:0], subset...)
			}
			return nil
		}
		for i := start; i <= n-(k-depth); i++ {
			subset[depth] = i
			if err := rec(i+1, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 0); err != nil {
		return Result{}, err
	}
	res.Rows = append([]int(nil), bestRows...)
	drop := make(map[int]bool, k)
	for _, r := range bestRows {
		drop[r] = true
	}
	res.FinalStat, err = dependenceStat(d.Drop(drop), c, opts)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// dependenceStat evaluates the raw dependence statistic the drill-down
// optimizes: G for the categorical path, nc - nd for the numeric path.
func dependenceStat(d *relation.Relation, c sc.SC, opts Options) (float64, error) {
	x := d.MustColumn(c.X[0])
	y := d.MustColumn(c.Y[0])
	if x.Kind == relation.Numeric && y.Kind == relation.Numeric {
		kr := stats.KendallNaive(x.Floats(), y.Floats())
		return float64(kr.Concordant - kr.Discordant), nil
	}
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	xc := codesForDrill(d, c.X[0], opts.Bins, rows)
	yc := codesForDrill(d, c.Y[0], opts.Bins, rows)
	return stats.GStatistic(stats.TableFromCodes(xc, yc, maxCode(xc)+1, maxCode(yc)+1)), nil
}

// binomialExceeds reports whether C(n, k) exceeds the limit, without
// overflow.
func binomialExceeds(n, k int, limit float64) bool {
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(n-k+i) / float64(i)
		if c > limit {
			return true
		}
	}
	return false
}

// codesForDrill returns dense per-stratum category codes for a column,
// quantile-discretizing numeric columns.
func codesForDrill(d *relation.Relation, name string, bins int, rows []int) []int32 {
	codes, _ := kernel.CodesFor(d, name, bins, rows)
	return codes
}

func maxCode(codes []int32) int {
	m := int32(0)
	for _, c := range codes {
		if c > m {
			m = c
		}
	}
	return int(m)
}
