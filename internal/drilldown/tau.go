package drilldown

import (
	"context"
	"fmt"
	"math"
	"sort"

	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/segtree"
)

// tauStratum holds the drill-down state for one conditioning stratum of a
// numeric constraint.
type tauStratum struct {
	rows    []int     // original row indices
	x, y    []float64 // column values, parallel to rows
	contrib []float64 // per-record concordant-minus-discordant pair sum
	alive   []bool
	s       float64 // current nc - nd of the stratum
	nAlive  int

	// Delta-argmax cache (DESIGN.md §10): the stratum's current best
	// candidate under the active greedy direction. Valid between rounds —
	// removing a record only mutates its own stratum, so only the touched
	// stratum is rescanned.
	bestIdx   int
	bestScore float64
}

// rescanBest recomputes the stratum's best candidate exactly as one round of
// the seed linear scan would: lowest alive index among the maximal scores
// (strict > keeps the first). It reports whether any candidate remains.
func (st *tauStratum) rescanBest(dependence, best bool) bool {
	st.bestIdx = -1
	for i, ok := range st.alive {
		if !ok {
			continue
		}
		impr := improvement(st.s, st.contrib[i], dependence)
		score := impr
		if !best {
			score = -impr
		}
		if st.bestIdx == -1 || score > st.bestScore {
			st.bestIdx, st.bestScore = i, score
		}
	}
	return st.bestIdx != -1
}

// tauTopK runs the tau-statistic drill-down (Algorithm 2 plus the K / K^c
// greedy loops) on a numeric pair.
func tauTopK(ctx context.Context, d *relation.Relation, c sc.SC, k int, opts Options) (Result, error) {
	var strata []*tauStratum
	total := 0
	strataRows, strataKeys, err := strataFor(ctx, d, c, opts)
	if err != nil {
		return Result{}, err
	}
	for _, rows := range strataRows {
		total += len(rows)
	}
	if total < k {
		return Result{}, fmt.Errorf("drilldown: only %d records in testable strata, need k=%d", total, k)
	}
	// One arena per drill-down: the per-stratum contrib and alive slices are
	// carved out of two shared buffers, and the benefit-initialization
	// scratch (sort order, rank buffers, Fenwick trees) is reused across
	// strata, so the setup cost is a handful of allocations independent of
	// the stratum count.
	contribArena := make([]float64, total)
	aliveArena := make([]bool, total)
	var scratch tauScratch
	used := 0
	for si, rows := range strataRows {
		st := &tauStratum{rows: rows}
		// Cached column values are shared read-only: the greedy loop only
		// reads x and y, and mutates the stratum-private contrib slice.
		st.x, err = opts.Cache.FloatsContext(ctx, d, c.X[0], strataKeys[si], rows)
		if err != nil {
			return Result{}, fmt.Errorf("drilldown: %w", err)
		}
		st.y, err = opts.Cache.FloatsContext(ctx, d, c.Y[0], strataKeys[si], rows)
		if err != nil {
			return Result{}, fmt.Errorf("drilldown: %w", err)
		}
		st.contrib = contribArena[used : used+len(rows) : used+len(rows)]
		st.alive = aliveArena[used : used+len(rows) : used+len(rows)]
		used += len(rows)
		scratch.initBenefits(st.contrib, st.x, st.y)
		for i := range st.alive {
			st.alive[i] = true
		}
		st.nAlive = len(rows)
		for _, b := range st.contrib {
			st.s += b
		}
		st.s /= 2 // each pair counted from both endpoints
		strata = append(strata, st)
	}

	res := Result{Strategy: opts.resolve(c), InitialStat: sumStats(strata)}
	greedy := tauGreedyDelta
	if opts.linear {
		greedy = tauGreedyLinear
	}
	switch res.Strategy {
	case K:
		res.Rows, err = greedy(ctx, strata, k, c.Dependence, true)
	default:
		_, err = greedy(ctx, strata, total-k, c.Dependence, false)
		res.Rows = survivors(strata, k)
	}
	if err != nil {
		return Result{}, err
	}
	res.FinalStat = sumStats(strata)
	return res, nil
}

func sumStats(strata []*tauStratum) float64 {
	var s float64
	for _, st := range strata {
		s += st.s
	}
	return s
}

// tauGreedyLinear removes `rounds` records one at a time with the seed-era
// full rescan: every round scans every alive record of every stratum. When
// best is true each round removes the record whose removal most improves the
// objective (the K strategy); when false, the record whose removal most
// deteriorates it (the K^c strategy). Removed records are returned in
// removal order as original row indices.
//
// The objective is sum over strata of |nc - nd|, minimized for an ISC and
// maximized for a DSC. Removing record i from stratum z changes the
// stratum's statistic from s to s - contrib(i), so the improvement is
// computable in O(1) per candidate; each round scans the alive records and
// then updates the contributions of the removed record's stratum in O(n_z).
//
// This is the reference implementation behind TopKLinear: the delta-argmax
// fast path below must match it row for row (delta_identity_test.go), and
// internal/drillbench reports the speedup of the fast path against it.
func tauGreedyLinear(ctx context.Context, strata []*tauStratum, rounds int, dependence, best bool) ([]int, error) {
	removed := make([]int, 0, rounds)
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("drilldown: interrupted after %d greedy rounds: %w", round, err)
		}
		selStratum, selIdx := -1, -1
		var selScore float64
		for si, st := range strata {
			if st.nAlive == 0 {
				continue
			}
			for i, ok := range st.alive {
				if !ok {
					continue
				}
				impr := improvement(st.s, st.contrib[i], dependence)
				score := impr
				if !best {
					score = -impr
				}
				if selIdx == -1 || score > selScore {
					selStratum, selIdx, selScore = si, i, score
				}
			}
		}
		if selIdx == -1 {
			break
		}
		strata[selStratum].removeRecord(selIdx)
		removed = append(removed, strata[selStratum].rows[selIdx])
	}
	return removed, nil
}

// tauGreedyDelta is the incremental argmax form of the greedy loop: each
// stratum caches its best candidate and an indexed max-heap over strata
// (segtree.MaxHeap, ids = stratum indices) yields the global argmax in
// O(log S). Removing a record only mutates its own stratum, so each round
// rescans and re-keys exactly one stratum: O(n_z + log S) per round instead
// of the linear scan's O(n_total).
//
// Selection is row-for-row identical to tauGreedyLinear: untouched strata
// keep bit-identical cached scores (their inputs are unchanged and the score
// function is deterministic), within-stratum ties keep the lowest record
// index (rescanBest's strict >), and cross-strata ties keep the lowest
// stratum index (the heap's deterministic id tie-break).
func tauGreedyDelta(ctx context.Context, strata []*tauStratum, rounds int, dependence, best bool) ([]int, error) {
	h := segtree.NewMaxHeap()
	for si, st := range strata {
		if st.rescanBest(dependence, best) {
			h.Push(si, st.bestScore)
		}
	}
	removed := make([]int, 0, rounds)
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("drilldown: interrupted after %d greedy rounds: %w", round, err)
		}
		si, _, ok := h.Peek()
		if !ok {
			break
		}
		st := strata[si]
		selIdx := st.bestIdx
		st.removeRecord(selIdx)
		removed = append(removed, st.rows[selIdx])
		if st.rescanBest(dependence, best) {
			h.Update(si, st.bestScore)
		} else {
			h.Remove(si)
		}
	}
	return removed, nil
}

// removeRecord takes record i out of the stratum and updates the surviving
// contributions: pair weights with the removed record disappear.
func (st *tauStratum) removeRecord(i int) {
	st.alive[i] = false
	st.nAlive--
	st.s -= st.contrib[i]
	xi, yi := st.x[i], st.y[i]
	for j, ok := range st.alive {
		if !ok {
			continue
		}
		st.contrib[j] -= pairWeight(xi, yi, st.x[j], st.y[j])
	}
}

// improvement is the objective gain from removing a record with the given
// contribution from a stratum with statistic s: for an ISC (dependence
// false) the objective is to shrink |s|; for a DSC to grow it.
func improvement(s, contrib float64, dependence bool) float64 {
	delta := math.Abs(s) - math.Abs(s-contrib)
	if dependence {
		return -delta
	}
	return delta
}

// pairWeight is 1 for a concordant pair, -1 for discordant, 0 for tied.
// It compares, never subtracts: Inf-Inf is NaN, which would turn a pair
// tied at an infinity into a concordant or discordant one.
func pairWeight(x1, y1, x2, y2 float64) float64 {
	switch {
	//scoded:lint-ignore floatcmp Kendall ties are defined by exact value equality
	case x1 == x2 || y1 == y2:
		return 0
	case (x1 > x2) == (y1 > y2):
		return 1
	default:
		return -1
	}
}

// survivors returns the alive rows of all strata, in original order. k is
// the expected survivor count (a capacity hint).
func survivors(strata []*tauStratum, k int) []int {
	out := make([]int, 0, k)
	for _, st := range strata {
		for i, ok := range st.alive {
			if ok {
				out = append(out, st.rows[i])
			}
		}
	}
	sort.Ints(out)
	return out
}

// tauScratch holds the reusable buffers of the benefit initialization so a
// multi-stratum drill-down allocates the sort order, rank and Fenwick
// buffers once instead of once per stratum. The zero value is ready to use.
type tauScratch struct {
	order  []int
	ranks  []int
	sorted []float64
	t1, t2 *segtree.Fenwick
}

// initBenefits computes every record's concordant-minus-discordant pair sum
// into benefit (parallel to x and y) in O(n log n) with two Fenwick-tree
// passes over the rank-compressed Y axis, exactly as in Algorithm 2: the
// ascending pass accounts for pairs with smaller X, the descending pass for
// pairs with larger X. Records tied on X are processed as a block — queried
// before any of the block is inserted — so X-ties contribute zero weight.
func (ts *tauScratch) initBenefits(benefit []float64, x, y []float64) {
	n := len(x)
	for i := range benefit {
		benefit[i] = 0
	}
	if n == 0 {
		return
	}
	var distinct int
	ts.ranks, distinct, ts.sorted = segtree.CompressRanksInto(y, ts.ranks, ts.sorted)
	yRank := ts.ranks

	if cap(ts.order) < n {
		ts.order = make([]int, n)
	}
	order := ts.order[:n]
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return x[order[a]] < x[order[b]] })

	if ts.t1 == nil {
		ts.t1, ts.t2 = segtree.NewFenwick(distinct), segtree.NewFenwick(distinct)
	}
	// Ascending pass: tree T1 holds records with strictly smaller X.
	t1 := ts.t1
	t1.Reset(distinct)
	for i := 0; i < n; {
		j := i
		//scoded:lint-ignore floatcmp X-runs group exactly-equal sorted data values
		for j+1 < n && x[order[j+1]] == x[order[i]] {
			j++
		}
		for m := i; m <= j; m++ {
			id := order[m]
			nc := t1.CountBelow(yRank[id])
			nd := t1.CountAbove(yRank[id])
			benefit[id] += float64(nc - nd)
		}
		for m := i; m <= j; m++ {
			t1.Insert(yRank[order[m]], 1)
		}
		i = j + 1
	}

	// Descending pass: tree T2 holds records with strictly larger X.
	t2 := ts.t2
	t2.Reset(distinct)
	for i := n - 1; i >= 0; {
		j := i
		//scoded:lint-ignore floatcmp X-runs group exactly-equal sorted data values
		for j-1 >= 0 && x[order[j-1]] == x[order[i]] {
			j--
		}
		for m := j; m <= i; m++ {
			id := order[m]
			nc := t2.CountAbove(yRank[id])
			nd := t2.CountBelow(yRank[id])
			benefit[id] += float64(nc - nd)
		}
		for m := j; m <= i; m++ {
			t2.Insert(yRank[order[m]], 1)
		}
		i = j - 1
	}
}

// initBenefits computes every record's concordant-minus-discordant pair sum
// with a one-shot scratch; kept for the property tests that pin the fast
// initialization against the naive O(n²) pair count.
func initBenefits(x, y []float64) []float64 {
	benefit := make([]float64, len(x))
	var scratch tauScratch
	scratch.initBenefits(benefit, x, y)
	return benefit
}
