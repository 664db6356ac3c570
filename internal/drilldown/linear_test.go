package drilldown

import (
	"context"
	"math"

	"scoded/internal/relation"
	"scoded/internal/sc"
)

// topKLinear is TopK over linearGreedy: the oracle the delta drill must
// match row for row, and the linear baseline of BENCH_drilldown.json.
func topKLinear(d *relation.Relation, c sc.SC, k int, opts Options) (Result, error) {
	return topK(context.Background(), d, c, k, opts, linearGreedy)
}

// linearGreedy is the seed-era greedy of §5.2: every round rescans every
// live candidate of every stratum and removes the best one, the first met
// among equal scores. It runs on one goroutine; workers is unused.
func linearGreedy(ctx context.Context, strata []greedyStratum, rounds int, d direction, _ int) ([]int, error) {
	var tau []*tauStratum
	var g []*gStratum
	for _, st := range strata {
		switch st := st.(type) {
		case *tauStratum:
			tau = append(tau, st)
		case *gStratum:
			g = append(g, st)
		}
	}
	if tau != nil {
		return tauGreedyLinear(ctx, tau, rounds, d.dependence, d.best)
	}
	return gGreedyLinear(ctx, g, rounds, d.dependence, d.best, d.objective)
}

// linearTau is the linear greedy's view of a tau stratum: each record's
// concordant-minus-discordant pair sum as a float, in position order, and
// the live count. The stratum's live records stay in position order
// because the linear greedy never calls take.
type linearTau struct {
	*tauStratum
	contrib []float64
	nAlive  int
}

// tauGreedyLinear removes `rounds` records one at a time. When best is
// true each round removes the record whose removal most improves the
// objective (the K strategy); when false, the record whose removal most
// deteriorates it (the K^c strategy). Removed records are returned in
// removal order as original row indices.
//
// The objective is sum over strata of |nc - nd|, minimized for an ISC and
// maximized for a DSC. Removing record i from stratum z changes the
// stratum's statistic from s to s - contrib(i), so the improvement is
// computable in O(1) per candidate; each round scans the alive records and
// then updates the contributions of the removed record's stratum in O(n_z).
func tauGreedyLinear(ctx context.Context, strata []*tauStratum, rounds int, dependence, best bool) ([]int, error) {
	lin := make([]linearTau, len(strata))
	for si, st := range strata {
		lin[si] = linearTau{tauStratum: st, contrib: make([]float64, len(st.live)), nAlive: len(st.live)}
		for i, r := range st.live {
			lin[si].contrib[i] = float64(r.c)
		}
	}
	removed := make([]int, 0, rounds)
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, interrupted(round, err)
		}
		selStratum, selIdx := -1, -1
		var selScore float64
		for si, st := range lin {
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
		lin[selStratum].removeRecord(selIdx)
		removed = append(removed, lin[selStratum].rows[selIdx])
	}
	return removed, nil
}

// removeRecord takes record i out of the stratum and updates the surviving
// contributions: pair weights with the removed record disappear. A pair's
// weight is 1 when concordant, -1 when discordant and 0 when tied: the
// sign of the product of its rank differences.
func (st *linearTau) removeRecord(i int) {
	st.alive[i] = false
	st.nAlive--
	st.s -= st.contrib[i]
	gone := st.live[i]
	for j, ok := range st.alive {
		if !ok {
			continue
		}
		r := st.live[j]
		st.contrib[j] -= float64(sign64(int64(r.xr-gone.xr) * int64(r.yr-gone.yr)))
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

// gGreedyLinear removes `rounds` records. Each round scans every non-empty
// cell of every stratum, scores the cell under the configured objective,
// and removes one record from the best cell (K strategy, best=true) or the
// worst (K^c, best=false). The improvement direction follows the
// constraint type: for an ISC the statistic (or contribution) should fall,
// for a DSC it should rise.
func gGreedyLinear(ctx context.Context, strata []*gStratum, rounds int, dependence, best bool, objective GObjective) ([]int, error) {
	removed := make([]int, 0, rounds)
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, interrupted(round, err)
		}
		selStratum, selI, selJ := -1, -1, -1
		var selScore float64
		for si, st := range strata {
			for i := 0; i < st.kx; i++ {
				for j := 0; j < st.ky; j++ {
					if st.counts[st.cell(i, j)] <= 0 {
						continue
					}
					score := gScore(st, i, j, dependence, best, objective)
					if selI == -1 || score > selScore {
						selStratum, selI, selJ, selScore = si, i, j, score
					}
				}
			}
		}
		if selI == -1 {
			break
		}
		removed = append(removed, strata[selStratum].remove(selI, selJ))
	}
	return removed, nil
}
