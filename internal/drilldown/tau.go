package drilldown

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/segtree"
	"scoded/internal/stats"
)

// tauStratum holds the drill-down state for one conditioning stratum of a
// numeric constraint.
type tauStratum struct {
	rows    []int     // original row indices
	contrib []float64 // per-record concordant-minus-discordant pair sum (linear path)
	alive   []bool
	s       float64 // current nc - nd of the stratum
	nAlive  int

	// The delta greedy's packed stratum (DESIGN.md §10): the live records
	// in any order, each removal filling its hole with the last one, and
	// the index in live of the current best candidate. The linear path
	// keeps live in position order.
	live []tauRec
	best int
}

// tauRec is one live record of a packed stratum. Pair weights are read off
// the dense ranks, so a round is integer work over live records only.
type tauRec struct {
	xr, yr int32 // dense ranks of x and y within the stratum
	c      int32 // concordant-minus-discordant pair sum over live records
	pos    int32 // index into rows: the linear scan's order
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
	// One arena per drill-down: the per-stratum packed records and alive
	// flags (and the linear reference's float contributions) are carved out
	// of shared buffers, and the benefit-initialization scratch (sort order
	// and Fenwick tree) is reused across strata, so the setup cost is a
	// handful of allocations independent of the stratum count.
	recArena := make([]tauRec, total)
	aliveArena := make([]bool, total)
	var contribArena []float64
	if opts.linear {
		contribArena = make([]float64, total)
	}
	var scratch tauScratch
	used := 0
	for si, rows := range strataRows {
		st := &tauStratum{rows: rows}
		// Cached rank views are shared read-only: init copies the ranks
		// into the stratum-private records, which the greedy loops mutate.
		xr, err := orderedRanks(ctx, d, opts.Cache, c.X[0], strataKeys[si], rows)
		if err != nil {
			return Result{}, err
		}
		yr, err := orderedRanks(ctx, d, opts.Cache, c.Y[0], strataKeys[si], rows)
		if err != nil {
			return Result{}, err
		}
		end := used + len(rows)
		st.live = recArena[used:end:end]
		st.alive = aliveArena[used:end:end]
		scratch.initBenefits(st.live, xr, yr)
		var sum int64
		for i, r := range st.live {
			st.alive[i] = true
			sum += int64(r.c)
		}
		if opts.linear {
			st.contrib = contribArena[used:end:end]
			for i, r := range st.live {
				st.contrib[i] = float64(r.c)
			}
		}
		st.nAlive = len(rows)
		st.s = float64(sum / 2) // each pair counted from both endpoints
		used = end
		strata = append(strata, st)
	}

	res := Result{Strategy: opts.resolve(c), InitialStat: sumStats(strata)}
	greedy := func(rounds int, best bool) ([]int, error) {
		if opts.linear {
			return tauGreedyLinear(ctx, strata, rounds, c.Dependence, best)
		}
		return greedyDelta(ctx, strata, rounds, direction{dependence: c.Dependence, best: best})
	}
	switch res.Strategy {
	case K:
		res.Rows, err = greedy(k, true)
	default:
		_, err = greedy(total-k, false)
		res.Rows = survivors(strata, k)
	}
	if err != nil {
		return Result{}, err
	}
	res.FinalStat = sumStats(strata)
	return res, nil
}

// orderedRanks returns a stratum's rank view of a numeric column. It
// rejects NaN, as stats.Kendall does for detection: NaN has no rank.
func orderedRanks(ctx context.Context, d *relation.Relation, cache *kernel.Cache, col, rowsKey string, rows []int) (stats.RankView, error) {
	v, err := cache.RanksContext(ctx, d, col, rowsKey, rows)
	if err != nil {
		return stats.RankView{}, fmt.Errorf("drilldown: %w", err)
	}
	if v.NaN >= 0 {
		return stats.RankView{}, fmt.Errorf("drilldown: column %q contains NaN; tau needs ordered values", col)
	}
	return v, nil
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

// removeRecord takes record i out of the stratum and updates the surviving
// contributions: pair weights with the removed record disappear. A pair's
// weight is 1 when concordant, -1 when discordant and 0 when tied: the
// sign of the product of its rank differences.
func (st *tauStratum) removeRecord(i int) {
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

// scan finds the stratum's first best candidate; see sweep.
func (st *tauStratum) scan(d direction) (float64, bool) {
	return st.sweep(tauRec{}, 0, d)
}

// take removes the current best candidate, fills its slot with the last
// live record, and sweeps the survivors once for the next best.
func (st *tauStratum) take(d direction) (int, float64, bool) {
	gone := st.live[st.best]
	last := len(st.live) - 1
	st.live[st.best] = st.live[last]
	st.live = st.live[:last]
	st.alive[gone.pos] = false
	st.s -= float64(gone.c)
	score, ok := st.sweep(gone, 1, d)
	return st.rows[gone.pos], score, ok
}

// sweep is a delta-greedy round's one pass over the stratum. It subtracts
// each survivor's pair weight with gone, times w (0 when nothing was
// removed): the sign of the product of their rank differences, so a tie
// weighs 0. It also finds the best candidate: the highest score and, among
// equal scores, the lowest position, which is the record tauGreedyLinear's
// strict > meets first. Scores are exact integers, equal to the linear
// scan's float improvements.
func (st *tauStratum) sweep(gone tauRec, w int64, d direction) (float64, bool) {
	neg := int64(0) // all ones when a DSC or K^c, not both, negates the score
	if d.dependence == d.best {
		neg = -1
	}
	s := int64(st.s)
	abs := abs64(s)
	live, best, top := st.live, -1, int64(math.MinInt64)
	for i := range live {
		r := &live[i]
		r.c -= int32(sign64(int64(r.xr-gone.xr) * int64(r.yr-gone.yr) * w))
		impr := abs - abs64(s-int64(r.c))
		score := (impr ^ neg) - neg // impr, or -impr when neg is all ones
		// |score| <= |c| < 2^31, so the key orders by score, then lowest pos.
		if key := score<<32 | int64(math.MaxInt32-r.pos); key > top {
			best, top = i, key
		}
	}
	st.best = best
	return float64(top >> 32), best >= 0
}

func sign64(v int64) int64 { return v>>63 | int64(uint64(-v)>>63) }

func abs64(v int64) int64 {
	m := v >> 63
	return (v ^ m) - m
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
// multi-stratum drill-down allocates the sort order and the Fenwick tree
// once instead of once per stratum. The zero value is ready to use.
type tauScratch struct {
	order, ends []int32
	tree        segtree.Fenwick
}

// initBenefits fills recs (parallel to the rank views) with every record's
// dense x and y ranks, its position, and its concordant-minus-discordant
// pair sum, computed in O(n log n) with two Fenwick-tree passes over the
// Y ranks, exactly as in Algorithm 2: the ascending pass accounts for
// pairs with smaller X, the descending pass for pairs with larger X. A
// stable counting sort on the x ranks orders the records into X-tie
// blocks, and each block is queried before any of it is inserted, so
// X-ties contribute zero weight.
func (ts *tauScratch) initBenefits(recs []tauRec, x, y stats.RankView) {
	n := len(recs)
	if n == 0 {
		return
	}
	for i := range recs {
		recs[i] = tauRec{xr: x.Ranks[i], yr: y.Ranks[i], pos: int32(i)}
	}
	ts.order, ts.ends = slices.Grow(ts.order[:0], n)[:n], slices.Grow(ts.ends[:0], x.Distinct)[:x.Distinct]
	order, ends := ts.order, ts.ends
	clear(ends)
	for _, r := range x.Ranks {
		ends[r]++
	}
	var start int32
	for r, c := range ends {
		ends[r], start = start, start+c
	}
	for i, r := range x.Ranks {
		order[ends[r]] = int32(i)
		ends[r]++
	}
	// ends[r] is now where X-tie block r ends.

	// Ascending pass: the tree holds records with strictly smaller X.
	t := &ts.tree
	t.Reset(y.Distinct)
	start = 0
	for _, end := range ends {
		for _, id := range order[start:end] {
			yr := int(recs[id].yr)
			recs[id].c += int32(t.CountBelow(yr) - t.CountAbove(yr))
		}
		for _, id := range order[start:end] {
			t.Insert(int(recs[id].yr), 1)
		}
		start = end
	}

	// Descending pass: the tree holds records with strictly larger X.
	t.Reset(y.Distinct)
	end := int32(n)
	for r := len(ends) - 1; r >= 0; r-- {
		start = 0
		if r > 0 {
			start = ends[r-1]
		}
		for _, id := range order[start:end] {
			yr := int(recs[id].yr)
			recs[id].c += int32(t.CountAbove(yr) - t.CountBelow(yr))
		}
		for _, id := range order[start:end] {
			t.Insert(int(recs[id].yr), 1)
		}
		end = start
	}
}
