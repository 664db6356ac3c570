package drilldown

import (
	"context"
	"fmt"
	"math"
	"slices"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/segtree"
	"scoded/internal/stats"
)

// tauStratum holds the drill-down state for one conditioning stratum of a
// numeric constraint.
type tauStratum struct {
	rows  []int // original row indices
	alive []bool
	s     float64 // current nc - nd of the stratum

	// The delta greedy's packed stratum (DESIGN.md §10): the live records
	// in any order, each removal filling its hole with the last one, and
	// the index in live of the current best candidate. Until the first
	// take, live is in position order.
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

// tauStrata runs Algorithm 2's init (§5.3) on every stratum of a numeric
// pair; total is the strata's record count. One arena per drill holds the
// strata's packed records and alive flags, and the init scratch (sort order
// and Fenwick tree) is reused across strata, so setup is a handful of
// allocations independent of the stratum count.
func tauStrata(ctx context.Context, d *relation.Relation, c sc.SC, strataRows [][]int, strataKeys []string, total int, cache *kernel.Cache) ([]greedyStratum, error) {
	recArena := make([]tauRec, total)
	aliveArena := make([]bool, total)
	var scratch tauScratch
	strata := make([]greedyStratum, 0, len(strataRows))
	used := 0
	for si, rows := range strataRows {
		// Cached rank views are shared read-only: init copies the ranks
		// into the stratum-private records, which the greedy loops mutate.
		xr, err := orderedRanks(ctx, d, cache, c.X[0], strataKeys[si], rows)
		if err != nil {
			return nil, err
		}
		yr, err := orderedRanks(ctx, d, cache, c.Y[0], strataKeys[si], rows)
		if err != nil {
			return nil, err
		}
		end := used + len(rows)
		st := &tauStratum{rows: rows, live: recArena[used:end:end], alive: aliveArena[used:end:end]}
		scratch.initBenefits(st.live, xr, yr)
		var sum int64
		for i, r := range st.live {
			st.alive[i] = true
			sum += int64(r.c)
		}
		st.s = float64(sum / 2) // each pair counted from both endpoints
		used = end
		strata = append(strata, st)
	}
	return strata, nil
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

// scan finds the stratum's first best candidate; see sweep.
func (st *tauStratum) scan(d direction) (float64, bool) {
	return st.sweep(tauRec{}, 0, d)
}

func (st *tauStratum) size() int { return len(st.live) }

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
// equal scores, the lowest position, which is the record the linear
// rescan's strict > meets first. Scores are exact integers, equal to the
// linear rescan's float improvements.
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

func (st *tauStratum) stat() float64 { return st.s }

func (st *tauStratum) appendLive(out []int) []int {
	for i, ok := range st.alive {
		if ok {
			out = append(out, st.rows[i])
		}
	}
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
