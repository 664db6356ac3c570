// Package drilldown implements SCODED's error-drill-down component
// (Section 5 of the paper): given a dataset and an SC whose violation was
// detected, identify the top-k records that contribute most to the
// violation.
//
// Two greedy strategies are provided. The K strategy repeatedly removes the
// best-to-remove record — the one whose removal moves the test statistic
// furthest towards what the constraint requires — and returns the k removed
// records. The K^c strategy repeatedly removes the worst-to-remove record
// and returns the k records that survive; the paper finds it better at
// isolating mutually correlated records for independence SCs.
//
// The direction of "improvement" depends on the constraint: for an
// independence SC the dependence statistic should shrink towards 0; for a
// dependence SC (violated when the dependence is too weak) it should grow.
//
// For categorical data the G statistic is used with the group-based
// optimization of Section 5.3: records in the same (X, Y) cell are
// interchangeable, and the change in G from removing one record of a cell is
// computable in O(1) from the cell count, the two marginals and N. For
// numeric data the tau statistic's per-record benefits (concordant minus
// discordant pair counts) are initialized in O(n log n) with two
// Fenwick-tree passes over the rank-compressed Y axis — Algorithm 2 — and
// maintained exactly across removals in O(n) per round.
package drilldown

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"scoded/internal/engine"
	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/segtree"
)

// Strategy selects the greedy search strategy of Section 5.2.
type Strategy int

const (
	// Best picks the paper's recommended strategy per constraint type: K for
	// dependence SCs, K^c for independence SCs.
	Best Strategy = iota
	// K repeatedly removes the best-to-remove record, k times.
	K
	// Kc repeatedly removes the worst-to-remove record, n-k times, and
	// returns the remaining k records.
	Kc
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Best:
		return "best"
	case K:
		return "K"
	case Kc:
		return "Kc"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Method selects the drill-down statistic.
type Method int

const (
	// AutoMethod picks the tau path for numeric pairs and the G path
	// otherwise.
	AutoMethod Method = iota
	// GMethod forces the group-based G path; numeric columns are
	// quantile-discretized. Use it for non-monotone dependencies (such as
	// the Hockey case study's imputed zeros) that rank correlation cannot
	// see.
	GMethod
	// TauMethod forces the tau path; both columns must be numeric.
	TauMethod
)

// Options configures drill-down.
type Options struct {
	// Strategy selects K or K^c; Best (per-constraint default) if unset.
	Strategy Strategy
	// Method selects the statistic path; AutoMethod by default.
	Method Method
	// Bins is the quantile bin count used when a numeric column meets the
	// G path (mixed pairs); defaults to 4.
	Bins int
	// MinStratumSize skips conditioning strata smaller than this;
	// defaults to 5.
	MinStratumSize int
	// GObjective selects the categorical ranking signal: the paper's
	// per-cell contribution heuristic (default) or the exact greedy G
	// delta. See the GObjective constants.
	GObjective GObjective
	// Cache optionally supplies a kernel cache bound to the same relation,
	// letting the drill-down reuse partitions, codings and float columns
	// already computed by detection. Results are bit-identical with and
	// without it; nil computes everything directly.
	Cache *kernel.Cache
	// Workers bounds the engine pools of a drill, mirroring
	// detect.BatchOptions.Workers: MultiTopK's over constraints, and every
	// TopK's over the strata's guaranteed greedy shares (DESIGN.md §10).
	// Zero or negative means runtime.GOMAXPROCS(0). Results do not depend
	// on it.
	Workers int
	// Hooks observes per-constraint drills in MultiTopK (the server wires
	// these into /metrics). Optional; single-constraint TopK ignores it.
	Hooks engine.Hooks
}

func (o Options) withDefaults() Options {
	if o.Bins <= 1 {
		o.Bins = 4
	}
	if o.MinStratumSize <= 0 {
		o.MinStratumSize = 5
	}
	return o
}

func (o Options) resolve(c sc.SC) Strategy {
	if o.Strategy != Best {
		return o.Strategy
	}
	if c.Dependence {
		return K
	}
	return Kc
}

// Result reports the drill-down outcome.
type Result struct {
	// Rows are the selected record indices (0-based, into the input
	// relation). For the K strategy they are in selection order: the first
	// row is the single most incriminated record.
	Rows []int
	// InitialStat and FinalStat are the dependence statistic before the
	// drill-down and after (hypothetically) removing the selected rows.
	// For the G path the statistic is G; for the tau path it is the signed
	// pair-count difference n_c - n_d summed over strata.
	InitialStat, FinalStat float64
	// Strategy is the strategy actually used.
	Strategy Strategy
}

// TopK solves the top-k contribution problem with no deadline; see
// TopKContext.
func TopK(d *relation.Relation, c sc.SC, k int, opts Options) (Result, error) {
	return TopKContext(context.Background(), d, c, k, opts)
}

// TopKContext solves the top-k contribution problem (Definition 7): it
// returns the k records contributing most to the violation of the
// constraint. Conditional constraints drill down within each conditioning
// stratum and rank records globally. Set-valued X or Y are not supported
// here; decompose first and drill into the leaf of interest.
//
// Cancellation is checked before every greedy round and every take the
// stratum pool makes, so a deadline interrupts a long drill mid-loop; the
// returned error then counts the takes made and wraps the context's error
// (context.DeadlineExceeded or context.Canceled).
func TopKContext(ctx context.Context, d *relation.Relation, c sc.SC, k int, opts Options) (Result, error) {
	return topK(ctx, d, c, k, opts, greedyDelta)
}

// greedyFunc runs a drill's greedy: the given rounds over the strata in
// direction d, on at most workers, returning the removed rows in removal
// order.
type greedyFunc func(ctx context.Context, strata []greedyStratum, rounds int, d direction, workers int) ([]int, error)

// topK is TopKContext over the given greedy. Drills run greedyDelta; the
// tests also run the §5.2 linear-rescan greedy here, the oracle greedyDelta
// must match row for row.
func topK(ctx context.Context, d *relation.Relation, c sc.SC, k int, opts Options, greedy greedyFunc) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if !c.IsSingle() {
		return Result{}, fmt.Errorf("drilldown: set-valued constraint %s; decompose first", c)
	}
	for _, col := range c.Columns() {
		if !d.HasColumn(col) {
			return Result{}, fmt.Errorf("drilldown: dataset lacks column %q required by %s", col, c)
		}
	}
	n := d.NumRows()
	if k <= 0 || k > n {
		return Result{}, fmt.Errorf("drilldown: k=%d out of range (1..%d)", k, n)
	}
	if opts.Cache != nil && opts.Cache.Relation() != d {
		return Result{}, fmt.Errorf("drilldown: kernel cache is bound to a different relation")
	}
	opts = opts.withDefaults()

	x := d.MustColumn(c.X[0])
	y := d.MustColumn(c.Y[0])
	tau := x.Kind == relation.Numeric && y.Kind == relation.Numeric
	switch opts.Method {
	case GMethod:
		tau = false
	case TauMethod:
		if !tau {
			return Result{}, fmt.Errorf("drilldown: tau method requires numeric columns, got %s (%s) and %s (%s)",
				c.X[0], x.Kind, c.Y[0], y.Kind)
		}
	}
	strataRows, strataKeys, err := strataFor(ctx, d, c, opts)
	if err != nil {
		return Result{}, err
	}
	total := 0
	for _, rows := range strataRows {
		total += len(rows)
	}
	if total < k {
		return Result{}, fmt.Errorf("drilldown: only %d records in testable strata, need k=%d", total, k)
	}
	var strata []greedyStratum
	if tau {
		strata, err = tauStrata(ctx, d, c, strataRows, strataKeys, total, opts.Cache)
	} else {
		strata, err = gStrata(ctx, d, c, strataRows, strataKeys, opts)
	}
	if err != nil {
		return Result{}, err
	}

	res := Result{Strategy: opts.resolve(c), InitialStat: sumStat(strata)}
	dir := direction{dependence: c.Dependence, objective: opts.GObjective}
	if res.Strategy == K {
		dir.best = true
		res.Rows, err = greedy(ctx, strata, k, dir, opts.Workers)
	} else {
		_, err = greedy(ctx, strata, total-k, dir, opts.Workers)
		res.Rows = survivors(strata, k)
	}
	if err != nil {
		return Result{}, err
	}
	res.FinalStat = sumStat(strata)
	return res, nil
}

// direction is one greedy run's search: the constraint's direction, K
// (best) or K^c, and the G path's ranking signal.
type direction struct {
	dependence, best bool
	objective        GObjective
}

// greedyStratum is one conditioning stratum of a drill, tau's or G's. Each
// keeps its current best candidate: scan finds it, and take removes it,
// returns its row, and finds the next one in the same pass. size is the
// number of live records; ok is false once none is left. stat is the
// stratum's dependence statistic and appendLive appends its live rows.
type greedyStratum interface {
	scan(d direction) (score float64, ok bool)
	take(d direction) (row int, score float64, ok bool)
	size() int
	stat() float64
	appendLive(rows []int) []int
}

// sumStat is the drill's dependence statistic: the strata's, summed in
// stratum order.
func sumStat(strata []greedyStratum) float64 {
	var s float64
	for _, st := range strata {
		s += st.stat()
	}
	return s
}

// survivors returns the live rows of all strata in original order. k is
// the expected survivor count (a capacity hint).
func survivors(strata []greedyStratum, k int) []int {
	out := make([]int, 0, k)
	for _, st := range strata {
		out = st.appendLive(out)
	}
	sort.Ints(out)
	return out
}

// step is one recorded step of a stratum: the row a take removed (none for
// the first scan) and the stratum's next best score.
type step struct {
	row   int
	score float64
	ok    bool
}

// greedyDelta is the delta-argmax form of §5.2's greedy, whose linear
// rescan scores every live candidate of every stratum each round
// (DESIGN.md §10): an indexed max-heap holds one entry per stratum, its id
// the stratum index and its key the stratum's best score. A removal changes
// only its own stratum, so a round takes the top stratum's best and re-keys
// that one entry. Untouched strata keep bit-identical keys, a stratum breaks
// ties towards the candidate its linear scan meets first, and the heap
// towards the lowest stratum index, so the rows are the linear scans'.
//
// A stratum's steps depend only on its own earlier takes, so the takes
// every interleaving must make are computed ahead on the engine pool (see
// greedyPrefix), and the heap replays them before it takes live.
func greedyDelta(ctx context.Context, strata []greedyStratum, rounds int, d direction, workers int) ([]int, error) {
	steps, taken, err := greedyPrefix(ctx, strata, rounds, d, workers)
	if err != nil {
		return nil, err
	}
	// next returns stratum si's next step: recorded while its prefix
	// lasts, then live.
	next := func(si int) (step, bool) {
		if si < len(steps) && len(steps[si]) > 0 {
			s := steps[si][0]
			steps[si] = steps[si][1:]
			return s, false
		}
		return step{}, true
	}
	h := segtree.NewMaxHeap()
	for si, st := range strata {
		s, live := next(si)
		if live {
			s.score, s.ok = st.scan(d)
		}
		if s.ok {
			h.Push(si, s.score)
		}
	}
	removed := make([]int, 0, rounds)
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, interrupted(taken, err)
		}
		si, _, ok := h.Peek()
		if !ok {
			break
		}
		s, live := next(si)
		if live {
			s.row, s.score, s.ok = strata[si].take(d)
			taken++
		}
		removed = append(removed, s.row)
		if s.ok {
			h.Update(si, s.score)
		} else {
			h.Remove(si)
		}
	}
	return removed, nil
}

// greedyPrefix takes, on the engine pool, each stratum's guaranteed share
// of a greedy run of the given rounds over strata holding T live records:
// whatever the interleaving, stratum z gives at least g_z = rounds − (T −
// n_z) of its n_z records, because the others hold only T − n_z. Each
// stratum with g_z > 0 records its first scan and its first g_z takes in
// steps[z], carved from one arena, and the total take count is returned
// with them. The work is the sequential run's, only spread over workers.
// Unless at least two strata have a share it starts no pool and returns
// nil: a K drill (rounds = k) rarely has any, a marginal drill has one
// stratum.
//
// Each take checks ctx, as a round does; an interrupted prefix returns
// after the pool drains, counting the takes made.
func greedyPrefix(ctx context.Context, strata []greedyStratum, rounds int, d direction, workers int) ([][]step, int, error) {
	total := 0
	for _, st := range strata {
		total += st.size()
	}
	var ids []int // strata with a share, in stratum order
	arena := 0
	for si, st := range strata {
		if g := rounds - total + st.size(); g > 0 {
			ids = append(ids, si)
			arena += g + 1
		}
	}
	if len(ids) < 2 {
		return nil, 0, nil
	}
	steps := make([][]step, len(strata))
	buf := make([]step, arena)
	for _, si := range ids {
		n := rounds - total + strata[si].size() + 1
		steps[si], buf = buf[:n:n], buf[n:]
	}
	done := make([]int, len(ids))
	errs := engine.Run(ctx, len(ids), engine.Options{Workers: workers}, func(ctx context.Context, i int) error {
		st, rec := strata[ids[i]], steps[ids[i]]
		rec[0].score, rec[0].ok = st.scan(d)
		for m := 1; m < len(rec); m++ {
			if err := ctx.Err(); err != nil {
				done[i] = m - 1
				return err
			}
			rec[m].row, rec[m].score, rec[m].ok = st.take(d)
		}
		done[i] = len(rec) - 1
		return nil
	})
	taken := 0
	for _, n := range done {
		taken += n
	}
	if err := errors.Join(errs...); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, 0, interrupted(taken, ctxErr)
		}
		return nil, 0, fmt.Errorf("drilldown: %w", err)
	}
	return steps, taken, nil
}

// interrupted is the error of a greedy run that ctx stopped after the given
// number of takes.
func interrupted(takes int, err error) error {
	return fmt.Errorf("drilldown: interrupted after %d greedy rounds: %w", takes, err)
}

// drillableRows returns the number of records in testable strata for the
// constraint — the largest k TopK accepts — after running TopK's own
// validation. MultiTopK uses it to clamp per-constraint rankings.
func drillableRows(ctx context.Context, d *relation.Relation, c sc.SC, opts Options) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if !c.IsSingle() {
		return 0, fmt.Errorf("drilldown: set-valued constraint %s; decompose first", c)
	}
	for _, col := range c.Columns() {
		if !d.HasColumn(col) {
			return 0, fmt.Errorf("drilldown: dataset lacks column %q required by %s", col, c)
		}
	}
	if opts.Cache != nil && opts.Cache.Relation() != d {
		return 0, fmt.Errorf("drilldown: kernel cache is bound to a different relation")
	}
	strataRows, _, err := strataFor(ctx, d, c, opts.withDefaults())
	if err != nil {
		return 0, err
	}
	total := 0
	for _, rows := range strataRows {
		total += len(rows)
	}
	return total, nil
}

// strataFor partitions the row indices by the conditioning set; a marginal
// constraint yields a single stratum with every row. Strata smaller than
// MinStratumSize are excluded (their records are never selected). Alongside
// each stratum it returns the canonical rowsKey identifying that row subset
// in the kernel cache (the version-scoped all-rows key for the whole
// relation).
func strataFor(ctx context.Context, d *relation.Relation, c sc.SC, opts Options) ([][]int, []string, error) {
	if c.IsMarginal() {
		rows := make([]int, d.NumRows())
		for i := range rows {
			rows[i] = i
		}
		return [][]int{rows}, []string{opts.Cache.AllRowsKey()}, nil
	}
	part, err := opts.Cache.PartitionContext(ctx, d, c.Z)
	if err != nil {
		return nil, nil, fmt.Errorf("drilldown: %w", err)
	}
	var out [][]int
	var keys []string
	for _, k := range part.Keys {
		if len(part.Groups[k]) >= opts.MinStratumSize {
			out = append(out, part.Groups[k])
			keys = append(keys, part.StratumRowsKey(k))
		}
	}
	return out, keys, nil
}
