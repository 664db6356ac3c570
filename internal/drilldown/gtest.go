package drilldown

import (
	"context"
	"fmt"
	"math"

	"scoded/internal/relation"
	"scoded/internal/sc"
)

// GObjective selects how the categorical (G-statistic) drill-down ranks
// removal candidates.
type GObjective int

const (
	// CellContribution is the paper's Section 5.3 heuristic: each (X, Y)
	// cell contributes a term g = 2·O·ln(O/E) to the G statistic; the K
	// strategy removes records from the cell whose g is most extreme in
	// the violation direction (highest g for an ISC — the cell carrying
	// the most dependence; lowest g for a DSC — the cell diluting the
	// dependence most). Contributions are recomputed after every removal.
	CellContribution GObjective = iota
	// ExactDelta is the exact greedy alternative: remove the record whose
	// removal changes the full G statistic most in the desired direction,
	// using the O(1) delta of the marginal-decomposed form. It optimizes
	// the statistic faster but ranks low-count cells by their effect on G
	// rather than by their dependence contribution. The two objectives are
	// compared in the ablation benchmarks.
	ExactDelta
)

// String names the objective.
func (o GObjective) String() string {
	switch o {
	case CellContribution:
		return "cell-contribution"
	case ExactDelta:
		return "exact-delta"
	default:
		return fmt.Sprintf("GObjective(%d)", int(o))
	}
}

// gStratum holds the drill-down state for one conditioning stratum of a
// categorical (G-statistic) constraint. Records with the same (X, Y) cell
// are interchangeable (Section 5.3), so state is kept per cell: counts, the
// two marginals, and a FIFO of the original rows in each cell.
type gStratum struct {
	kx, ky  int
	counts  []float64 // kx-by-ky cell counts, row-major
	rowMarg []float64
	colMarg []float64
	n       float64
	// Cell membership lives in one arena instead of a per-cell slice: the
	// remaining rows of cell c are rowArena[cellStart[c]+cellHead[c] :
	// cellStart[c+1]] (remove consumes from the front, preserving the FIFO
	// order the per-cell append version had). Building it is two counted
	// passes — no per-cell append growth, which was most of the G drill's
	// allocation bill.
	rowArena  []int
	cellStart []int32
	cellHead  []int32
	g         float64 // current G statistic of the stratum

	bestI, bestJ int // the delta greedy's current best cell
}

// cell returns the flat ordinal of cell (i, j).
func (st *gStratum) cell(i, j int) int { return i*st.ky + j }

// gStrata builds the group-based state of every stratum of a G drill.
func gStrata(ctx context.Context, d *relation.Relation, c sc.SC, strataRows [][]int, strataKeys []string, opts Options) ([]greedyStratum, error) {
	strata := make([]greedyStratum, 0, len(strataRows))
	for si, rows := range strataRows {
		st, err := newGStratum(ctx, d, c, rows, strataKeys[si], opts)
		if err != nil {
			return nil, err
		}
		strata = append(strata, st)
	}
	return strata, nil
}

func newGStratum(ctx context.Context, d *relation.Relation, c sc.SC, rows []int, rowsKey string, opts Options) (*gStratum, error) {
	// Cached codes are shared read-only; the stratum builds its own mutable
	// counts and marginals from them.
	xc, kx, err := opts.Cache.CodesContext(ctx, d, c.X[0], opts.Bins, rowsKey, rows)
	if err != nil {
		return nil, fmt.Errorf("drilldown: %w", err)
	}
	yc, ky, err := opts.Cache.CodesContext(ctx, d, c.Y[0], opts.Bins, rowsKey, rows)
	if err != nil {
		return nil, fmt.Errorf("drilldown: %w", err)
	}
	st := &gStratum{
		kx:        kx,
		ky:        ky,
		counts:    make([]float64, kx*ky),
		rowMarg:   make([]float64, kx),
		colMarg:   make([]float64, ky),
		rowArena:  make([]int, len(rows)),
		cellStart: make([]int32, kx*ky+1),
		cellHead:  make([]int32, kx*ky),
	}
	for idx := range rows {
		i, j := int(xc[idx]), int(yc[idx])
		st.counts[st.cell(i, j)]++
		st.rowMarg[i]++
		st.colMarg[j]++
		st.n++
	}
	for c, o := range st.counts {
		st.cellStart[c+1] = st.cellStart[c] + int32(o)
	}
	cursor := append([]int32(nil), st.cellStart[:kx*ky]...)
	for idx, r := range rows {
		c := st.cell(int(xc[idx]), int(yc[idx]))
		st.rowArena[cursor[c]] = r
		cursor[c]++
	}
	st.g = st.computeG()
	return st, nil
}

// computeG evaluates G = 2[Σ O lnO − Σ R lnR − Σ C lnC + N lnN], the
// marginal-decomposed form that makes single-record deltas O(1).
func (st *gStratum) computeG() float64 {
	var s float64
	for _, o := range st.counts {
		s += xlnx(o)
	}
	for _, r := range st.rowMarg {
		s -= xlnx(r)
	}
	for _, c := range st.colMarg {
		s -= xlnx(c)
	}
	s += xlnx(st.n)
	g := 2 * s
	if g < 0 { // rounding residue on exactly independent tables
		g = 0
	}
	return g
}

// deltaG returns G(after removing one record from cell (i,j)) − G(now),
// in O(1): only the O, R, C and N terms involving the cell change.
func (st *gStratum) deltaG(i, j int) float64 {
	o, r, c, n := st.counts[st.cell(i, j)], st.rowMarg[i], st.colMarg[j], st.n
	return 2 * ((xlnx(o-1) - xlnx(o)) -
		(xlnx(r-1) - xlnx(r)) -
		(xlnx(c-1) - xlnx(c)) +
		(xlnx(n-1) - xlnx(n)))
}

// cellG returns the cell's contribution term g = 2·O·ln(O/E) to the G
// statistic, the paper's ranking signal. Cells with positive g carry
// dependence; cells with negative g dilute it.
func (st *gStratum) cellG(i, j int) float64 {
	o := st.counts[st.cell(i, j)]
	if o <= 0 {
		return 0
	}
	e := st.rowMarg[i] * st.colMarg[j] / st.n
	return 2 * o * math.Log(o/e)
}

// remove takes one record out of cell (i, j) and returns its original row.
func (st *gStratum) remove(i, j int) int {
	st.g += st.deltaG(i, j)
	if st.g < 0 {
		st.g = 0
	}
	c := st.cell(i, j)
	st.counts[c]--
	st.rowMarg[i]--
	st.colMarg[j]--
	st.n--
	row := st.rowArena[st.cellStart[c]+st.cellHead[c]]
	st.cellHead[c]++
	return row
}

func xlnx(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log(x)
}

// gScore evaluates a cell's removal score under the configured objective and
// greedy direction — the scoring kernel of the delta greedy and of the
// linear-rescan oracle the tests hold it to (it must be one function so
// both compute bit-identical floats).
func gScore(st *gStratum, i, j int, dependence, best bool, objective GObjective) float64 {
	var impr float64
	if objective == ExactDelta {
		impr = -st.deltaG(i, j) // G decrease from removal
	} else {
		impr = st.cellG(i, j) // dependence carried by the cell
	}
	if dependence {
		impr = -impr
	}
	if !best {
		return -impr
	}
	return impr
}

// scan finds the stratum's best cell: the highest score and, among equal
// scores, the first in (i, j) order, as the linear rescan's strict > does.
// A CellContribution score ±2·O·ln(O/E), E = R·C/N, can exceed 0 only on
// one side of O·N = R·C, so a first pass scores those cells alone: the
// products are exact below 2^26 and rounding is monotone, so any other cell
// scores at most 0 and cannot beat or tie a positive best. If nothing
// scores above 0, a second pass scores every cell.
func (st *gStratum) scan(d direction) (float64, bool) {
	skip := d.objective == CellContribution && st.n < 1<<26
	side := 1.0 // the sign of O·N - R·C that can score above 0
	if d.dependence == d.best {
		side = -1
	}
	for {
		st.bestI = -1
		var top float64
		for i := 0; i < st.kx; i++ {
			for j := 0; j < st.ky; j++ {
				o := st.counts[st.cell(i, j)]
				if o <= 0 || skip && side*(o*st.n-st.rowMarg[i]*st.colMarg[j]) <= 0 {
					continue
				}
				score := gScore(st, i, j, d.dependence, d.best, d.objective)
				if st.bestI == -1 || score > top {
					st.bestI, st.bestJ, top = i, j, score
				}
			}
		}
		if !skip || top > 0 {
			return top, st.bestI != -1
		}
		skip = false
	}
}

func (st *gStratum) size() int { return int(st.n) }

// take removes one record of the best cell and rescans: N and two marginals
// changed, so every live cell's score did.
func (st *gStratum) take(d direction) (int, float64, bool) {
	row := st.remove(st.bestI, st.bestJ)
	score, ok := st.scan(d)
	return row, score, ok
}

func (st *gStratum) stat() float64 { return st.g }

func (st *gStratum) appendLive(out []int) []int {
	for c := 0; c < st.kx*st.ky; c++ {
		out = append(out, st.rowArena[st.cellStart[c]+st.cellHead[c]:st.cellStart[c+1]]...)
	}
	return out
}
