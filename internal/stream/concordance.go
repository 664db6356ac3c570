package stream

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"scoded/internal/segtree"
)

// concordanceIndex holds the numeric monitor's window and answers its
// per-update question — the signed concordance sum
//
//	Σ_residents sign(qx − x_j) · sign(qy − y_j)
//
// in amortized polylogarithmic time instead of the seed-era O(window) scan.
// It is the Fenwick-tree concordance-delta structure of DESIGN.md §14:
//
//   - xs and ys keep the points in arrival order. Eviction is FIFO, so the
//     residents are positions [head, len(xs)); every position below head
//     has been evicted;
//   - positions [0, snapN) form a static snapshot, kept sorted by x
//     (byX) and by y (byY), rank-compressed in both coordinates and
//     indexed by a segtree.FenwickMerge. It answers dominance prefix
//     counts in O(log² n); four such counts plus 1D rank prefixes recover
//     the signed sum over the snapshot exactly (integer arithmetic, no
//     floating drift);
//   - the mutations since the snapshot are the evicted snapshot points
//     [0, min(head, snapN)) and the live inserts [max(head, snapN),
//     len(xs)). Queries scan them directly, so the current window's sum
//     is snapshot − evicted + inserted;
//   - when the mutations outgrow ~√(n log n), rebuild drops the evicted
//     prefix, sorts only the inserted points and merges them into the
//     kept orders, amortizing the O(n log n) rebuild to O(√(n log n)) per
//     update.
//
// All counts are integers, so the pair sum maintained through this index
// is exact — the differential fuzz suite pins it bit-identical to a batch
// recompute. Positions are int32, so the index holds under 2³¹ points.
type concordanceIndex struct {
	xs, ys []float64 // points in arrival order
	head   int       // positions below head have been evicted
	snapN  int       // positions below snapN form the snapshot

	// Snapshot state.
	byX, byY     []int32   // snapshot positions in ascending x / y order
	xr, yr       []int32   // dense x / y rank of each snapshot position
	snapX, snapY []float64 // ascending distinct values (rank universes)
	xcnt, ycnt   []int64   // points with xrank <= r / yrank <= r
	fm           segtree.FenwickMerge

	limit int     // pending() threshold that triggers a rebuild
	fresh []int32 // rebuild scratch: the inserted positions being merged
}

// len returns the number of residents.
func (c *concordanceIndex) len() int { return len(c.xs) - c.head }

// oldest returns the resident that arrived first, the next to be evicted.
func (c *concordanceIndex) oldest() (x, y float64) { return c.xs[c.head], c.ys[c.head] }

// pending counts the mutations since the last rebuild: evictions plus
// inserts. It bounds both the scans signedSum makes and the evicted
// prefix the arrays still carry, so a small window that turns over
// completely between rebuilds still triggers one.
func (c *concordanceIndex) pending() int {
	return c.head + len(c.xs) - c.snapN
}

// signedSum returns Σ sign(qx−x)·sign(qy−y) over the current residents.
// A resident equal to (qx, qy) contributes 0, so callers may query a point
// that is itself resident (eviction) or not yet resident (insertion) with
// the same semantics.
func (c *concordanceIndex) signedSum(qx, qy float64) int64 {
	var s int64
	if c.snapN > 0 {
		ux, uy := len(c.snapX), len(c.snapY)
		loX := sort.SearchFloat64s(c.snapX, qx) // distinct x values < qx
		hiX := loX
		//scoded:lint-ignore floatcmp rank-universe membership is exact value equality
		if loX < ux && c.snapX[loX] == qx {
			hiX++
		}
		loY := sort.SearchFloat64s(c.snapY, qy)
		hiY := loY
		//scoded:lint-ignore floatcmp rank-universe membership is exact value equality
		if loY < uy && c.snapY[loY] == qy {
			hiY++
		}
		// Quadrant counts from four 2D prefix queries plus 1D prefixes:
		//   a = (<,<)   d = (>,>)   b = (<,>)   cc = (>,<)
		a := c.fm.CountLE(loX-1, loY-1)
		le := c.fm.CountLE(hiX-1, hiY-1)
		ltLe := c.fm.CountLE(loX-1, hiY-1)
		leLt := c.fm.CountLE(hiX-1, loY-1)
		xLess, xLE := prefixCount(c.xcnt, loX-1), prefixCount(c.xcnt, hiX-1)
		yLess, yLE := prefixCount(c.ycnt, loY-1), prefixCount(c.ycnt, hiY-1)
		b := xLess - ltLe
		cc := yLess - leLt
		d := int64(c.snapN) - xLE - yLE + le
		s += (a + d) - (b + cc)
	}
	dx := c.xs[:min(c.head, c.snapN)]
	dy := c.ys[:len(dx)]
	for i, x := range dx {
		s -= signProduct(qx, qy, x, dy[i])
	}
	ix := c.xs[max(c.head, c.snapN):]
	iy := c.ys[len(c.ys)-len(ix):]
	for i, x := range ix {
		s += signProduct(qx, qy, x, iy[i])
	}
	return s
}

// add records a newly inserted resident.
func (c *concordanceIndex) add(x, y float64) {
	c.xs = append(c.xs, x)
	c.ys = append(c.ys, y)
	c.maybeRebuild()
}

// drop records the eviction of the oldest resident.
func (c *concordanceIndex) drop() {
	c.head++
	c.maybeRebuild()
}

func (c *concordanceIndex) maybeRebuild() {
	if c.pending() > c.limit {
		c.rebuild()
	}
}

// rebuild makes the residents the snapshot and clears the mutations. The
// threshold for the next rebuild scales as √(n log n), which balances the
// scan cost against the amortized rebuild cost.
func (c *concordanceIndex) rebuild() {
	h := c.head
	kept := max(c.snapN-h, 0) // snapshot points still resident
	c.byX = dropEvicted(c.byX, h)
	c.byY = dropEvicted(c.byY, h)
	n := copy(c.xs, c.xs[h:])
	copy(c.ys, c.ys[h:])
	c.xs, c.ys = c.xs[:n], c.ys[:n]
	c.head, c.snapN = 0, n

	c.byX = c.mergeFresh(c.byX, kept, c.xs)
	c.byY = c.mergeFresh(c.byY, kept, c.ys)
	c.xr = slices.Grow(c.xr[:0], n)[:n]
	c.yr = slices.Grow(c.yr[:0], n)[:n]
	c.snapX, c.xcnt = denseRanks(c.byX, c.xs, c.xr, c.snapX, c.xcnt)
	c.snapY, c.ycnt = denseRanks(c.byY, c.ys, c.yr, c.snapY, c.ycnt)
	c.fm.Rebuild(c.byY, c.xr, c.yr, len(c.snapX))

	bits := 1
	for v := n; v > 1; v >>= 1 {
		bits++
	}
	c.limit = int(math.Sqrt(float64(n * bits)))
	if c.limit < 64 {
		c.limit = 64
	}
}

// dropEvicted removes the positions below h from a sorted order and
// renumbers the rest to match the value arrays shifted down by h.
func dropEvicted(order []int32, h int) []int32 {
	out := order[:0]
	for _, p := range order {
		if q := p - int32(h); q >= 0 {
			out = append(out, q)
		}
	}
	return out
}

// mergeFresh sorts the positions [kept, len(v)) by v and merges them into
// order, which holds positions [0, kept) sorted by v, in place from the
// back.
func (c *concordanceIndex) mergeFresh(order []int32, kept int, v []float64) []int32 {
	c.fresh = c.fresh[:0]
	for p := kept; p < len(v); p++ {
		c.fresh = append(c.fresh, int32(p))
	}
	slices.SortFunc(c.fresh, func(a, b int32) int { return cmp.Compare(v[a], v[b]) })
	i := len(order) - 1
	order = slices.Grow(order, len(c.fresh))[:len(v)]
	for j, k := len(c.fresh)-1, len(order)-1; j >= 0; k-- {
		if i >= 0 && v[order[i]] > v[c.fresh[j]] {
			order[k] = order[i]
			i--
		} else {
			order[k] = c.fresh[j]
			j--
		}
	}
	return order
}

// denseRanks walks order, the positions sorted by v, and writes each
// position's dense rank into ranks. It returns the ascending distinct
// values and, per rank r, the number of points with rank <= r, reusing
// the given buffers.
func denseRanks(order []int32, v []float64, ranks []int32, uniq []float64, cnt []int64) ([]float64, []int64) {
	uniq, cnt = uniq[:0], cnt[:0]
	for i, p := range order {
		//scoded:lint-ignore floatcmp equal values share a dense rank, as stats.DenseRanks ranks them
		if len(uniq) == 0 || v[p] != uniq[len(uniq)-1] {
			uniq = append(uniq, v[p])
			cnt = append(cnt, 0)
		}
		ranks[p] = int32(len(uniq) - 1)
		cnt[len(cnt)-1] = int64(i + 1)
	}
	return uniq, cnt
}

// prefixCount returns cnt[r], clipping r to the array bounds (r < 0 → 0).
func prefixCount(cnt []int64, r int) int64 {
	if r < 0 || len(cnt) == 0 {
		return 0
	}
	if r >= len(cnt) {
		r = len(cnt) - 1
	}
	return cnt[r]
}

// signProduct is sign(qx−px)·sign(qy−py) computed by direct comparison —
// no subtraction, so it is well defined for any ordered float64 inputs.
// The separate ifs compile to conditional moves, which suit the delta
// scans' unpredictable comparisons better than branches.
func signProduct(qx, qy, px, py float64) int64 {
	var sx, sy int64
	if qx > px {
		sx = 1
	}
	if qx < px {
		sx = -1
	}
	if qy > py {
		sy = 1
	}
	if qy < py {
		sy = -1
	}
	return sx * sy
}
