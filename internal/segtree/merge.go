package segtree

// FenwickMerge is a Fenwick tree over compressed x-ranks whose node
// payloads are the y-ranks of the covered points, each list kept in sorted
// order — the static half of the streaming monitors' concordance index
// (DESIGN.md §14). It answers 2D dominance-style prefix counts
//
//	|{ p : xrank(p) <= xr  AND  yrank(p) <= yr }|
//
// in O(log ux · log n) with two flat backing arrays and no per-query
// allocation. The structure is immutable after Rebuild; dynamic callers
// layer small insert/evict delta buffers on top and rebuild periodically,
// which keeps amortized update cost polylogarithmic without needing a
// dynamic 2D tree.
type FenwickMerge struct {
	ux     int
	starts []int32 // node i's payload is ys[starts[i]:starts[i+1]], i in [1, ux]
	ys     []int32 // concatenated sorted y-rank lists
	fill   []int32 // scratch write cursors, reused across rebuilds
}

// Rebuild points the structure at the points given by parallel rank
// slices: point p has x-rank xr[p] in [0, ux) and y-rank yr[p], dense
// compressed ranks in CompressRanksInto order. byY lists every point in
// ascending y-rank (ties in any order); the caller keeps that order, so
// Rebuild sorts nothing. The backing arrays are reused when they are
// large enough, and the zero value is ready for Rebuild. Cost is
// O(n log ux + ux).
func (f *FenwickMerge) Rebuild(byY, xr, yr []int32, ux int) {
	if ux < 1 {
		ux = 1
	}
	f.ux = ux
	// Pass 1: node i covers the x-ranks (i − lowbit(i), i], so its size is
	// a difference of x-rank prefix counts, taken in fill.
	f.fill = growI32(f.fill, ux+1)
	clear(f.fill)
	for _, x := range xr {
		f.fill[x+1]++
	}
	for i := 1; i <= ux; i++ {
		f.fill[i] += f.fill[i-1]
	}
	f.starts = growI32(f.starts, ux+2)
	f.starts[0], f.starts[1] = 0, 0
	for i := 1; i <= ux; i++ {
		f.starts[i+1] = f.starts[i] + f.fill[i] - f.fill[i-(i&(-i))]
	}
	f.ys = growI32(f.ys, int(f.starts[ux+1]))

	// Pass 2: visit points in ascending y-rank, appending each to its path
	// nodes; every node list comes out sorted without any per-node sort.
	copy(f.fill, f.starts[:ux+1])
	for _, p := range byY {
		y := yr[p]
		for i := int(xr[p]) + 1; i <= ux; i += i & (-i) {
			f.ys[f.fill[i]] = y
			f.fill[i]++
		}
	}
}

// CountLE returns the number of points with xrank <= xr and yrank <= yr.
// Negative bounds return 0; bounds beyond the universe are clipped.
func (f *FenwickMerge) CountLE(xr, yr int) int64 {
	if xr < 0 || yr < 0 {
		return 0
	}
	if xr >= f.ux {
		xr = f.ux - 1
	}
	y32 := int32(yr)
	var count int64
	for i := xr + 1; i > 0; i -= i & (-i) {
		node := f.ys[f.starts[i]:f.starts[i+1]]
		// Upper bound: first index with node[idx] > yr.
		lo, hi := 0, len(node)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if node[mid] <= y32 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		count += int64(lo)
	}
	return count
}

// growI32 returns a slice of exactly n elements, reusing s's backing array
// when possible. Contents are unspecified.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
