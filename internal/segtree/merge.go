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
	order  []int32 // scratch point ordering by y-rank, reused across rebuilds
	ycnt   []int32 // scratch counting-sort histogram, reused across rebuilds
}

// Rebuild points the structure at n points given by parallel rank slices
// (point p has x-rank xr[p] in [0, ux) and y-rank yr[p] in [0, uy), dense
// compressed ranks in CompressRanksInto order), reusing the backing arrays
// when they are large enough. The zero value is ready for Rebuild. Cost is
// O(n log ux + uy).
func (f *FenwickMerge) Rebuild(xr, yr []int, ux, uy int) {
	if ux < 1 {
		ux = 1
	}
	if uy < 1 {
		uy = 1
	}
	n := len(xr)
	f.ux = ux
	f.starts = growI32(f.starts, ux+2)
	for i := range f.starts {
		f.starts[i] = 0
	}
	// Pass 1: per-node element counts (each point lands on its Fenwick
	// update path), accumulated into starts shifted by one for the prefix
	// scan below.
	for p := 0; p < n; p++ {
		for i := xr[p] + 1; i <= ux; i += i & (-i) {
			f.starts[i+1]++
		}
	}
	for i := 1; i < len(f.starts); i++ {
		f.starts[i] += f.starts[i-1]
	}
	total := int(f.starts[ux+1])
	f.ys = growI32(f.ys, total)

	// Pass 2: visit points in ascending y-rank (counting sort), appending
	// each to its path nodes; every node list comes out sorted without any
	// per-node sort.
	f.ycnt = growI32(f.ycnt, uy+1)
	for i := range f.ycnt {
		f.ycnt[i] = 0
	}
	for p := 0; p < n; p++ {
		f.ycnt[yr[p]+1]++
	}
	for i := 1; i <= uy; i++ {
		f.ycnt[i] += f.ycnt[i-1]
	}
	f.order = growI32(f.order, n)
	for p := 0; p < n; p++ {
		f.order[f.ycnt[yr[p]]] = int32(p)
		f.ycnt[yr[p]]++
	}
	f.fill = growI32(f.fill, ux+1)
	copy(f.fill, f.starts[:ux+1])
	for _, p32 := range f.order[:n] {
		p := int(p32)
		for i := xr[p] + 1; i <= ux; i += i & (-i) {
			f.ys[f.fill[i]] = int32(yr[p])
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

// CompressRanksUniqInto is CompressRanksInto returning the sorted distinct
// values as well: ranks[i] is v[i]'s dense rank and uniq the ascending
// distinct values, so rank r corresponds to value uniq[r]. Both output
// slices reuse the provided buffers when large enough. Callers that must
// rank *query* values against the same universe later (the streaming
// concordance index) keep uniq and binary-search it.
func CompressRanksUniqInto(v []float64, ranks []int, uniq []float64) ([]int, []float64) {
	ranks, distinct, scratch := CompressRanksInto(v, ranks, uniq)
	// CompressRanksInto guarantees scratch[:distinct] holds the ascending
	// distinct values (it dedups the sorted scratch in place).
	return ranks, scratch[:distinct]
}
