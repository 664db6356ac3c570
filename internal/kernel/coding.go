//scoded:hotpath
package kernel

import (
	"sort"
	"strconv"

	"scoded/internal/relation"
)

// CodesFor returns dense category codes for a column over the given row
// subset, together with the number of distinct codes. Categorical columns
// are re-mapped densely in first-occurrence order over the subset; numeric
// columns are discretized into quantile bins. rows nil means all rows.
//
// This is the single coding function behind both the cached and uncached
// detection paths: detect and drilldown used to carry private copies of it,
// which the kernel cache unified so memoized codes are exactly the codes
// the uncached path computes. The remap runs over a flat slice indexed by
// dictionary code rather than a map — the map's hashing was the single
// largest CPU item on the cold CheckAll profile.
func CodesFor(d *relation.Relation, name string, bins int, rows []int) ([]int32, int) {
	c := d.MustColumn(name)
	n := len(rows)
	if rows == nil {
		n = d.NumRows()
	}
	if c.Kind == relation.Categorical {
		remap := make([]int32, c.Cardinality())
		for i := range remap {
			remap[i] = -1
		}
		out := make([]int32, n)
		next := int32(0)
		for i := 0; i < n; i++ {
			r := i
			if rows != nil {
				r = rows[i]
			}
			code := c.Code(r)
			dense := remap[code]
			if dense < 0 {
				dense = next
				next++
				remap[code] = dense
			}
			out[i] = dense
		}
		return out, int(next)
	}
	return discretizeQuantile32(FloatsFor(d, name, rows), bins)
}

// FloatsFor returns the values of a numeric column over the given row
// subset (nil means all rows).
func FloatsFor(d *relation.Relation, name string, rows []int) []float64 {
	c := d.MustColumn(name)
	if rows == nil {
		return c.Floats()
	}
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = c.Value(r)
	}
	return out
}

// DiscretizeQuantile bins values into at most `bins` quantile bins, returning
// dense bin codes and the number of bins actually used. Ties at bin
// boundaries collapse bins rather than splitting equal values. This is the
// historical []int API kept for the discovery, repair and experiment code;
// the detection hot path uses the []int32 form directly.
func DiscretizeQuantile(vals []float64, bins int) ([]int, int) {
	codes, k := discretizeQuantile32(vals, bins)
	if codes == nil {
		return nil, k
	}
	out := make([]int, len(codes))
	for i, c := range codes {
		out[i] = int(c)
	}
	return out, k
}

// discretizeQuantile32 is DiscretizeQuantile producing the flat []int32
// coding the kernels consume. The bin codes are bounded by `bins`, so the
// density remap runs over a small flat slice instead of a map.
func discretizeQuantile32(vals []float64, bins int) ([]int32, int) {
	n := len(vals)
	if n == 0 {
		return nil, 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	// Bin edges at the interior quantiles; deduplicate equal edges.
	var edges []float64
	for b := 1; b < bins; b++ {
		e := sorted[b*n/bins]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	codes := make([]int32, n)
	for i, v := range vals {
		c := sort.SearchFloat64s(edges, v)
		// SearchFloat64s returns the first edge >= v; values equal to an
		// edge belong to the next bin so equal values never split.
		//scoded:lint-ignore floatcmp bin edges are copied data values, so edge membership is exact
		if c < len(edges) && v == edges[c] {
			c++
		}
		codes[i] = int32(c)
	}
	// Re-map to dense codes: some bins may be empty (e.g. a constant
	// column where every value lands past the deduplicated edge).
	remap := make([]int32, len(edges)+1)
	for i := range remap {
		remap[i] = -1
	}
	next := int32(0)
	for i, c := range codes {
		dense := remap[c]
		if dense < 0 {
			dense = next
			next++
			remap[c] = dense
		}
		codes[i] = dense
	}
	return codes, int(next)
}

// Partition is a group-by partition of a relation on a conditioning column
// list, with the group keys pre-sorted for deterministic iteration. It is
// built once per distinct (ordered) column list and shared read-only.
type Partition struct {
	// Cols is the conditioning column list, in constraint order. The cache
	// key is order-sensitive on purpose: group keys concatenate values in
	// column order, and stratum keys are surfaced verbatim in results.
	Cols []string
	// CacheKey canonically identifies this partition's conditioning set
	// inside a Cache; it is version-free (the cache appends the version
	// when keying the partition entry itself).
	CacheKey string
	// Groups maps each group key (relation.RowKey form) to its member rows
	// in row order.
	Groups map[string][]int
	// Keys holds the group keys in sorted order.
	Keys []string
	// Version is the cache version this partition was computed at, and
	// GroupVersions holds, per group, the version at which that group's row
	// list last changed — inherited from the previous partition on the
	// same conditioning set when the group is untouched. Both are zero on
	// the uncached path (PartitionOf alone).
	Version       uint64
	GroupVersions map[string]uint64
}

// PartitionOf computes the partition directly (the uncached path). The
// groups come from the flat mixed-radix encoder when it applies — identical
// map, keys and row order to GroupBy without the per-row key strings — and
// from the string-keyed reference otherwise (GroupByFlat's documented
// fallback cases; equivalence is pinned by the property tests in
// internal/relation).
func PartitionOf(d *relation.Relation, z []string) *Partition {
	groups, ok := d.GroupByFlat(z)
	if !ok {
		groups = d.GroupBy(z)
	}
	return &Partition{
		Cols:     append([]string(nil), z...),
		CacheKey: partitionCacheKey(z),
		Groups:   groups,
		Keys:     relation.SortedGroupKeys(groups),
	}
}

// StratumRowsKey returns the canonical rows-subset identifier of one group
// of the partition, for use as the rowsKey of Codes / Floats / Table /
// Kendall calls scoped to that stratum. The key embeds the group's
// inherited version, so after an append only the strata whose rows grew
// address new cache entries; everything else stays warm.
func (p *Partition) StratumRowsKey(groupKey string) string {
	//scoded:lint-ignore allochot one key per stratum, not per row
	return p.CacheKey + keySep + "=" + groupKey + "@" + strconv.FormatUint(p.GroupVersions[groupKey], 16)
}
