package relation

import (
	"fmt"
	"strings"
)

// joinKey renders a value tuple as one \x1f-separated string. Keys are
// built once per row on the detection hot path, so the builder is sized
// up front and fills in a single allocation.
func joinKey(parts []string) string {
	if len(parts) == 0 {
		return ""
	}
	if len(parts) == 1 {
		return parts[0]
	}
	size := len(parts) - 1
	for _, p := range parts {
		size += len(p)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(parts[0])
	for _, p := range parts[1:] {
		b.WriteByte('\x1f')
		b.WriteString(p)
	}
	return b.String()
}

// EmpiricalDist is the empirical joint distribution P_D over a set of
// columns: each distinct value tuple with its frequency.
type EmpiricalDist struct {
	Names []string
	// Probs maps a RowKey over Names to its empirical frequency.
	Probs map[string]float64
	// N is the number of records the distribution was computed from.
	N int
}

// Empirical computes the empirical distribution over the named columns.
func (r *Relation) Empirical(names ...string) *EmpiricalDist {
	d := &EmpiricalDist{Names: append([]string(nil), names...), Probs: make(map[string]float64), N: r.NumRows()}
	if d.N == 0 {
		return d
	}
	inv := 1.0 / float64(d.N)
	for i := 0; i < d.N; i++ {
		d.Probs[r.RowKey(i, names)] += inv
	}
	return d
}

// Prob returns the probability of a value tuple (given in Names order).
func (d *EmpiricalDist) Prob(vals ...string) float64 {
	if len(vals) != len(d.Names) {
		panic(fmt.Sprintf("relation: Prob got %d values for %d columns", len(vals), len(d.Names)))
	}
	return d.Probs[joinKey(vals)]
}
