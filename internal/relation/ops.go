package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Sample returns n rows drawn without replacement, in original row order.
func (r *Relation) Sample(n int, rng *rand.Rand) (*Relation, error) {
	if n < 0 || n > r.NumRows() {
		return nil, fmt.Errorf("relation: sample size %d out of range (0..%d)", n, r.NumRows())
	}
	rows := rng.Perm(r.NumRows())[:n]
	sort.Ints(rows)
	return r.Subset(rows), nil
}

// String renders a short preview of the relation (schema plus the first
// few rows) for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Relation(%d rows)\n", r.NumRows())
	b.WriteString(strings.Join(r.Columns(), "\t"))
	b.WriteByte('\n')
	limit := r.NumRows()
	if limit > 5 {
		limit = 5
	}
	for i := 0; i < limit; i++ {
		b.WriteString(strings.Join(r.Row(i), "\t"))
		b.WriteByte('\n')
	}
	if r.NumRows() > limit {
		fmt.Fprintf(&b, "... %d more rows\n", r.NumRows()-limit)
	}
	return b.String()
}
