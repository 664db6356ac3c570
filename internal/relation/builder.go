package relation

import (
	"fmt"
	"math"
)

// Builder assembles a Relation column-major from appended chunks, without
// requiring any column's full data to be resident at once. It is the
// materialization path of the durable store (internal/store): each on-disk
// segment is decoded and fed to the builder one segment at a time, so only
// one segment beyond the accumulating relation is ever held in memory.
//
// Chunks are appended per column; Build validates that every column ended
// at the same length. Categorical chunks arrive dictionary-coded as
// (dict, codes) pairs — the builder re-interns through the column's
// dictionary, so first-occurrence code order over the concatenated rows is
// identical to building the column from the full string slice. That invariant is what makes store-materialized relations
// bit-identical to CSV-loaded ones.
type Builder struct {
	cols   []*Column
	byName map[string]int
}

// NewBuilder creates a builder for the given schema. Names must be
// distinct; kinds must parallel names.
func NewBuilder(names []string, kinds []Kind) (*Builder, error) {
	if len(names) != len(kinds) {
		return nil, fmt.Errorf("relation: %d column names but %d kinds", len(names), len(kinds))
	}
	b := &Builder{byName: make(map[string]int, len(names))}
	for i, name := range names {
		if _, dup := b.byName[name]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", name)
		}
		c := &Column{Name: name, Kind: kinds[i]}
		if kinds[i] == Categorical {
			c.index = make(map[string]int)
		}
		b.byName[name] = len(b.cols)
		b.cols = append(b.cols, c)
	}
	return b, nil
}

func (b *Builder) column(name string, kind Kind) (*Column, error) {
	i, ok := b.byName[name]
	if !ok {
		return nil, fmt.Errorf("relation: builder has no column %q", name)
	}
	c := b.cols[i]
	if c.Kind != kind {
		return nil, fmt.Errorf("relation: column %q is %s, not %s", name, c.Kind, kind)
	}
	return c, nil
}

// AppendFloats appends a chunk of values to a numeric column.
func (b *Builder) AppendFloats(name string, vals []float64) error {
	c, err := b.column(name, Numeric)
	if err != nil {
		return err
	}
	c.values = append(c.values, vals...)
	return nil
}

// AppendCoded appends a dictionary-coded chunk to a categorical column:
// codes index into dict, and the chunk's dictionary is translated into the
// column's own (growing it as needed). This is the zero-copy-ish path for
// store segments, which persist categorical columns dictionary-coded.
func (b *Builder) AppendCoded(name string, dict []string, codes []uint32) error {
	c, err := b.column(name, Categorical)
	if err != nil {
		return err
	}
	// Translate the chunk dictionary once, then map codes through it.
	trans := make([]int, len(dict))
	for i, v := range dict {
		trans[i] = c.intern(v)
	}
	for _, code := range codes {
		if int(code) >= len(trans) {
			return fmt.Errorf("relation: column %q chunk code %d out of dictionary range %d", name, code, len(trans))
		}
		c.codes = append(c.codes, trans[code])
	}
	return nil
}

// Len returns the number of rows appended to the named column so far, or
// -1 when the column does not exist.
func (b *Builder) Len(name string) int {
	i, ok := b.byName[name]
	if !ok {
		return -1
	}
	return b.cols[i].Len()
}

// Build validates that every column reached the same length and returns
// the assembled relation. The builder must not be reused afterwards.
func (b *Builder) Build() (*Relation, error) {
	return New(b.cols...)
}

// AppendRows returns a new relation holding this relation's rows followed
// by other's rows. Schemas must match exactly (same column names, order
// and kinds). The receiver is not mutated — in-flight readers holding it
// stay consistent — and existing rows keep their indices and categorical
// codes, which is the append-only invariant the versioned kernel cache
// relies on for incremental invalidation.
func (r *Relation) AppendRows(other *Relation) (*Relation, error) {
	if err := r.SameSchema(other); err != nil {
		return nil, err
	}
	out := &Relation{byName: make(map[string]int, len(r.byName))}
	for i, c := range r.cols {
		grown := c.clone()
		oc := other.cols[i]
		if c.Kind == Categorical {
			for j := 0; j < oc.Len(); j++ {
				grown.codes = append(grown.codes, grown.intern(oc.dict[oc.codes[j]]))
			}
		} else {
			grown.values = append(grown.values, oc.values...)
		}
		if err := out.addColumn(grown); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SameSchema reports (as an error) the first schema difference between the
// two relations: column count, name, order, or kind.
func (r *Relation) SameSchema(other *Relation) error {
	if len(r.cols) != len(other.cols) {
		return fmt.Errorf("relation: schema mismatch: %d columns vs %d", len(r.cols), len(other.cols))
	}
	for i, c := range r.cols {
		oc := other.cols[i]
		if c.Name != oc.Name {
			return fmt.Errorf("relation: schema mismatch at column %d: %q vs %q", i, c.Name, oc.Name)
		}
		if c.Kind != oc.Kind {
			return fmt.Errorf("relation: column %q kind mismatch: %s vs %s", c.Name, c.Kind, oc.Kind)
		}
	}
	return nil
}

// Equal reports whether two relations hold identical schemas and cell
// values. Categorical cells compare by string value; numeric cells compare
// by exact float64 bit pattern (so NaNs compare equal to themselves and
// -0 differs from +0 — "bit-identical", not "approximately equal").
func (r *Relation) Equal(other *Relation) bool {
	if r.SameSchema(other) != nil || r.NumRows() != other.NumRows() {
		return false
	}
	for i, c := range r.cols {
		oc := other.cols[i]
		if c.Kind == Categorical {
			for j := range c.codes {
				if c.dict[c.codes[j]] != oc.dict[oc.codes[j]] {
					return false
				}
			}
		} else {
			for j := range c.values {
				if math.Float64bits(c.values[j]) != math.Float64bits(oc.values[j]) {
					return false
				}
			}
		}
	}
	return true
}
