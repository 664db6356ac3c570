package relation

import (
	"math"
	"strings"
	"testing"
)

func buildRel(t *testing.T) *Relation {
	t.Helper()
	r, err := New(
		NewCategoricalColumn("Model", []string{"a", "b", "a", "c"}),
		NewNumericColumn("Price", []float64{1, 2, 3, 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuilderChunkedEqualsWhole(t *testing.T) {
	names := []string{"Model", "Price"}
	kinds := []Kind{Categorical, Numeric}
	whole, err := New(
		NewCategoricalColumn("Model", []string{"x", "y", "x", "z", "y", "w"}),
		NewNumericColumn("Price", []float64{1, 2, 3, 4, 5, 6}),
	)
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewBuilder(names, kinds)
	if err != nil {
		t.Fatal(err)
	}
	// Two chunks, the second arriving dictionary-coded with a chunk-local
	// dictionary whose code order differs from the global one.
	if err := b.AppendCoded("Model", []string{"x", "y"}, []uint32{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendCoded("Model", []string{"z", "w", "y"}, []uint32{0, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendFloats("Price", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendFloats("Price", []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(whole) {
		t.Fatalf("chunked build diverged from whole build:\ngot  %v\nwant %v", got.Columns(), whole.Columns())
	}
	// Dictionary code order must match first-occurrence order too, so the
	// dense codings the kernel computes agree bit for bit.
	gm, wm := got.MustColumn("Model"), whole.MustColumn("Model")
	for i := 0; i < got.NumRows(); i++ {
		if gm.Code(i) != wm.Code(i) {
			t.Fatalf("row %d: code %d != %d", i, gm.Code(i), wm.Code(i))
		}
	}
}

func TestBuilderLengthMismatch(t *testing.T) {
	b, err := NewBuilder([]string{"A", "B"}, []Kind{Categorical, Numeric})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AppendCoded("A", []string{"x", "y"}, []uint32{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendFloats("B", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted unequal column lengths")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder([]string{"A", "A"}, []Kind{Categorical, Categorical}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewBuilder([]string{"A"}, nil); err == nil {
		t.Fatal("mismatched kinds accepted")
	}
	b, err := NewBuilder([]string{"A", "B"}, []Kind{Categorical, Numeric})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AppendFloats("A", []float64{1}); err == nil {
		t.Fatal("numeric append on categorical column accepted")
	}
	if err := b.AppendCoded("missing", []string{"x"}, []uint32{0}); err == nil {
		t.Fatal("append on unknown column accepted")
	}
	if err := b.AppendCoded("A", []string{"x"}, []uint32{3}); err == nil {
		t.Fatal("out-of-range chunk code accepted")
	}
	if b.Len("A") != 0 || b.Len("missing") != -1 {
		t.Fatalf("Len: got %d / %d", b.Len("A"), b.Len("missing"))
	}
}

func TestAppendRows(t *testing.T) {
	base := buildRel(t)
	batch, err := New(
		NewCategoricalColumn("Model", []string{"c", "d"}),
		NewNumericColumn("Price", []float64{5, 6}),
	)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := base.AppendRows(batch)
	if err != nil {
		t.Fatal(err)
	}
	if base.NumRows() != 4 {
		t.Fatalf("receiver mutated: %d rows", base.NumRows())
	}
	if grown.NumRows() != 6 {
		t.Fatalf("grown has %d rows, want 6", grown.NumRows())
	}
	// Existing rows keep their codes (append-only invariant).
	gm := grown.MustColumn("Model")
	bm := base.MustColumn("Model")
	for i := 0; i < base.NumRows(); i++ {
		if gm.Code(i) != bm.Code(i) {
			t.Fatalf("row %d code changed: %d != %d", i, gm.Code(i), bm.Code(i))
		}
	}
	if got := gm.StringAt(5); got != "d" {
		t.Fatalf("appended row value %q", got)
	}
	if got := grown.MustColumn("Price").Value(4); got != 5 {
		t.Fatalf("appended price %v", got)
	}

	// Schema mismatches are rejected.
	wrong, err := New(NewCategoricalColumn("Model", []string{"c"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.AppendRows(wrong); err == nil {
		t.Fatal("column-count mismatch accepted")
	}
	wrongKind, err := New(
		NewNumericColumn("Model", []float64{1}),
		NewNumericColumn("Price", []float64{1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.AppendRows(wrongKind); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestRelationEqual(t *testing.T) {
	a := buildRel(t)
	if !a.Equal(buildRel(t)) {
		t.Fatal("identical relations compare unequal")
	}
	b := buildRel(t)
	b.MustColumn("Price").SetValue(2, 3.0000001)
	if a.Equal(b) {
		t.Fatal("differing float compares equal")
	}
	c := buildRel(t)
	c.MustColumn("Model").SetString(0, "zz")
	if a.Equal(c) {
		t.Fatal("differing category compares equal")
	}
	// NaN compares equal to itself bitwise.
	d1, d2 := buildRel(t), buildRel(t)
	d1.MustColumn("Price").SetValue(0, math.NaN())
	d2.MustColumn("Price").SetValue(0, math.NaN())
	if !d1.Equal(d2) {
		t.Fatal("same-bits NaN compares unequal")
	}
}

func TestSameSchemaMessages(t *testing.T) {
	a := buildRel(t)
	b, err := New(
		NewCategoricalColumn("Other", []string{"a"}),
		NewNumericColumn("Price", []float64{1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SameSchema(b); err == nil || !strings.Contains(err.Error(), "Other") {
		t.Fatalf("want name mismatch error, got %v", err)
	}
}
