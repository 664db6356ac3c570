package relation

import (
	"math/rand"
	"strings"
	"testing"
)

func opsRelation() *Relation {
	return MustNew(
		NewCategoricalColumn("City", []string{"B", "A", "B", "C", "A"}),
		NewNumericColumn("Pop", []float64{5, 3, 9, 1, 3}),
	)
}

func TestSample(t *testing.T) {
	r := opsRelation()
	rng := rand.New(rand.NewSource(1))
	s, err := r.Sample(3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 3 {
		t.Fatalf("rows = %d", s.NumRows())
	}
	if _, err := r.Sample(9, rng); err == nil {
		t.Error("want error for oversized sample")
	}
	if _, err := r.Sample(-1, rng); err == nil {
		t.Error("want error for negative sample")
	}
	zero, err := r.Sample(0, rng)
	if err != nil || zero.NumRows() != 0 {
		t.Error("zero sample should be empty")
	}
}

func TestRelationString(t *testing.T) {
	r := opsRelation()
	s := r.String()
	if !strings.Contains(s, "Relation(5 rows)") || !strings.Contains(s, "City") {
		t.Errorf("String = %q", s)
	}
	big, err := r.AppendRows(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(big.String(), "more rows") {
		t.Error("long relations should be truncated in String")
	}
}
