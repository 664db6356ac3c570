package relation

import (
	"strings"
	"testing"
)

func carRelation() *Relation {
	// The original car database of Figure 2(a).
	return MustNew(
		NewCategoricalColumn("Model", []string{
			"BMW X1", "BMW X1", "BMW X1", "BMW X1",
			"Toyota Prius", "Toyota Prius", "Toyota Prius", "Toyota Prius",
		}),
		NewCategoricalColumn("Color", []string{
			"White", "Black", "White", "Black",
			"White", "White", "White", "Black",
		}),
	)
}

func TestNewRejectsDuplicateColumns(t *testing.T) {
	_, err := New(
		NewCategoricalColumn("A", []string{"x"}),
		NewCategoricalColumn("A", []string{"y"}),
	)
	if err == nil {
		t.Fatal("want error for duplicate column names")
	}
}

func TestNewRejectsRaggedColumns(t *testing.T) {
	_, err := New(
		NewCategoricalColumn("A", []string{"x", "y"}),
		NewCategoricalColumn("B", []string{"z"}),
	)
	if err == nil {
		t.Fatal("want error for mismatched column lengths")
	}
}

func TestBasicAccessors(t *testing.T) {
	r := carRelation()
	if got := r.NumRows(); got != 8 {
		t.Errorf("NumRows = %d, want 8", got)
	}
	if got := r.NumCols(); got != 2 {
		t.Errorf("NumCols = %d, want 2", got)
	}
	c := r.MustColumn("Model")
	if c.Cardinality() != 2 {
		t.Errorf("Model cardinality = %d, want 2", c.Cardinality())
	}
	if c.StringAt(0) != "BMW X1" || c.StringAt(7) != "Toyota Prius" {
		t.Errorf("unexpected Model values: %q, %q", c.StringAt(0), c.StringAt(7))
	}
	if _, err := r.Column("Nope"); err == nil {
		t.Error("want error for missing column")
	}
}

func TestNumericColumn(t *testing.T) {
	c := NewNumericColumn("X", []float64{1.5, 2, 3})
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Value(0) != 1.5 {
		t.Errorf("Value(0) = %v", c.Value(0))
	}
	if c.StringAt(1) != "2" {
		t.Errorf("StringAt(1) = %q, want 2", c.StringAt(1))
	}
	if c.StringAt(0) != "1.5" {
		t.Errorf("StringAt(0) = %q, want 1.5", c.StringAt(0))
	}
	c.SetValue(2, 9)
	if c.Value(2) != 9 {
		t.Errorf("SetValue did not stick")
	}
	f := c.Floats()
	f[0] = 100
	if c.Value(0) == 100 {
		t.Error("Floats must return a copy")
	}
}

func TestKindPanics(t *testing.T) {
	num := NewNumericColumn("N", []float64{1})
	cat := NewCategoricalColumn("C", []string{"a"})
	assertPanics(t, "Code on numeric", func() { num.Code(0) })
	assertPanics(t, "Value on categorical", func() { cat.Value(0) })
	assertPanics(t, "Floats on categorical", func() { cat.Floats() })
	assertPanics(t, "SetValue on categorical", func() { cat.SetValue(0, 1) })
	assertPanics(t, "SetString on numeric", func() { num.SetString(0, "x") })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestCloneIsDeep(t *testing.T) {
	r := carRelation()
	cp := r.Clone()
	cp.MustColumn("Color").SetString(0, "Blue")
	if r.MustColumn("Color").StringAt(0) != "White" {
		t.Error("Clone is not deep")
	}
}

func TestSubsetAndDrop(t *testing.T) {
	r := carRelation()
	s := r.Subset([]int{4, 5, 6, 7})
	if s.NumRows() != 4 {
		t.Fatalf("Subset rows = %d", s.NumRows())
	}
	if s.MustColumn("Model").Cardinality() != 1 {
		t.Errorf("subset should re-intern dictionary; cardinality = %d", s.MustColumn("Model").Cardinality())
	}
	d := r.Drop(map[int]bool{0: true, 1: true})
	if d.NumRows() != 6 {
		t.Errorf("Drop rows = %d, want 6", d.NumRows())
	}
	if d.MustColumn("Model").StringAt(0) != "BMW X1" {
		t.Errorf("Drop should keep remaining rows in order")
	}
}

func TestProject(t *testing.T) {
	r := carRelation()
	p, err := r.Project("Color")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 1 || p.NumRows() != 8 {
		t.Errorf("Project shape = %dx%d", p.NumRows(), p.NumCols())
	}
	if _, err := r.Project("Missing"); err == nil {
		t.Error("want error for missing projection column")
	}
}

func TestGroupBy(t *testing.T) {
	r := carRelation()
	groups := r.GroupBy([]string{"Model", "Color"})
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	total := 0
	for _, rows := range groups {
		total += len(rows)
	}
	if total != 8 {
		t.Errorf("group members = %d, want 8", total)
	}
	keys := SortedGroupKeys(groups)
	if len(keys) != 4 {
		t.Errorf("sorted keys = %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Errorf("keys not sorted at %d", i)
		}
	}
}

func TestEmpiricalCountsAndFreqs(t *testing.T) {
	r := carRelation()
	if got := r.Empirical("Model").Prob("BMW X1"); got != 4.0/8.0 {
		t.Errorf("P(Model=BMW X1) = %v, want 0.5", got)
	}
	if got := r.Empirical("Model", "Color").Prob("Toyota Prius", "White"); got != 3.0/8.0 {
		t.Errorf("P(Prius,White) = %v, want 0.375", got)
	}
	if got := r.Empirical("Color").Prob("Black"); got != 3.0/8.0 {
		t.Errorf("P(Black) = %v, want 0.375", got)
	}
}

func TestEmpiricalDist(t *testing.T) {
	r := carRelation()
	d := r.Empirical("Model", "Color")
	if d.N != 8 {
		t.Fatalf("N = %d", d.N)
	}
	if got := d.Prob("Toyota Prius", "White"); got != 3.0/8.0 {
		t.Errorf("Prob(Prius,White) = %v", got)
	}
	sum := 0.0
	for _, p := range d.Probs {
		sum += p
	}
	if diff := sum - 1.0; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := MustNew(
		NewCategoricalColumn("City", []string{"Portland", "Seattle", "Portland"}),
		NewNumericColumn("Temp", []float64{21.5, 18, 23}),
	)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 3 || back.NumCols() != 2 {
		t.Fatalf("round trip shape = %dx%d", back.NumRows(), back.NumCols())
	}
	if back.MustColumn("Temp").Kind != Numeric {
		t.Error("Temp should be inferred numeric")
	}
	if back.MustColumn("City").Kind != Categorical {
		t.Error("City should be inferred categorical")
	}
	if back.MustColumn("Temp").Value(0) != 21.5 {
		t.Errorf("Temp[0] = %v", back.MustColumn("Temp").Value(0))
	}
}

func TestCSVTypedOverride(t *testing.T) {
	csv := "Zip,Pop\n97201,100\n97202,200\n"
	r, err := ReadCSVTyped(strings.NewReader(csv), map[string]Kind{"Zip": Categorical})
	if err != nil {
		t.Fatal(err)
	}
	if r.MustColumn("Zip").Kind != Categorical {
		t.Error("Zip should be categorical per override")
	}
	if r.MustColumn("Pop").Kind != Numeric {
		t.Error("Pop should be inferred numeric")
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("want error for empty csv")
	}
	if _, err := ReadCSV(strings.NewReader("A,B\n1\n")); err == nil {
		t.Error("want error for ragged csv")
	}
	if _, err := ReadCSVTyped(strings.NewReader("A\nx\n"), map[string]Kind{"A": Numeric}); err == nil {
		t.Error("want error forcing non-numeric data to Numeric")
	}
}

func TestNaturalJoinEMVDExample(t *testing.T) {
	// Table 2 of the paper: satisfies Z ->> X | Y.
	d := table2()
	xy, _ := d.Project("Z", "X")
	xz, _ := d.Project("Z", "Y")
	j, err := NaturalJoin(xy, xz)
	if err != nil {
		t.Fatal(err)
	}
	xyz, _ := d.Project("Z", "X", "Y")
	if !EqualAsSets(j, xyz) {
		t.Error("Table 2 should satisfy EMVD Z->>X|Y: projections join back to Pi_ZXY")
	}
}

func table2() *Relation {
	return MustNew(
		NewCategoricalColumn("Z", []string{"z1", "z1", "z1", "z1", "z1", "z1"}),
		NewCategoricalColumn("X", []string{"x1", "x2", "x1", "x1", "x1", "x2"}),
		NewCategoricalColumn("Y", []string{"y1", "y2", "y2", "y2", "y2", "y1"}),
		NewCategoricalColumn("M", []string{"m1", "m1", "m1", "m2", "m3", "m1"}),
	)
}

func TestNaturalJoinNoSharedColumns(t *testing.T) {
	a := MustNew(NewCategoricalColumn("A", []string{"x"}))
	b := MustNew(NewCategoricalColumn("B", []string{"y"}))
	if _, err := NaturalJoin(a, b); err == nil {
		t.Error("want error for join with no shared columns")
	}
}

func TestEqualAsSetsIgnoresOrderAndDuplicates(t *testing.T) {
	a := MustNew(
		NewCategoricalColumn("A", []string{"1", "2", "1"}),
		NewCategoricalColumn("B", []string{"x", "y", "x"}),
	)
	b := MustNew(
		NewCategoricalColumn("B", []string{"y", "x"}),
		NewCategoricalColumn("A", []string{"2", "1"}),
	)
	if !EqualAsSets(a, b) {
		t.Error("relations equal as sets should compare equal")
	}
	c := MustNew(
		NewCategoricalColumn("A", []string{"1"}),
		NewCategoricalColumn("B", []string{"z"}),
	)
	if EqualAsSets(a, c) {
		t.Error("different row sets should not compare equal")
	}
	d := MustNew(NewCategoricalColumn("A", []string{"1"}))
	if EqualAsSets(a, d) {
		t.Error("different schemas should not compare equal")
	}
}

func TestRowKeyDistinguishesTuples(t *testing.T) {
	r := MustNew(
		NewCategoricalColumn("A", []string{"a", "ab"}),
		NewCategoricalColumn("B", []string{"bc", "c"}),
	)
	k0 := r.RowKey(0, []string{"A", "B"})
	k1 := r.RowKey(1, []string{"A", "B"})
	if k0 == k1 {
		t.Error("RowKey must not collide across (a,bc) and (ab,c)")
	}
}
