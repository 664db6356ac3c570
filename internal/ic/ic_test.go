package ic

import (
	"math"
	"math/rand"
	"testing"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// table2 is the paper's Table 2: satisfies the EMVD Z ->> X | Y but
// violates the ISC X ⊥ Y | Z — the counterexample to the converse of
// Proposition 1.
func table2() *relation.Relation {
	return relation.MustNew(
		relation.NewCategoricalColumn("Z", []string{"z1", "z1", "z1", "z1", "z1", "z1"}),
		relation.NewCategoricalColumn("X", []string{"x1", "x2", "x1", "x1", "x1", "x2"}),
		relation.NewCategoricalColumn("Y", []string{"y1", "y2", "y2", "y2", "y2", "y1"}),
		relation.NewCategoricalColumn("M", []string{"m1", "m1", "m1", "m2", "m3", "m1"}),
	)
}

func TestFDHolds(t *testing.T) {
	d := relation.MustNew(
		relation.NewCategoricalColumn("Zip", []string{"97201", "97201", "97202"}),
		relation.NewCategoricalColumn("City", []string{"Portland", "Portland", "Salem"}),
	)
	ok, err := FD{LHS: []string{"Zip"}, RHS: []string{"City"}}.Holds(d)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("FD should hold")
	}
	d.MustColumn("City").SetString(1, "Eugene")
	ok, err = FD{LHS: []string{"Zip"}, RHS: []string{"City"}}.Holds(d)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("FD should be violated after the typo")
	}
}

func TestFDErrors(t *testing.T) {
	d := table2()
	if _, err := (FD{}).Holds(d); err == nil {
		t.Error("want error for empty FD")
	}
	if _, err := (FD{LHS: []string{"Nope"}, RHS: []string{"X"}}).Holds(d); err == nil {
		t.Error("want error for missing column")
	}
}

func TestFDViolationCounts(t *testing.T) {
	d := relation.MustNew(
		relation.NewCategoricalColumn("Zip", []string{"1", "1", "1", "2"}),
		relation.NewCategoricalColumn("City", []string{"A", "A", "B", "C"}),
	)
	counts, err := FD{LHS: []string{"Zip"}, RHS: []string{"City"}}.ViolationCounts(d)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0,1 (A) each conflict with row 2 (B); row 2 conflicts with both;
	// row 3 is alone.
	want := []int{1, 1, 2, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestFDApproximationRatio(t *testing.T) {
	d := relation.MustNew(
		relation.NewCategoricalColumn("Zip", []string{"1", "1", "1", "1", "2", "2"}),
		relation.NewCategoricalColumn("City", []string{"A", "A", "A", "B", "C", "C"}),
	)
	r, err := FD{LHS: []string{"Zip"}, RHS: []string{"City"}}.ApproximationRatio(d)
	if err != nil {
		t.Fatal(err)
	}
	// Must remove 1 record (the B) out of 6.
	if r != 1.0/6.0 {
		t.Errorf("ratio = %v, want 1/6", r)
	}
	exact := relation.MustNew(
		relation.NewCategoricalColumn("Zip", []string{"1", "2"}),
		relation.NewCategoricalColumn("City", []string{"A", "B"}),
	)
	r, _ = FD{LHS: []string{"Zip"}, RHS: []string{"City"}}.ApproximationRatio(exact)
	if r != 0 {
		t.Errorf("exact FD ratio = %v", r)
	}
}

func TestFDToDSC(t *testing.T) {
	dsc := FD{LHS: []string{"Zip"}, RHS: []string{"City"}}.ToDSC()
	if !dsc.Dependence {
		t.Error("FD translation must be a DSC")
	}
	want := sc.MustParse("Zip ~||~ City")
	if !dsc.Equivalent(want) {
		t.Errorf("ToDSC = %v, want %v", dsc, want)
	}
}

func TestTable2EMVDHoldsButISCFails(t *testing.T) {
	d := table2()
	// The paper: Table 2 satisfies Z ->> X | Y.
	ok, err := EMVD{X: []string{"Z"}, Y: []string{"X"}, Z: []string{"Y"}}.Holds(d)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Table 2 should satisfy EMVD Z ->> X | Y")
	}
	// ...but violates X ⊥ Y | Z: P(x1|z1)=2/3, P(y1|z1)=1/3, joint 1/6 ≠ 2/9.
	sat, err := SatisfiesISCExactly(d, sc.MustParse("X _||_ Y | Z"), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Error("Table 2 should violate X ⊥ Y | Z")
	}
}

func TestProposition1ISCEntailsEMVD(t *testing.T) {
	// Generate random relations; whenever Y ⊥ Z | X holds exactly, the
	// EMVD X ->> Y | Z must hold. Build relations where the ISC holds by
	// construction: P(Y,Z|X) = P(Y|X)P(Z|X) via a product design.
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		var xs, ys, zs []string
		for _, x := range []string{"x0", "x1"} {
			// Within each X group, take the full product of Y and Z values
			// with multiplicities my[i]*mz[j] — an exactly independent
			// conditional distribution.
			my := []int{rng.Intn(2) + 1, rng.Intn(2) + 1}
			mz := []int{rng.Intn(2) + 1, rng.Intn(2) + 1}
			for yi, myi := range my {
				for zi, mzi := range mz {
					for c := 0; c < myi*mzi; c++ {
						xs = append(xs, x)
						ys = append(ys, []string{"y0", "y1"}[yi])
						zs = append(zs, []string{"z0", "z1"}[zi])
					}
				}
			}
		}
		d := relation.MustNew(
			relation.NewCategoricalColumn("X", xs),
			relation.NewCategoricalColumn("Y", ys),
			relation.NewCategoricalColumn("Z", zs),
		)
		isc := sc.MustParse("Y _||_ Z | X")
		sat, err := SatisfiesISCExactly(d, isc, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if !sat {
			t.Fatalf("trial %d: construction should satisfy the ISC", trial)
		}
		emvd, err := ISCToEMVD(isc)
		if err != nil {
			t.Fatal(err)
		}
		holds, err := emvd.Holds(d)
		if err != nil {
			t.Fatal(err)
		}
		if !holds {
			t.Errorf("trial %d: Proposition 1 violated — ISC holds but EMVD %s fails", trial, emvd)
		}
	}
}

func TestISCToEMVDErrors(t *testing.T) {
	if _, err := ISCToEMVD(sc.MustParse("A ~||~ B | C")); err == nil {
		t.Error("want error for DSC input")
	}
	if _, err := ISCToEMVD(sc.MustParse("A _||_ B")); err == nil {
		t.Error("want error for marginal ISC")
	}
	e, err := ISCToEMVD(sc.MustParse("Y _||_ Z | X"))
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "X ->> Y | Z" {
		t.Errorf("EMVD = %s", e)
	}
}

func TestEMVDValidation(t *testing.T) {
	d := table2()
	if _, err := (EMVD{X: []string{"Z"}, Y: []string{"X"}, Z: []string{"X"}}).Holds(d); err == nil {
		t.Error("want error for overlapping sets")
	}
	if _, err := (EMVD{X: []string{"Z"}, Y: []string{"X"}}).Holds(d); err == nil {
		t.Error("want error for empty Z")
	}
	if _, err := (EMVD{X: []string{"Q"}, Y: []string{"X"}, Z: []string{"Y"}}).Holds(d); err == nil {
		t.Error("want error for missing column")
	}
}

func TestMVDEquivalenceWithSaturatedISC(t *testing.T) {
	// FD Z -> X entails MVD Z ->> X, which is equivalent to the saturated
	// ISC X ⊥ (Z∪X)^C | Z. Build a 3-column relation where the FD holds.
	d := relation.MustNew(
		relation.NewCategoricalColumn("Z", []string{"a", "a", "b", "b"}),
		relation.NewCategoricalColumn("X", []string{"p", "p", "q", "q"}),
		relation.NewCategoricalColumn("W", []string{"1", "2", "1", "2"}),
	)
	fdHolds, err := FD{LHS: []string{"Z"}, RHS: []string{"X"}}.Holds(d)
	if err != nil {
		t.Fatal(err)
	}
	if !fdHolds {
		t.Fatal("FD should hold by construction")
	}
	mvd := MVD{X: []string{"Z"}, Y: []string{"X"}}
	mvdHolds, err := mvd.Holds(d)
	if err != nil {
		t.Fatal(err)
	}
	if !mvdHolds {
		t.Error("FD ⇒ MVD violated")
	}
	isc, err := mvd.ToSaturatedISC(d)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := SatisfiesISCExactly(d, isc, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Errorf("MVD ⇔ saturated ISC violated: %s should hold", isc)
	}
}

func TestMVDTrivialOnFullSchema(t *testing.T) {
	d := relation.MustNew(
		relation.NewCategoricalColumn("A", []string{"1", "2"}),
		relation.NewCategoricalColumn("B", []string{"x", "y"}),
	)
	ok, err := MVD{X: []string{"A"}, Y: []string{"B"}}.Holds(d)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("saturated MVD with empty complement holds trivially")
	}
	if _, err := (MVD{X: []string{"A"}, Y: []string{"B"}}).ToSaturatedISC(d); err == nil {
		t.Error("want error translating a trivial MVD")
	}
}

func TestProposition2FDEntailsMIMaximalDSC(t *testing.T) {
	// When the FD X -> Y holds, I(X;Y) must be >= I(X';Y) for any other
	// column set X'. Check single-column competitors on a relation where
	// the FD holds.
	d := relation.MustNew(
		relation.NewCategoricalColumn("X", []string{"a", "a", "b", "b", "c", "c"}),
		relation.NewCategoricalColumn("Y", []string{"p", "p", "q", "q", "p", "p"}),
		relation.NewCategoricalColumn("W", []string{"1", "2", "1", "2", "2", "1"}),
	)
	fdHolds, err := FD{LHS: []string{"X"}, RHS: []string{"Y"}}.Holds(d)
	if err != nil {
		t.Fatal(err)
	}
	if !fdHolds {
		t.Fatal("FD should hold by construction")
	}
	mi := func(a, b string) float64 {
		xc, kx := kernel.CodesFor(d, a, 0, nil)
		yc, ky := kernel.CodesFor(d, b, 0, nil)
		return stats.MutualInformation(stats.TableFromCodes(xc, yc, kx, ky))
	}
	ixy := mi("X", "Y")
	iwy := mi("W", "Y")
	if ixy < iwy-1e-12 {
		t.Errorf("Proposition 2 violated: I(X;Y)=%v < I(W;Y)=%v", ixy, iwy)
	}
	// I(X;Y) must equal H(Y) when the FD holds (Y is a function of X).
	hy := entropyOf(d, "Y")
	if math.Abs(ixy-hy) > 1e-12 {
		t.Errorf("I(X;Y)=%v should equal H(Y)=%v under the FD", ixy, hy)
	}
}

func entropyOf(d *relation.Relation, col string) float64 {
	dist := d.Empirical(col)
	h := 0.0
	for _, p := range dist.Probs {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

func TestSatisfiesISCExactlyProductTable(t *testing.T) {
	// A perfectly factorized joint: counts = outer product.
	var xs, ys []string
	for _, x := range []string{"a", "a", "b"} { // P(a)=2/3
		for _, y := range []string{"p", "q"} { // P(p)=1/2
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	d := relation.MustNew(
		relation.NewCategoricalColumn("X", xs),
		relation.NewCategoricalColumn("Y", ys),
	)
	sat, err := SatisfiesISCExactly(d, sc.MustParse("X _||_ Y"), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Error("product table should satisfy X ⊥ Y exactly")
	}
	if _, err := SatisfiesISCExactly(d, sc.MustParse("X ~||~ Y"), 1e-9); err == nil {
		t.Error("want error for DSC input")
	}
}
