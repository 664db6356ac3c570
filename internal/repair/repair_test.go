package repair

import (
	"math"
	"math/rand"
	"testing"

	"scoded/internal/detect"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// figure2 is the paper's example with the inserted error records.
func figure2() *relation.Relation {
	return relation.MustNew(
		relation.NewCategoricalColumn("Model", []string{
			"BMW X1", "BMW X1", "BMW X1", "BMW X1",
			"Toyota Prius", "Toyota Prius", "Toyota Prius", "Toyota Prius",
			"BMW X1", "BMW X1", "BMW X1", "BMW X1",
			"Toyota Prius", "Toyota Prius", "Toyota Prius", "Toyota Prius",
		}),
		relation.NewCategoricalColumn("Color", []string{
			"White", "Black", "White", "Black",
			"White", "White", "White", "Black",
			"White", "White", "White", "Black",
			"Black", "Black", "Black", "Black",
		}),
	)
}

func TestCategoricalRepairReducesG(t *testing.T) {
	d := figure2()
	c := sc.MustParse("Model _||_ Color")
	res, err := TopKCells(d, c, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corrections) == 0 {
		t.Fatal("no corrections proposed")
	}
	if res.FinalStat >= res.InitialStat {
		t.Errorf("ISC repair should reduce G: %v -> %v", res.InitialStat, res.FinalStat)
	}
	for _, cor := range res.Corrections {
		if cor.Column != "Model" && cor.Column != "Color" {
			t.Errorf("correction touches foreign column %q", cor.Column)
		}
		if cor.Old == cor.New {
			t.Errorf("no-op correction: %+v", cor)
		}
		if cor.Gain <= 0 {
			t.Errorf("non-positive gain: %+v", cor)
		}
	}
}

func TestCategoricalRepairDSCRestoresDependence(t *testing.T) {
	// A near-FD relation with a few wrong labels: the DSC repair should
	// rewrite the minority labels back to the majority, raising G.
	zips := make([]string, 60)
	cities := make([]string, 60)
	for i := range zips {
		if i < 30 {
			zips[i], cities[i] = "z1", "A"
		} else {
			zips[i], cities[i] = "z2", "B"
		}
	}
	cities[5], cities[35] = "B", "A" // two swap typos
	d := relation.MustNew(
		relation.NewCategoricalColumn("Zip", zips),
		relation.NewCategoricalColumn("City", cities),
	)
	res, err := TopKCells(d, sc.MustParse("Zip ~||~ City"), 2, Options{Columns: []string{"City"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corrections) != 2 {
		t.Fatalf("corrections = %+v", res.Corrections)
	}
	if res.FinalStat <= res.InitialStat {
		t.Errorf("DSC repair should raise G: %v -> %v", res.InitialStat, res.FinalStat)
	}
	fixed := map[int]string{5: "A", 35: "B"}
	for _, cor := range res.Corrections {
		want, ok := fixed[cor.Row]
		if !ok {
			t.Errorf("repair touched clean row %d", cor.Row)
			continue
		}
		if cor.New != want {
			t.Errorf("row %d corrected to %q, want %q", cor.Row, cor.New, want)
		}
		if cor.Column != "City" {
			t.Errorf("repair rewrote %q despite Columns restriction", cor.Column)
		}
	}

	// Applying the corrections makes the FD hold again and the constraint
	// satisfied strongly.
	repaired, err := Apply(d, res.Corrections)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := detect.Check(repaired, sc.Approximate{SC: sc.MustParse("Zip ~||~ City"), Alpha: 0.3}, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Violated {
		t.Errorf("repaired relation should satisfy the DSC (p=%v)", cr.Test.P)
	}
}

func TestNumericRepairRestoresDependence(t *testing.T) {
	// Strong dependence with 20 mean-imputed y values: the DSC repair
	// should target the imputed rows and raise nc - nd.
	rng := rand.New(rand.NewSource(3))
	n := 150
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 2*x[i] + 0.1*rng.NormFloat64()
	}
	for i := 0; i < 20; i++ {
		y[i] = 0
	}
	d := relation.MustNew(
		relation.NewNumericColumn("X", x),
		relation.NewNumericColumn("Y", y),
	)
	res, err := TopKCells(d, sc.MustParse("X ~||~ Y"), 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corrections) == 0 {
		t.Fatal("no corrections proposed")
	}
	if res.FinalStat <= res.InitialStat {
		t.Errorf("repair should raise nc-nd: %v -> %v", res.InitialStat, res.FinalStat)
	}
	hits := 0
	for _, cor := range res.Corrections {
		if cor.Column != "Y" {
			t.Errorf("numeric repair must rewrite Y, got %q", cor.Column)
		}
		if cor.Row < 20 {
			hits++
		}
	}
	if hits < 14 {
		t.Errorf("only %d/%d corrections target imputed rows", hits, len(res.Corrections))
	}
}

func TestNumericRepairISCBreaksDependence(t *testing.T) {
	// A spurious perfect dependence: ISC repair should push |nc-nd| down.
	n := 40
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i)
	}
	d := relation.MustNew(
		relation.NewNumericColumn("X", x),
		relation.NewNumericColumn("Y", y),
	)
	res, err := TopKCells(d, sc.MustParse("X _||_ Y"), 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FinalStat) >= math.Abs(res.InitialStat) {
		t.Errorf("ISC repair should shrink |nc-nd|: %v -> %v", res.InitialStat, res.FinalStat)
	}
}

func TestRepairValidation(t *testing.T) {
	d := figure2()
	if _, err := TopKCells(d, sc.MustParse("Model _||_ Color"), 0, Options{}); err == nil {
		t.Error("want error for k=0")
	}
	if _, err := TopKCells(d, sc.MustParse("A,B _||_ C"), 2, Options{}); err == nil {
		t.Error("want error for set-valued SC")
	}
	if _, err := TopKCells(d, sc.MustParse("Model _||_ Missing"), 2, Options{}); err == nil {
		t.Error("want error for missing column")
	}
	if _, err := TopKCells(d, sc.SC{X: []string{"A"}, Y: []string{"A"}}, 1, Options{}); err == nil {
		t.Error("want error for invalid SC")
	}
	// Excluding every rewritable column must error.
	if _, err := TopKCells(d, sc.MustParse("Model _||_ Color"), 2, Options{Columns: []string{"Nope"}}); err == nil {
		t.Error("want error when Columns excludes both ends")
	}
}

func TestRepairStopsWhenNoImprovement(t *testing.T) {
	// Exactly independent table: no correction can improve the ISC.
	var xs, ys []string
	for _, x := range []string{"a", "b"} {
		for _, y := range []string{"p", "q"} {
			for c := 0; c < 10; c++ {
				xs = append(xs, x)
				ys = append(ys, y)
			}
		}
	}
	d := relation.MustNew(
		relation.NewCategoricalColumn("X", xs),
		relation.NewCategoricalColumn("Y", ys),
	)
	res, err := TopKCells(d, sc.MustParse("X _||_ Y"), 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corrections) != 0 {
		t.Errorf("independent table should need no repair, got %+v", res.Corrections)
	}
}

func TestApplyValidation(t *testing.T) {
	d := figure2()
	if _, err := Apply(d, []Correction{{Row: 99, Column: "Model", New: "X"}}); err == nil {
		t.Error("want error for out-of-range row")
	}
	if _, err := Apply(d, []Correction{{Row: 0, Column: "Nope", New: "X"}}); err == nil {
		t.Error("want error for missing column")
	}
	// Numeric apply parses the new value.
	nd := relation.MustNew(relation.NewNumericColumn("V", []float64{1, 2}))
	if _, err := Apply(nd, []Correction{{Row: 0, Column: "V", New: "banana"}}); err == nil {
		t.Error("want error for unparsable numeric value")
	}
	out, err := Apply(nd, []Correction{{Row: 0, Column: "V", New: "7.5"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.MustColumn("V").Value(0) != 7.5 {
		t.Errorf("apply did not write value: %v", out.MustColumn("V").Value(0))
	}
	if nd.MustColumn("V").Value(0) != 1 {
		t.Error("Apply must not mutate its input")
	}
}

func TestConditionalRepair(t *testing.T) {
	// Per-stratum FD-ish structure with one typo per stratum.
	zs := make([]string, 40)
	xs := make([]string, 40)
	ys := make([]string, 40)
	for i := range zs {
		if i < 20 {
			zs[i], xs[i], ys[i] = "s1", "a", "p"
		} else {
			zs[i], xs[i], ys[i] = "s2", "b", "q"
		}
	}
	// Within each stratum make X binary so a dependence exists to restore.
	for i := 0; i < 40; i += 2 {
		if i < 20 {
			xs[i], ys[i] = "a2", "p2"
		} else {
			xs[i], ys[i] = "b2", "q2"
		}
	}
	ys[3] = "p2" // typo: (a, p2) breaks the within-stratum pairing
	d := relation.MustNew(
		relation.NewCategoricalColumn("Z", zs),
		relation.NewCategoricalColumn("X", xs),
		relation.NewCategoricalColumn("Y", ys),
	)
	res, err := TopKCells(d, sc.MustParse("X ~||~ Y | Z"), 1, Options{Columns: []string{"Y"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corrections) != 1 {
		t.Fatalf("corrections = %+v", res.Corrections)
	}
	if res.Corrections[0].Row != 3 || res.Corrections[0].New != "p" {
		t.Errorf("expected row 3 corrected to p, got %+v", res.Corrections[0])
	}
}

// TestContributionDeltaInfiniteTies: a pair tied at an infinity is a tie,
// as KendallNaive counts it, so the O(n) delta of rewriting one y matches
// a recount of nc - nd.
func TestContributionDeltaInfiniteTies(t *testing.T) {
	inf := math.Inf(1)
	x := []float64{inf, inf, 1, 2, -inf, -inf}
	for _, y := range [][]float64{{1, 2, 3, 0, 5, 4}, {inf, 2, -inf, 0, inf, -inf}} {
		before := stats.KendallNaive(x, y)
		for i := range x {
			for _, target := range []float64{-inf, -1, 2.5, 6, inf} {
				moved := append([]float64(nil), y...)
				moved[i] = target
				after := stats.KendallNaive(x, moved)
				want := float64((after.Concordant - after.Discordant) - (before.Concordant - before.Discordant))
				if got := contributionDelta(x, y, i, target); got != want {
					t.Errorf("y %v: rewriting y[%d] to %v: delta %v, want %v", y, i, target, got, want)
				}
			}
		}
	}
}
