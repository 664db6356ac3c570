package drilldown

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// figure2 is the full car database of Figure 2 (original r1-r8 plus inserted
// r9-r16). Rows are 0-based: r1 = row 0 ... r16 = row 15.
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

// isDiagonal reports whether a Figure 2 row is in one of the two
// over-represented cells (BMW X1, White) or (Toyota Prius, Black). The
// inserted errors made those cells dominant; since the final table is
// exactly symmetric (5/3/3/5), the two cells are statistically
// interchangeable and any correct drill-down flags records from them. The
// paper's example answer (r8, r13-r16) is the Prius-Black cell, one of the
// two tie-equivalent answers.
func isDiagonal(d *relation.Relation, r int) bool {
	m := d.MustColumn("Model").StringAt(r)
	c := d.MustColumn("Color").StringAt(r)
	return (m == "BMW X1" && c == "White") || (m == "Toyota Prius" && c == "Black")
}

func TestFigure2TopKFindsDominantCells(t *testing.T) {
	d := figure2()
	res, err := TopK(d, sc.MustParse("Model _||_ Color"), 5, Options{Strategy: K})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// The K strategy resolves the violation greedily: while dependence
	// remains, every pick must come from an over-represented cell. On this
	// tiny example G reaches ~0 after three removals, after which further
	// picks are unconstrained — so assert the leading picks only.
	for _, r := range res.Rows[:3] {
		if !isDiagonal(d, r) {
			t.Errorf("row %d = (%s, %s): outside the over-represented cells",
				r, d.MustColumn("Model").StringAt(r), d.MustColumn("Color").StringAt(r))
		}
	}
	if res.FinalStat >= res.InitialStat {
		t.Errorf("K strategy should reduce G: %v -> %v", res.InitialStat, res.FinalStat)
	}
	if res.FinalStat > 0.2 {
		t.Errorf("K strategy should drive G to ~0, got %v", res.FinalStat)
	}
}

func TestFigure2KcStrategy(t *testing.T) {
	// K^c keeps the k records that are most mutually correlated — for
	// Figure 2, records from the dominant diagonal cells.
	d := figure2()
	res, err := TopK(d, sc.MustParse("Model _||_ Color"), 5, Options{Strategy: Kc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Strategy != Kc {
		t.Errorf("strategy = %v", res.Strategy)
	}
	for _, r := range res.Rows {
		if !isDiagonal(d, r) {
			t.Errorf("Kc kept row %d outside the over-represented cells", r)
		}
	}
	// Survivor rows must be sorted and unique.
	if !sort.IntsAreSorted(res.Rows) {
		t.Errorf("Kc rows not sorted: %v", res.Rows)
	}
}

func TestDefaultStrategySelection(t *testing.T) {
	d := figure2()
	isc, err := TopK(d, sc.MustParse("Model _||_ Color"), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if isc.Strategy != Kc {
		t.Errorf("ISC default strategy = %v, want Kc", isc.Strategy)
	}
	dsc, err := TopK(d, sc.MustParse("Model ~||~ Color"), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dsc.Strategy != K {
		t.Errorf("DSC default strategy = %v, want K", dsc.Strategy)
	}
}

// numericWithSortedHead builds a numeric dataset where the first `errs`
// records were corrupted by a sorting error: their (x, y) values are
// re-paired so the block is perfectly rank-aligned, inducing spurious
// concordance while preserving both marginals — the paper's
// "sorted based on column B" mechanism for violating an independence SC.
func numericWithSortedHead(n, errs int, seed int64) (*relation.Relation, map[int]bool) {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	xs := append([]float64(nil), x[:errs]...)
	ys := append([]float64(nil), y[:errs]...)
	sort.Float64s(xs)
	sort.Float64s(ys)
	for i := 0; i < errs; i++ {
		x[i], y[i] = xs[i], ys[i]
	}
	truth := make(map[int]bool, errs)
	for i := 0; i < errs; i++ {
		truth[i] = true
	}
	rel := relation.MustNew(
		relation.NewNumericColumn("X", x),
		relation.NewNumericColumn("Y", y),
	)
	return rel, truth
}

func TestTauTopKSortingErrorsKvsKc(t *testing.T) {
	// 30% error rate, within the paper's 20-45% regime. This test verifies
	// the Section 5.2 Remark: for an independence SC the K^c strategy
	// (keep the k most mutually correlated records) is the better error
	// detector, because the K strategy resolves the violation after few
	// removals and its remaining picks are unconstrained.
	d, truth := numericWithSortedHead(200, 60, 17)
	precision := func(rows []int) float64 {
		hits := 0
		for _, r := range rows {
			if truth[r] {
				hits++
			}
		}
		return float64(hits) / float64(len(rows))
	}

	kRes, err := TopK(d, sc.MustParse("X _||_ Y"), 60, Options{Strategy: K})
	if err != nil {
		t.Fatal(err)
	}
	kcRes, err := TopK(d, sc.MustParse("X _||_ Y"), 60, Options{Strategy: Kc})
	if err != nil {
		t.Fatal(err)
	}
	pK, pKc := precision(kRes.Rows), precision(kcRes.Rows)
	if pKc < 0.6 {
		t.Errorf("Kc precision@60 = %v, want >= 0.6", pKc)
	}
	if pKc < pK {
		t.Errorf("paper's Remark violated: Kc precision %v < K precision %v on an ISC", pKc, pK)
	}
	// K must still be better than random guessing (error rate 0.3) in its
	// leading picks and must neutralize the dependence statistic.
	if lead := precision(kRes.Rows[:20]); lead < 0.5 {
		t.Errorf("K leading-pick precision = %v, want >= 0.5", lead)
	}
	if math.Abs(kRes.FinalStat) >= math.Abs(kRes.InitialStat) {
		t.Errorf("ISC drill-down should shrink |nc-nd|: %v -> %v", kRes.InitialStat, kRes.FinalStat)
	}
}

func TestTauKcStrategyOnIndependenceSC(t *testing.T) {
	d, truth := numericWithSortedHead(200, 60, 19)
	res, err := TopK(d, sc.MustParse("X _||_ Y"), 60, Options{Strategy: Kc})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, r := range res.Rows {
		if truth[r] {
			hits++
		}
	}
	// K^c keeps the most mutually correlated subset, which is exactly the
	// sorted block.
	if prec := float64(hits) / 60; prec < 0.6 {
		t.Errorf("Kc precision@60 = %v, want >= 0.6", prec)
	}
}

func TestTauDSCDrilldownFindsImputedValues(t *testing.T) {
	// A dependence SC X ~||~ Y violated by imputation: corrupted rows have
	// y replaced by the column mean, destroying the dependence.
	rng := rand.New(rand.NewSource(23))
	n, errs := 300, 50
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 2*x[i] + 0.2*rng.NormFloat64()
	}
	for i := 0; i < errs; i++ {
		y[i] = 0 // mean imputation
	}
	d := relation.MustNew(
		relation.NewNumericColumn("X", x),
		relation.NewNumericColumn("Y", y),
	)
	res, err := TopK(d, sc.MustParse("X ~||~ Y"), errs, Options{Strategy: K})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, r := range res.Rows {
		if r < errs {
			hits++
		}
	}
	if prec := float64(hits) / float64(errs); prec < 0.7 {
		t.Errorf("DSC precision@%d = %v, want >= 0.7", errs, prec)
	}
	// The meaningful DSC objective is the normalized tau, not the raw pair
	// sum: removing weak-contribution records shrinks nc-nd slightly but
	// shrinks the pair count C(n,2) much faster, so |tau| must grow.
	pairs := func(m int) float64 { return float64(m) * float64(m-1) / 2 }
	tauBefore := math.Abs(res.InitialStat) / pairs(n)
	tauAfter := math.Abs(res.FinalStat) / pairs(n-errs)
	if tauAfter <= tauBefore {
		t.Errorf("DSC drill-down should grow |tau|: %v -> %v", tauBefore, tauAfter)
	}
}

// initBenefits returns Algorithm 2's per-record concordant-minus-discordant
// pair sums, through a one-shot scratch.
func initBenefits(x, y []float64) []float64 {
	recs := make([]tauRec, len(x))
	var scratch tauScratch
	scratch.initBenefits(recs, stats.DenseRanks(x), stats.DenseRanks(y))
	benefit := make([]float64, len(x))
	for i, r := range recs {
		benefit[i] = float64(r.c)
	}
	return benefit
}

// pairWeight is 1 for a concordant pair, -1 for discordant, 0 for tied,
// read off the values: the oracle the rank-based weights are checked by.
// It compares, never subtracts: Inf-Inf is NaN, which would turn a pair
// tied at an infinity into a concordant or discordant one.
func pairWeight(x1, y1, x2, y2 float64) float64 {
	switch {
	//scoded:lint-ignore floatcmp Kendall ties are defined by exact value equality
	case x1 == x2 || y1 == y2:
		return 0
	case (x1 > x2) == (y1 > y2):
		return 1
	default:
		return -1
	}
}

// TestInitBenefitsMatchesNaive: the Fenwick init and the pairwise sum of
// pairWeight agree on heavy ties, ties at ±Inf included.
func TestInitBenefitsMatchesNaive(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, math.Inf(1), math.Inf(-1)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 2
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = vals[rng.Intn(len(vals))] // heavy ties
			y[i] = vals[rng.Intn(len(vals))]
		}
		fast := initBenefits(x, y)
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < n; j++ {
				if i != j {
					want += pairWeight(x[i], y[i], x[j], y[j])
				}
			}
			if fast[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInitBenefitsSumIsTwiceNcMinusNd(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b := initBenefits(x, y)
	var sum float64
	for _, v := range b {
		sum += v
	}
	k := stats.KendallNaive(x, y)
	if want := 2 * float64(k.Concordant-k.Discordant); sum != want {
		t.Errorf("sum(benefits) = %v, want %v", sum, want)
	}
}

func TestGreedyMatchesBruteForceSmall(t *testing.T) {
	// On small instances the greedy K strategy should achieve an objective
	// close to the brute-force optimum (greedy is not always optimal, so
	// compare objective values, not row sets).
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		d := relation.MustNew(
			relation.NewNumericColumn("X", x),
			relation.NewNumericColumn("Y", y),
		)
		c := sc.MustParse("X _||_ Y")
		greedy, err := TopK(d, c, 3, Options{Strategy: K})
		if err != nil {
			t.Fatal(err)
		}
		brute, err := bruteForceTopK(d, c, 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(greedy.FinalStat) > math.Abs(brute.FinalStat)+3 {
			t.Errorf("seed %d: greedy |stat|=%v far from optimal %v",
				seed, math.Abs(greedy.FinalStat), math.Abs(brute.FinalStat))
		}
	}
}

func TestBruteForceCategoricalOracle(t *testing.T) {
	d := figure2()
	c := sc.MustParse("Model _||_ Color")
	brute, err := bruteForceTopK(d, c, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := TopK(d, c, 2, Options{Strategy: K})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy removal of 2 records should match the optimum on this tiny
	// instance (both remove from the dominant diagonal cells).
	if greedy.FinalStat > brute.FinalStat+1e-9 {
		t.Errorf("greedy G=%v worse than brute optimum %v", greedy.FinalStat, brute.FinalStat)
	}
}

func TestBruteForceGuards(t *testing.T) {
	d := figure2()
	if _, err := bruteForceTopK(d, sc.MustParse("Model _||_ Color | Model2"), 2, Options{}); err == nil {
		t.Error("want error for invalid constraint")
	}
	if _, err := bruteForceTopK(d, sc.MustParse("Model _||_ Color"), 0, Options{}); err == nil {
		t.Error("want error for k=0")
	}
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i)
	}
	bigRel := relation.MustNew(
		relation.NewNumericColumn("X", big),
		relation.NewNumericColumn("Y", big),
	)
	if _, err := bruteForceTopK(bigRel, sc.MustParse("X _||_ Y"), 50, Options{}); err == nil {
		t.Error("want error for combinatorial explosion")
	}
}

func TestConditionalDrilldown(t *testing.T) {
	// Dependence planted only inside stratum z1; drill-down on the
	// conditional ISC should pick rows from that stratum.
	rng := rand.New(rand.NewSource(31))
	n := 400
	zs := make([]string, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		if i < n/2 {
			zs[i] = "z0"
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		} else {
			zs[i] = "z1"
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i] + 0.1*rng.NormFloat64()
		}
	}
	d := relation.MustNew(
		relation.NewCategoricalColumn("Z", zs),
		relation.NewNumericColumn("X", xs),
		relation.NewNumericColumn("Y", ys),
	)
	res, err := TopK(d, sc.MustParse("X _||_ Y | Z"), 30, Options{Strategy: K})
	if err != nil {
		t.Fatal(err)
	}
	fromZ1 := 0
	for _, r := range res.Rows {
		if r >= n/2 {
			fromZ1++
		}
	}
	if fromZ1 < 25 {
		t.Errorf("conditional drill-down picked %d/30 from the dependent stratum", fromZ1)
	}
}

func TestTopKValidation(t *testing.T) {
	d := figure2()
	if _, err := TopK(d, sc.MustParse("Model _||_ Color"), 0, Options{}); err == nil {
		t.Error("want error for k=0")
	}
	if _, err := TopK(d, sc.MustParse("Model _||_ Color"), 99, Options{}); err == nil {
		t.Error("want error for k>n")
	}
	if _, err := TopK(d, sc.MustParse("Model _||_ Missing"), 2, Options{}); err == nil {
		t.Error("want error for missing column")
	}
	if _, err := TopK(d, sc.MustParse("Model _||_ Color,Color2"), 2, Options{}); err == nil {
		t.Error("want error for set-valued constraint")
	}
	if _, err := TopK(d, sc.SC{X: []string{"A"}, Y: []string{"A"}}, 1, Options{}); err == nil {
		t.Error("want error for invalid SC")
	}
}

func TestTopKSmallStrataExcluded(t *testing.T) {
	// With a conditioning column making every stratum tiny, no rows are
	// testable and TopK must error rather than invent a ranking.
	zs := make([]string, 10)
	xs := make([]float64, 10)
	ys := make([]float64, 10)
	for i := range zs {
		zs[i] = string(rune('a' + i))
		xs[i] = float64(i)
		ys[i] = float64(i)
	}
	d := relation.MustNew(
		relation.NewCategoricalColumn("Z", zs),
		relation.NewNumericColumn("X", xs),
		relation.NewNumericColumn("Y", ys),
	)
	if _, err := TopK(d, sc.MustParse("X _||_ Y | Z"), 5, Options{}); err == nil {
		t.Error("want error when all strata are below MinStratumSize")
	}
}

func TestPartitionResolvesViolation(t *testing.T) {
	d, _ := numericWithSortedHead(150, 30, 37)
	a := sc.Approximate{SC: sc.MustParse("X _||_ Y"), Alpha: 0.05}
	res, err := Partition(d, a, Options{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatalf("partition failed to resolve; final p=%v after %d removals", res.FinalP, len(res.Removed))
	}
	if res.FinalP < 0.05 {
		t.Errorf("resolved but p=%v < alpha", res.FinalP)
	}
	if len(res.Removed) == 0 {
		t.Error("violated constraint should need at least one removal")
	}
	if len(res.Removed) > 60 {
		t.Errorf("removed %d records for 30 planted errors", len(res.Removed))
	}
}

func TestPartitionNoViolation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	d := relation.MustNew(
		relation.NewNumericColumn("X", x),
		relation.NewNumericColumn("Y", y),
	)
	res, err := Partition(d, sc.Approximate{SC: sc.MustParse("X _||_ Y"), Alpha: 0.05}, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved || len(res.Removed) != 0 {
		t.Errorf("clean data should resolve immediately: %+v", res)
	}
}

func TestPartitionBudgetExhausted(t *testing.T) {
	d, _ := numericWithSortedHead(150, 50, 43)
	res, err := Partition(d, sc.Approximate{SC: sc.MustParse("X _||_ Y"), Alpha: 0.05}, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved {
		t.Skip("2 removals unexpectedly resolved; acceptable but rare")
	}
	if len(res.Removed) != 2 {
		t.Errorf("removed = %v, want exactly the budget", res.Removed)
	}
}

func TestPartitionValidation(t *testing.T) {
	d := figure2()
	if _, err := Partition(d, sc.Approximate{SC: sc.MustParse("Model _||_ Color"), Alpha: 9}, Options{}, 0); err == nil {
		t.Error("want error for bad alpha")
	}
	if _, err := Partition(d, sc.Approximate{SC: sc.MustParse("A,B _||_ C"), Alpha: 0.05}, Options{}, 0); err == nil {
		t.Error("want error for set-valued SC")
	}
}

func TestMultiTopK(t *testing.T) {
	// Two numeric pairs with disjoint planted errors: the merged top-k
	// should draw from both constraints' findings.
	rng := rand.New(rand.NewSource(51))
	n := 200
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = a[i] + 0.2*rng.NormFloat64()
		c[i] = a[i] + 0.2*rng.NormFloat64()
	}
	for i := 0; i < 20; i++ {
		b[i] = 0 // errors visible to A ~||~ B
	}
	for i := 20; i < 40; i++ {
		c[i] = 0 // errors visible to A ~||~ C
	}
	d := relation.MustNew(
		relation.NewNumericColumn("A", a),
		relation.NewNumericColumn("B", b),
		relation.NewNumericColumn("C", c),
	)
	rows, err := MultiTopK(d, []sc.SC{sc.MustParse("A ~||~ B"), sc.MustParse("A ~||~ C")}, 40,
		Options{Strategy: K})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40 {
		t.Fatalf("rows = %d", len(rows))
	}
	seen := make(map[int]bool)
	fromB, fromC := 0, 0
	for _, r := range rows {
		if seen[r] {
			t.Fatalf("duplicate row %d in merged ranking", r)
		}
		seen[r] = true
		if r < 20 {
			fromB++
		} else if r < 40 {
			fromC++
		}
	}
	if fromB < 12 || fromC < 12 {
		t.Errorf("merge unbalanced: %d from B-errors, %d from C-errors", fromB, fromC)
	}

	// Single constraint delegates to TopK.
	single, err := MultiTopK(d, []sc.SC{sc.MustParse("A ~||~ B")}, 5, Options{Strategy: K})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := TopK(d, sc.MustParse("A ~||~ B"), 5, Options{Strategy: K})
	if err != nil {
		t.Fatal(err)
	}
	for i := range single {
		if single[i] != direct.Rows[i] {
			t.Fatalf("single-constraint MultiTopK differs from TopK: %v vs %v", single, direct.Rows)
		}
	}
	if _, err := MultiTopK(d, nil, 5, Options{}); err == nil {
		t.Error("want error for no constraints")
	}
	if _, err := MultiTopK(d, []sc.SC{sc.MustParse("A ~||~ Missing")}, 5, Options{}); err == nil {
		t.Error("want error propagated from TopK")
	}
}

func TestStrategyString(t *testing.T) {
	if Best.String() != "best" || K.String() != "K" || Kc.String() != "Kc" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should render")
	}
}

func TestForcedMethods(t *testing.T) {
	// GMethod on a numeric pair discretizes and runs the categorical path.
	rng := rand.New(rand.NewSource(53))
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i] + 0.3*rng.NormFloat64()
	}
	d := relation.MustNew(
		relation.NewNumericColumn("X", x),
		relation.NewNumericColumn("Y", y),
	)
	res, err := TopK(d, sc.MustParse("X ~||~ Y"), 10, Options{Strategy: K, Method: GMethod})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("rows = %v", res.Rows)
	}
	// TauMethod on categorical columns must error.
	cat := figure2()
	if _, err := TopK(cat, sc.MustParse("Model _||_ Color"), 3, Options{Method: TauMethod}); err == nil {
		t.Error("TauMethod on categorical columns should error")
	}
	// TauMethod explicit on numeric matches the auto dispatch.
	a, err := TopK(d, sc.MustParse("X ~||~ Y"), 10, Options{Strategy: K, Method: TauMethod})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TopK(d, sc.MustParse("X ~||~ Y"), 10, Options{Strategy: K})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("TauMethod diverges from auto: %v vs %v", a.Rows, b.Rows)
		}
	}
}

func TestGObjectiveString(t *testing.T) {
	if CellContribution.String() != "cell-contribution" || ExactDelta.String() != "exact-delta" {
		t.Error("objective names wrong")
	}
	if GObjective(9).String() == "" {
		t.Error("unknown objective should render")
	}
}

func TestExactDeltaObjectiveReducesGFaster(t *testing.T) {
	// The exact greedy must reach an equal or lower G than the heuristic
	// for the same k on an ISC (it directly optimizes the statistic).
	d := figure2()
	heur, err := TopK(d, sc.MustParse("Model _||_ Color"), 4, Options{Strategy: K, GObjective: CellContribution})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := TopK(d, sc.MustParse("Model _||_ Color"), 4, Options{Strategy: K, GObjective: ExactDelta})
	if err != nil {
		t.Fatal(err)
	}
	if exact.FinalStat > heur.FinalStat+1e-9 {
		t.Errorf("exact greedy G=%v should be <= heuristic G=%v", exact.FinalStat, heur.FinalStat)
	}
}

func TestGTopKDeterministic(t *testing.T) {
	d := figure2()
	a, err := TopK(d, sc.MustParse("Model _||_ Color"), 5, Options{Strategy: K})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TopK(d, sc.MustParse("Model _||_ Color"), 5, Options{Strategy: K})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("non-deterministic result: %v vs %v", a.Rows, b.Rows)
		}
	}
}

func TestDeltaGMatchesRecompute(t *testing.T) {
	// The O(1) delta must agree with full recomputation after the removal.
	d := figure2()
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	st, err := newGStratum(context.Background(), d, sc.MustParse("Model _||_ Color"), rows, "", Options{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.kx; i++ {
		for j := 0; j < st.ky; j++ {
			if st.counts[st.cell(i, j)] == 0 {
				continue
			}
			want := st.g + st.deltaG(i, j)
			gBefore := st.g
			row := st.remove(i, j)
			if math.Abs(st.g-want) > 1e-9 {
				t.Fatalf("delta mismatch at (%d,%d): got %v want %v", i, j, st.g, want)
			}
			if math.Abs(st.computeG()-st.g) > 1e-9 {
				t.Fatalf("incremental G=%v diverged from recomputed %v", st.g, st.computeG())
			}
			_ = row
			_ = gBefore
		}
	}
}
