package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestPermutationGTestAgreesWithAsymptotic(t *testing.T) {
	// On a medium-sized dependent sample the Monte-Carlo p-value should be
	// in the same regime as the chi-squared approximation.
	rng := rand.New(rand.NewSource(21))
	n := 200
	x := make([]int32, n)
	y := make([]int32, n)
	for i := range x {
		x[i] = int32(rng.Intn(3))
		if rng.Float64() < 0.4 {
			y[i] = x[i]
		} else {
			y[i] = int32(rng.Intn(3))
		}
	}
	exact, err := PermutationGTest(x, y, 3, 3, 999, rng)
	if err != nil {
		t.Fatal(err)
	}
	asym, err := GTest(TableFromCodes(x, y, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if exact.Statistic != asym.Statistic {
		t.Errorf("observed statistics differ: %v vs %v", exact.Statistic, asym.Statistic)
	}
	if asym.P < 0.001 && exact.P > 0.05 {
		t.Errorf("exact p=%v wildly disagrees with asymptotic p=%v", exact.P, asym.P)
	}
}

func TestPermutationGTestNull(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 60
	x := make([]int32, n)
	y := make([]int32, n)
	for i := range x {
		x[i] = int32(rng.Intn(2))
		y[i] = int32(rng.Intn(2))
	}
	res, err := PermutationGTest(x, y, 2, 2, 499, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.P <= 0 || res.P > 1 {
		t.Errorf("p out of range: %v", res.P)
	}
}

func TestPermutationGTestErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := PermutationGTest([]int32{0}, []int32{0, 1}, 1, 2, 10, rng); err == nil {
		t.Error("want error on length mismatch")
	}
	if _, err := PermutationGTest([]int32{0, 1}, []int32{0, 1}, 2, 2, 0, rng); err == nil {
		t.Error("want error on zero iterations")
	}
}

func TestPermutationKendallSmallSample(t *testing.T) {
	// The whole point of the exact test: a small sample where the Gaussian
	// approximation is flagged unreliable.
	rng := rand.New(rand.NewSource(23))
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	res, err := PermutationKendallTest(x, y, 999, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 1 {
		t.Errorf("|tau| = %v", res.Statistic)
	}
	// Perfect agreement on n=8: true exact p = 2/8! which is tiny; the MC
	// estimate is bounded below by 1/(iters+1).
	if res.P > 0.01 {
		t.Errorf("exact p = %v, want < 0.01", res.P)
	}
}

func TestPermutationKendallNullUniformish(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x := make([]float64, 30)
	y := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	res, err := PermutationKendallTest(x, y, 299, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 1.0/300 || res.P > 1 {
		t.Errorf("p out of range: %v", res.P)
	}
}

func TestPermutationKendallErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := PermutationKendallTest([]float64{1}, []float64{1, 2}, 10, rng); err == nil {
		t.Error("want error on length mismatch")
	}
	if _, err := PermutationKendallTest([]float64{1, 2}, []float64{1, 2}, 0, rng); err == nil {
		t.Error("want error on zero iterations")
	}
	if _, err := PermutationKendallTest([]float64{1}, []float64{1}, 10, rng); err == nil {
		t.Error("want error propagated from Kendall on n<2")
	}
}

// TestPermutationKendallRanksOnce: shuffling the y ranks draws the same
// permutations as shuffling the y values, so the statistic and p keep
// their bits against a loop that shuffles the floats and calls Kendall.
func TestPermutationKendallRanksOnce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(60)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(5)) // heavy ties
			y[i] = math.Round(0.5*x[i]+rng.NormFloat64()) / 2
		}
		got, err := PermutationKendallTest(x, y, 300, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		want := permuteValues(t, x, y, 300, rand.New(rand.NewSource(seed)))
		if math.Float64bits(got.Statistic) != math.Float64bits(want.Statistic) ||
			math.Float64bits(got.P) != math.Float64bits(want.P) || got.N != want.N {
			t.Errorf("seed %d: %+v, shuffling values gives %+v", seed, got, want)
		}
	}
}

// permuteValues is PermutationKendallTest as a loop over the values: shuffle
// a copy of y and call Kendall on every permutation.
func permuteValues(t *testing.T, x, y []float64, iters int, rng *rand.Rand) TestResult {
	t.Helper()
	k, err := Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	obs := math.Abs(k.TauB)
	perm := append([]float64(nil), y...)
	ge := 0
	for it := 0; it < iters; it++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		pk, err := Kendall(x, perm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pk.TauB) >= obs-1e-12 {
			ge++
		}
	}
	return TestResult{Statistic: obs, P: float64(ge+1) / float64(iters+1), N: len(x)}
}

func TestCombineGSumsStatAndDF(t *testing.T) {
	strata := []TestResult{
		{Statistic: 3, DF: 1, N: 100},
		{Statistic: 5, DF: 2, N: 150},
		{Statistic: 99, DF: 0, N: 10}, // degenerate stratum must be skipped
	}
	c := CombineG(strata)
	if c.Statistic != 8 || c.DF != 3 {
		t.Errorf("combined stat=%v df=%d", c.Statistic, c.DF)
	}
	if c.N != 250 {
		t.Errorf("combined N=%d", c.N)
	}
	want := ChiSquared{K: 3}.Survival(8)
	if !approxEq(c.P, want, 1e-12) {
		t.Errorf("combined p=%v want %v", c.P, want)
	}
}

func TestCombineGAllDegenerate(t *testing.T) {
	c := CombineG([]TestResult{{Statistic: 1, DF: 0, N: 5}})
	if c.P != 1 || c.DF != 0 {
		t.Errorf("all-degenerate combine: p=%v df=%d", c.P, c.DF)
	}
}

func TestStoufferZ(t *testing.T) {
	// Two strata with equal weight and equal z: combined z = z*sqrt(2).
	z, p, err := StoufferZ([]float64{2, 2}, []int{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(z, 2*math.Sqrt2, 1e-12) {
		t.Errorf("z = %v, want 2*sqrt(2)", z)
	}
	if !approxEq(p, StdNormal.TwoSidedP(2*math.Sqrt2), 1e-12) {
		t.Errorf("p = %v", p)
	}
	// Opposite evidence cancels.
	z, p, _ = StoufferZ([]float64{3, -3}, []int{50, 50})
	if !approxEq(z, 0, 1e-12) || !approxEq(p, 1, 1e-12) {
		t.Errorf("cancel: z=%v p=%v", z, p)
	}
	if _, _, err := StoufferZ([]float64{1}, []int{1, 2}); err == nil {
		t.Error("want error on length mismatch")
	}
	if z, p, _ := StoufferZ(nil, nil); z != 0 || p != 1 {
		t.Errorf("empty: z=%v p=%v", z, p)
	}
}

func TestBenjaminiHochberg(t *testing.T) {
	// Classic worked example: m=5, q=0.25.
	ps := []float64{0.01, 0.04, 0.03, 0.005, 0.8}
	rej, err := BenjaminiHochberg(ps, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted: 0.005, 0.01, 0.03, 0.04, 0.8 vs thresholds
	// 0.05, 0.10, 0.15, 0.20, 0.25: largest rank meeting p <= qk/m is
	// rank 4 (0.04 <= 0.20), so the four smallest are rejected.
	want := []bool{true, true, true, true, false}
	for i := range want {
		if rej[i] != want[i] {
			t.Errorf("reject[%d] = %v, want %v", i, rej[i], want[i])
		}
	}
}

func TestBenjaminiHochbergStepUp(t *testing.T) {
	// The step-up property: a middle p-value above its own threshold is
	// still rejected when a later rank qualifies.
	ps := []float64{0.01, 0.049, 0.05}
	rej, err := BenjaminiHochberg(ps, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Thresholds: 0.0167, 0.0333, 0.05. Rank 3 (0.05 <= 0.05) qualifies,
	// so all three are rejected even though 0.049 > 0.0333.
	for i, r := range rej {
		if !r {
			t.Errorf("reject[%d] = false, want true (step-up)", i)
		}
	}
}

func TestBenjaminiHochbergNoneRejected(t *testing.T) {
	rej, err := BenjaminiHochberg([]float64{0.5, 0.9, 0.7}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rej {
		if r {
			t.Errorf("reject[%d] = true on null p-values", i)
		}
	}
	empty, err := BenjaminiHochberg(nil, 0.05)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty family: %v %v", empty, err)
	}
}

func TestBenjaminiHochbergErrors(t *testing.T) {
	if _, err := BenjaminiHochberg([]float64{0.5}, -1); err == nil {
		t.Error("want error for bad q")
	}
	if _, err := BenjaminiHochberg([]float64{1.5}, 0.05); err == nil {
		t.Error("want error for p out of range")
	}
	if _, err := BenjaminiHochberg([]float64{math.NaN()}, 0.05); err == nil {
		t.Error("want error for NaN p")
	}
}

func TestBenjaminiHochbergFDRSimulation(t *testing.T) {
	// Under a global null, the probability of any rejection is <= q; with
	// mixed true/false nulls the realized FDR stays near q.
	rng := rand.New(rand.NewSource(33))
	trials := 300
	totalFalse, totalRej := 0, 0
	for tr := 0; tr < trials; tr++ {
		m := 20
		ps := make([]float64, m)
		isNull := make([]bool, m)
		for i := range ps {
			if i < 10 {
				ps[i] = rng.Float64() * 1e-4 // strong signals
			} else {
				ps[i] = rng.Float64()
				isNull[i] = true
			}
		}
		rej, err := BenjaminiHochberg(ps, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rej {
			if r {
				totalRej++
				if isNull[i] {
					totalFalse++
				}
			}
		}
	}
	if totalRej == 0 {
		t.Fatal("no rejections at all")
	}
	fdr := float64(totalFalse) / float64(totalRej)
	if fdr > 0.15 {
		t.Errorf("realized FDR %v exceeds q=0.1 margin", fdr)
	}
}

func TestFisherCombine(t *testing.T) {
	// -2 ln(0.05) twice = 11.98..., chi2 df=4.
	stat, p, err := FisherCombine([]float64{0.05, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	want := -4 * math.Log(0.05)
	if !approxEq(stat, want, 1e-12) {
		t.Errorf("stat = %v, want %v", stat, want)
	}
	if !approxEq(p, ChiSquared{K: 4}.Survival(want), 1e-12) {
		t.Errorf("p = %v", p)
	}
	if _, p, _ := FisherCombine(nil); p != 1 {
		t.Errorf("empty combine p=%v", p)
	}
	if _, _, err := FisherCombine([]float64{1.5}); err == nil {
		t.Error("want error for p > 1")
	}
	if _, p, err := FisherCombine([]float64{0}); err != nil || p >= 1e-100 {
		t.Errorf("zero p should clamp, got p=%v err=%v", p, err)
	}
}
