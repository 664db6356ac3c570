package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKendallPerfectAgreement(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	k, err := Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if k.TauA != 1 || k.TauB != 1 {
		t.Errorf("tau = %v/%v, want 1", k.TauA, k.TauB)
	}
	if k.Concordant != 10 || k.Discordant != 0 {
		t.Errorf("nc=%d nd=%d", k.Concordant, k.Discordant)
	}
}

func TestKendallPerfectDisagreement(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{4, 3, 2, 1}
	k, err := Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if k.TauA != -1 {
		t.Errorf("tauA = %v, want -1", k.TauA)
	}
	if k.Discordant != 6 {
		t.Errorf("nd = %d, want 6", k.Discordant)
	}
}

// scipy.stats.kendalltau reference: x=[12,2,1,12,2], y=[1,4,7,1,0]
// gives tau-b = -0.47140452079103173, p = 0.2827454599327748.
func TestKendallScipyReference(t *testing.T) {
	x := []float64{12, 2, 1, 12, 2}
	y := []float64{1, 4, 7, 1, 0}
	k, err := Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(k.TauB, -0.47140452079103173, 1e-12) {
		t.Errorf("tauB = %v", k.TauB)
	}
	if !approxEq(k.P, 0.2827454599327748, 1e-9) {
		t.Errorf("p = %v", k.P)
	}
	if !k.Approximate {
		t.Error("n=5 should be flagged Approximate")
	}
}

func TestKendallConstantColumn(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	y := []float64{1, 2, 3, 4}
	k, err := Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if k.TauB != 0 || k.P != 1 {
		t.Errorf("constant column: tauB=%v p=%v, want 0 and 1", k.TauB, k.P)
	}
}

func TestKendallErrors(t *testing.T) {
	if _, err := Kendall([]float64{1}, []float64{1}); err == nil {
		t.Error("want error for n<2")
	}
	if _, err := Kendall([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := Kendall([]float64{1, math.NaN()}, []float64{1, 2}); err == nil {
		t.Error("want error for NaN input")
	}
}

// kendallDatasets are adversarial samples: ties everywhere, all-tied
// columns, signed zeros, infinities, tiny samples, and random data.
func kendallDatasets(rng *rand.Rand) map[string][2][]float64 {
	mk := func(n int, gen func(i int) (float64, float64)) [2][]float64 {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = gen(i)
		}
		return [2][]float64{x, y}
	}
	return map[string][2][]float64{
		"random": mk(200, func(i int) (float64, float64) {
			return rng.NormFloat64(), rng.NormFloat64()
		}),
		"heavy-ties": mk(150, func(i int) (float64, float64) {
			return float64(rng.Intn(4)), float64(rng.Intn(3))
		}),
		"all-ties": mk(80, func(i int) (float64, float64) {
			return 3.5, 3.5
		}),
		"constant-x": mk(64, func(i int) (float64, float64) {
			return 7, rng.NormFloat64()
		}),
		"signed-zero": mk(96, func(i int) (float64, float64) {
			vals := []float64{math.Copysign(0, -1), 0, 1, -1}
			return vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
		}),
		"infinities": mk(72, func(i int) (float64, float64) {
			vals := []float64{math.Inf(-1), -2, 0, 2, math.Inf(1)}
			return vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
		}),
		"monotone": mk(100, func(i int) (float64, float64) {
			return float64(i), float64(i) * 2
		}),
		"two-rows": mk(2, func(i int) (float64, float64) {
			return float64(i), float64(1 - i)
		}),
		"small": mk(7, func(i int) (float64, float64) {
			return float64(i % 3), float64(i % 2)
		}),
		// A pair tied at +Inf is a tie on x, not a discordant pair:
		// Inf-Inf is NaN, so a difference cannot classify it.
		"tied-infinity": {{math.Inf(1), math.Inf(1), 1}, {1, 2, 3}},
	}
}

// matchesNaive reports whether Kendall agrees with the O(n^2) definition
// on one sample: the same integer counts, the same bits of TauA and TauB,
// and, whenever tau-b is defined, the same bits of Z and P. Both sides end
// in kendallZPFromTies over the same tie groups, so nothing short of bit
// equality is right.
func matchesNaive(t *testing.T, name string, x, y []float64) bool {
	t.Helper()
	fast, err := Kendall(x, y)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return false
	}
	slow := KendallNaive(x, y)
	if fast.Concordant != slow.Concordant || fast.Discordant != slow.Discordant ||
		fast.TiesX != slow.TiesX || fast.TiesY != slow.TiesY || fast.TiesXY != slow.TiesXY ||
		fast.N != slow.N {
		t.Errorf("%s: counts %+v, naive %+v", name, fast, slow)
		return false
	}
	floats := [][2]float64{{fast.TauA, slow.TauA}, {fast.TauB, slow.TauB}}
	if n0 := int64(fast.N) * int64(fast.N-1) / 2; fast.TiesX < n0 && fast.TiesY < n0 {
		floats = append(floats, [2]float64{fast.Z, slow.Z}, [2]float64{fast.P, slow.P})
	}
	for _, f := range floats {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Errorf("%s: floats %+v, naive %+v", name, fast, slow)
			return false
		}
	}
	return true
}

// Knight's algorithm must agree with the O(n^2) definition bit for bit, tie
// counts included, on the adversarial datasets and on random data with
// many ties.
func TestKendallMatchesNaive(t *testing.T) {
	for name, d := range kendallDatasets(rand.New(rand.NewSource(11))) {
		matchesNaive(t, name, d[0], d[1])
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(120) + 2
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			// Coarse grid forces heavy ties.
			x[i] = float64(rng.Intn(8))
			y[i] = float64(rng.Intn(8))
		}
		return matchesNaive(t, "random", x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestKendallHandComputedTauB pins Knight's algorithm (§4.3 of the paper,
// its ref. [36]) and the tie-corrected variance on a sample small enough to
// check by hand. The seven points, labelled in sorted order, are
//
//	P1 (1,1)  P2 (2,2)  P3 (2,2)  P4 (2,3)  P5 (3,2)  P6 (4,1)  P7 (5,4)
//
// x = 2 is a tie group of t = 3 (P2 P3 P4); y = 1 is a group of u = 2
// (P1 P6) and y = 2 one of u = 3 (P2 P3 P5); P2 and P3 tie on both. Of the
// n0 = C(7,2) = 21 pairs:
//
//	concordant   nc = 10  P1P2 P1P3 P1P4 P1P5 P1P7 P2P7 P3P7 P4P7 P5P7 P6P7
//	discordant   nd = 5   P2P6 P3P6 P4P5 P4P6 P5P6
//	tied on x    n1 = 3   P2P3 P2P4 P3P4          C(3,2)
//	tied on y    n2 = 4   P1P6 P2P3 P2P5 P3P5     C(2,2) + C(3,2)
//	tied on both n3 = 1   P2P3
//
// and 10 + 5 + 3 + 4 - 1 = 21. So tau-a = 5/21 and tau-b =
// 5/sqrt((21-3)(21-4)) = 5/sqrt(306). The variance of nc - nd:
//
//	v0 = n(n-1)(2n+5)                              = 7·6·19         = 798
//	vt = Σ t(t-1)(2t+5)                            = 3·2·11         = 66
//	vu = Σ u(u-1)(2u+5)                            = 2·1·9 + 3·2·11 = 84
//	v1 = Σ t(t-1) · Σ u(u-1) / (2n(n-1))           = 6·8 / 84       = 4/7
//	v2 = Σ t(t-1)(t-2) · Σ u(u-1)(u-2) / (9n(n-1)(n-2)) = 6·6 / 1890 = 2/105
//	var = (v0 - vt - vu)/18 + v1 + v2 = 36 + 4/7 + 2/105 = 3842/105
//
// so z = 5/sqrt(3842/105) ≈ 0.826582 and the two-sided p = erfc(z/√2) ≈
// 0.408474. The rows are given out of order, so the sort does its part.
func TestKendallHandComputedTauB(t *testing.T) {
	//           P6 P2 P7 P4 P1 P5 P3
	x := []float64{4, 2, 5, 2, 1, 3, 2}
	y := []float64{1, 2, 4, 3, 1, 2, 2}
	k, err := Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if k.N != 7 || k.Concordant != 10 || k.Discordant != 5 ||
		k.TiesX != 3 || k.TiesY != 4 || k.TiesXY != 1 {
		t.Fatalf("counts %+v, want n=7 nc=10 nd=5 n1=3 n2=4 n3=1", k)
	}
	wantZ := 5 / math.Sqrt(3842.0/105)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"tau-a", k.TauA, 5.0 / 21},
		{"tau-b", k.TauB, 5 / math.Sqrt(306)},
		{"z", k.Z, wantZ},
		{"p", k.P, math.Erfc(wantZ / math.Sqrt2)},
	} {
		if !approxEq(c.got, c.want, 1e-12) {
			t.Errorf("%s = %.17g, want %.17g", c.name, c.got, c.want)
		}
	}
	if !k.Approximate {
		t.Error("n=7 should be flagged Approximate")
	}
}

func TestKendallMatchesNaiveContinuous(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 2
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = 0.5*x[i] + rng.NormFloat64()
		}
		fast, err := Kendall(x, y)
		if err != nil {
			return false
		}
		slow := KendallNaive(x, y)
		return fast.Concordant == slow.Concordant && fast.Discordant == slow.Discordant &&
			approxEq(fast.TauA, slow.TauA, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestKendallNullCalibration(t *testing.T) {
	// Under independence with n=200 the Gaussian approximation should give a
	// ~5% rejection rate at alpha=0.05.
	rng := rand.New(rand.NewSource(7))
	trials, rejected := 400, 0
	for i := 0; i < trials; i++ {
		n := 200
		x := make([]float64, n)
		y := make([]float64, n)
		for j := range x {
			x[j] = rng.NormFloat64()
			y[j] = rng.NormFloat64()
		}
		k, err := Kendall(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if k.P < 0.05 {
			rejected++
		}
	}
	rate := float64(rejected) / float64(trials)
	if rate > 0.09 || rate < 0.01 {
		t.Errorf("null rejection rate = %v, want ~0.05", rate)
	}
}

func TestKendallDetectsMonotoneDependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		// Non-linear but monotone: tau should catch what Pearson's
		// linearity assumption can distort.
		y[i] = math.Exp(x[i]) + 0.1*rng.NormFloat64()
	}
	k, err := Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if k.P > 1e-10 {
		t.Errorf("p = %v for strong monotone dependence", k.P)
	}
	if k.TauB < 0.8 {
		t.Errorf("tauB = %v, want near 1", k.TauB)
	}
	if k.Approximate {
		t.Error("n=300 should not be flagged Approximate")
	}
}

func TestKendallTestAdapter(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{6, 5, 4, 3, 2, 1}
	k, err := Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	res := k.Test()
	if res.Statistic != 1 {
		t.Errorf("|tauB| = %v, want 1", res.Statistic)
	}
	if res.N != 6 {
		t.Errorf("N = %d", res.N)
	}
	if res.P != k.P || res.Approximate != k.Approximate {
		t.Errorf("Test() = %+v, want P %v and Approximate %v from %+v", res, k.P, k.Approximate, k)
	}
}

func TestCountInversions(t *testing.T) {
	cases := []struct {
		v    []float64
		want int64
	}{
		{[]float64{1, 2, 3}, 0},
		{[]float64{3, 2, 1}, 3},
		{[]float64{2, 1, 3}, 1},
		{[]float64{1, 1, 1}, 0}, // ties are not inversions
		{[]float64{2, 1, 1}, 2},
		{[]float64{}, 0},
		{[]float64{5}, 0},
	}
	for _, c := range cases {
		v := append([]float64(nil), c.v...)
		buf := make([]float64, len(v))
		if got := countInversions(v, buf); got != c.want {
			t.Errorf("inversions(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestTieGroupSizes(t *testing.T) {
	got := tieGroupSizes([]float64{3, 1, 3, 3, 2, 1})
	// sorted: 1 1 2 3 3 3 -> groups of size 2 and 3
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("tie groups = %v", got)
	}
	if g := tieGroupSizes([]float64{1, 2, 3}); len(g) != 0 {
		t.Errorf("no-tie input gave %v", g)
	}
}
