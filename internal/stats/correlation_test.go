package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPearsonPerfectLinear(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, p, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 || p != 0 {
		t.Errorf("r=%v p=%v, want 1 and 0", r, p)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, p, _ = Pearson(x, neg)
	if r != -1 || p != 0 {
		t.Errorf("r=%v p=%v, want -1 and 0", r, p)
	}
}

func TestPearsonConstantColumn(t *testing.T) {
	r, p, err := Pearson([]float64{1, 1, 1, 1}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 || p != 1 {
		t.Errorf("constant column: r=%v p=%v", r, p)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, _, err := Pearson([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("want error for n<3")
	}
	if _, _, err := Pearson([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Error("want error for length mismatch")
	}
	// Over NaN or an infinite value r is NaN; an error keeps that NaN
	// p-value out of the verdict and the FDR pass.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, _, err := Pearson([]float64{1, bad, 3, 4}, []float64{1, 2, 3, 4}); err == nil {
			t.Errorf("want error for x holding %v", bad)
		}
		if _, _, err := Pearson([]float64{1, 2, 3, 4}, []float64{1, 2, bad, 4}); err == nil {
			t.Errorf("want error for y holding %v", bad)
		}
	}
}

func TestSpearmanNonFinite(t *testing.T) {
	if _, _, err := Spearman([]float64{1, math.NaN(), 3, 4}, []float64{1, 2, 3, 4}); err == nil {
		t.Error("want error for NaN")
	}
	// ±Inf has a rank: the extremes.
	rho, _, err := Spearman([]float64{math.Inf(-1), 2, 3, math.Inf(1)}, []float64{1, 2, 3, 4})
	if err != nil || rho != 1 {
		t.Errorf("rho=%v err=%v, want 1 and no error", rho, err)
	}
}

// R reference: cor.test(c(1,2,3,4,5,6), c(2,1,4,3,7,5)) gives
// r = 0.8285714..., p = 0.0415...
func TestPearsonRReference(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{2, 1, 4, 3, 7, 5}
	r, p, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Verify r against the direct closed form computed independently here.
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
		syy += (y[i] - my) * (y[i] - my)
	}
	want := sxy / math.Sqrt(sxx*syy)
	if !approxEq(r, want, 1e-12) {
		t.Errorf("r = %v, want %v", r, want)
	}
	// p from t with 4 df.
	tt := r * math.Sqrt(4/(1-r*r))
	wantP := StudentsT{Nu: 4}.TwoSidedP(tt)
	if !approxEq(p, wantP, 1e-12) {
		t.Errorf("p = %v, want %v", p, wantP)
	}
}

func TestRanksMidRankTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ranks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRanksSumInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.Intn(10))
		}
		sum := 0.0
		for _, r := range Ranks(v) {
			sum += r
		}
		return approxEq(sum, float64(n)*float64(n+1)/2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpearmanIsMonotoneInvariant(t *testing.T) {
	// Spearman of (x, exp(x)) equals 1 because ranks are preserved.
	x := []float64{-2, -1, 0, 1, 2, 3}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = math.Exp(x[i])
	}
	rho, p, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if rho != 1 || p != 0 {
		t.Errorf("rho=%v p=%v, want 1 and 0", rho, p)
	}
}

func TestTestAdapters(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	pr, err := PearsonTest(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Statistic != 1 {
		t.Errorf("|r| = %v", pr.Statistic)
	}
	sr, err := SpearmanTest(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Statistic != 1 {
		t.Errorf("|rho| = %v", sr.Statistic)
	}
	if _, err := PearsonTest([]float64{1}, []float64{1}); err == nil {
		t.Error("adapter should propagate errors")
	}
	if _, err := SpearmanTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("adapter should propagate errors")
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	// Sample variance of this classic example is 32/7.
	if got := Variance(v); !approxEq(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if got := StdDev(v); !approxEq(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Mean of empty slice should panic")
		}
	}()
	Mean(nil)
}
