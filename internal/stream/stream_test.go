package stream

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"scoded/internal/stats"
)

func TestCategoricalMonitorMatchesBatchG(t *testing.T) {
	// The incrementally maintained G must equal the batch G at every step.
	rng := rand.New(rand.NewSource(1))
	m, err := NewCategoricalMonitor(0.05, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	var xs, ys []int32
	levels := []string{"a", "b", "c"}
	for step := 0; step < 300; step++ {
		xi, yi := rng.Intn(3), rng.Intn(3)
		m.Insert(levels[xi], levels[yi])
		xs = append(xs, int32(xi))
		ys = append(ys, int32(yi))
		want := stats.GStatistic(stats.TableFromCodes(xs, ys, 3, 3))
		if math.Abs(m.G()-want) > 1e-8*(1+want) {
			t.Fatalf("step %d: incremental G=%v, batch G=%v", step, m.G(), want)
		}
	}
	v := m.Verdict()
	batch, err := stats.GTest(stats.TableFromCodes(xs, ys, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.P-batch.P) > 1e-9 {
		t.Errorf("p mismatch: %v vs %v", v.P, batch.P)
	}
	if v.DF != batch.DF {
		t.Errorf("df mismatch: %d vs %d", v.DF, batch.DF)
	}
}

func TestCategoricalMonitorRemove(t *testing.T) {
	m, _ := NewCategoricalMonitor(0.05, false, 0)
	m.Insert("a", "p")
	m.Insert("a", "q")
	m.Insert("b", "p")
	if err := m.Remove("a", "q"); err != nil {
		t.Fatal(err)
	}
	if m.N() != 2 {
		t.Errorf("N = %d", m.N())
	}
	if err := m.Remove("a", "q"); err == nil {
		t.Error("removing an absent record should error")
	}
	// Removing everything returns to the empty state.
	m.Remove("a", "p")
	m.Remove("b", "p")
	if m.N() != 0 || m.G() != 0 {
		t.Errorf("empty monitor: n=%d g=%v", m.N(), m.G())
	}
	v := m.Verdict()
	if v.P != 1 || v.Violated {
		t.Errorf("empty verdict: %+v", v)
	}
}

func TestCategoricalMonitorWindowEviction(t *testing.T) {
	m, _ := NewCategoricalMonitor(0.05, false, 10)
	// First 10 records are perfectly dependent, next 10 independent-ish;
	// after the window slides the early dependence must be forgotten.
	for i := 0; i < 10; i++ {
		m.Insert("a", "p")
	}
	if m.N() != 10 {
		t.Fatalf("N = %d", m.N())
	}
	for i := 0; i < 10; i++ {
		m.Insert([]string{"a", "b"}[i%2], []string{"p", "q"}[(i/2)%2])
	}
	if m.N() != 10 {
		t.Errorf("window should cap N at 10, got %d", m.N())
	}
	// The monitor now contains only the second batch.
	if m.rowMarg["a"]+m.rowMarg["b"] != 10 {
		t.Errorf("marginals out of sync: %v", m.rowMarg)
	}
	if err := m.Remove("a", "p"); err == nil {
		t.Error("Remove must be rejected on a windowed monitor")
	}
}

func TestCategoricalMonitorDetectsDriftingDependence(t *testing.T) {
	// ML-deployment scenario: training-time independence holds, then the
	// stream drifts into dependence; the monitor should flip to violated.
	rng := rand.New(rand.NewSource(2))
	m, _ := NewCategoricalMonitor(0.01, false, 500)
	for i := 0; i < 500; i++ {
		m.Insert([]string{"a", "b"}[rng.Intn(2)], []string{"p", "q"}[rng.Intn(2)])
	}
	if m.Verdict().Violated {
		t.Fatalf("independent phase flagged (p=%v)", m.Verdict().P)
	}
	for i := 0; i < 500; i++ {
		x := []string{"a", "b"}[rng.Intn(2)]
		y := "p"
		if x == "b" {
			y = "q"
		}
		m.Insert(x, y)
	}
	if !m.Verdict().Violated {
		t.Errorf("dependent phase not flagged (p=%v)", m.Verdict().P)
	}
}

func TestNumericMonitorMatchesBatchKendall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewNumericMonitor(0.05, false, 0)
		if err != nil {
			return false
		}
		var xs, ys []float64
		for step := 0; step < 60; step++ {
			x := float64(rng.Intn(6)) // heavy ties
			y := float64(rng.Intn(6))
			m.Insert(x, y)
			xs = append(xs, x)
			ys = append(ys, y)
		}
		batch, err := stats.Kendall(xs, ys)
		if err != nil {
			return false
		}
		if m.PairSum() != float64(batch.Concordant-batch.Discordant) {
			return false
		}
		if math.Abs(m.TauB()-batch.TauB) > 1e-12 {
			return false
		}
		v := m.Verdict()
		return math.Abs(v.P-batch.P) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNumericMonitorWindowMatchesBatchOnSuffix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const window = 40
	m, _ := NewNumericMonitor(0.05, true, window)
	var xs, ys []float64
	for step := 0; step < 150; step++ {
		x := rng.NormFloat64()
		y := x + rng.NormFloat64()
		m.Insert(x, y)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	sx := xs[len(xs)-window:]
	sy := ys[len(ys)-window:]
	batch, err := stats.Kendall(sx, sy)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != window {
		t.Fatalf("N = %d", m.N())
	}
	if m.PairSum() != float64(batch.Concordant-batch.Discordant) {
		t.Errorf("windowed pair sum %v, batch %v", m.PairSum(), batch.Concordant-batch.Discordant)
	}
	if math.Abs(m.Verdict().P-batch.P) > 1e-12 {
		t.Errorf("windowed p %v, batch %v", m.Verdict().P, batch.P)
	}
}

func TestNumericMonitorDSCSemantics(t *testing.T) {
	// A DSC monitor over a dependent stream stays satisfied, then a run of
	// constant (imputed) values severs the dependence and violates it.
	rng := rand.New(rand.NewSource(4))
	m, _ := NewNumericMonitor(0.3, true, 100)
	for i := 0; i < 100; i++ {
		x := rng.NormFloat64()
		m.Insert(x, 2*x+0.2*rng.NormFloat64())
	}
	if m.Verdict().Violated {
		t.Fatalf("dependent stream flagged (p=%v)", m.Verdict().P)
	}
	for i := 0; i < 100; i++ {
		m.Insert(rng.NormFloat64(), 0) // constant imputation
	}
	if !m.Verdict().Violated {
		t.Errorf("imputed stream not flagged (p=%v, tau=%v)", m.Verdict().P, m.TauB())
	}
}

func TestNumericMonitorEdgeCases(t *testing.T) {
	m, _ := NewNumericMonitor(0.05, false, 0)
	v := m.Verdict()
	if v.P != 1 {
		t.Errorf("empty monitor p = %v", v.P)
	}
	m.Insert(1, 1)
	if v := m.Verdict(); v.P != 1 {
		t.Errorf("single point p = %v", v.P)
	}
	// All-tied data has zero variance.
	m.Insert(1, 1)
	m.Insert(1, 1)
	if v := m.Verdict(); v.P != 1 {
		t.Errorf("degenerate p = %v", v.P)
	}
}

func TestMonitorConstructorValidation(t *testing.T) {
	if _, err := NewCategoricalMonitor(-1, false, 0); err == nil {
		t.Error("want error for bad alpha")
	}
	if _, err := NewCategoricalMonitor(0.05, false, -1); err == nil {
		t.Error("want error for negative window")
	}
	if _, err := NewNumericMonitor(2, false, 0); err == nil {
		t.Error("want error for bad alpha")
	}
	if _, err := NewNumericMonitor(0.05, false, -1); err == nil {
		t.Error("want error for negative window")
	}
	if _, err := NewConditionalMonitor(7, false, 0, 0); err == nil {
		t.Error("want error for bad alpha")
	}
}

func TestConditionalMonitorStrata(t *testing.T) {
	// Dependence inside each stratum; the combined verdict should satisfy
	// the DSC, and a drifted stratum alone should not mask it.
	rng := rand.New(rand.NewSource(5))
	m, err := NewConditionalMonitor(0.3, true, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		z := []string{"s1", "s2"}[rng.Intn(2)]
		x := []string{"a", "b"}[rng.Intn(2)]
		y := "p"
		if x == "b" {
			y = "q"
		}
		if rng.Float64() < 0.2 {
			y = []string{"p", "q"}[rng.Intn(2)]
		}
		m.Insert(z, x, y)
	}
	v := m.Verdict()
	if v.Violated {
		t.Errorf("dependent strata flagged (p=%v)", v.P)
	}
	if v.N != 600 {
		t.Errorf("N = %d", v.N)
	}

	// An all-independent monitor violates the DSC.
	m2, _ := NewConditionalMonitor(0.3, true, 0, 5)
	for i := 0; i < 600; i++ {
		m2.Insert("s1", []string{"a", "b"}[rng.Intn(2)], []string{"p", "q"}[rng.Intn(2)])
	}
	if !m2.Verdict().Violated {
		t.Errorf("independent stream should violate the DSC (p=%v)", m2.Verdict().P)
	}
}

func TestConditionalNumericMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, err := NewConditionalNumericMonitor(0.3, true, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Dependence within each of two strata (with opposite slopes: the
	// |z| combination must not cancel — each stratum's statistic enters
	// with its own sign, so verify same-sign strata here).
	for i := 0; i < 400; i++ {
		z := []string{"s1", "s2"}[rng.Intn(2)]
		x := rng.NormFloat64()
		m.Insert(z, x, x+0.5*rng.NormFloat64())
	}
	v := m.Verdict()
	if v.Violated {
		t.Errorf("dependent strata flagged (p=%v)", v.P)
	}
	if v.N != 400 {
		t.Errorf("N = %d", v.N)
	}

	// Independent strata violate the DSC.
	m2, _ := NewConditionalNumericMonitor(0.3, true, 0, 5)
	for i := 0; i < 400; i++ {
		m2.Insert("s1", rng.NormFloat64(), rng.NormFloat64())
	}
	if !m2.Verdict().Violated {
		t.Errorf("independent stream should violate the DSC (p=%v)", m2.Verdict().P)
	}

	// Too-small strata are excluded.
	m3, _ := NewConditionalNumericMonitor(0.05, false, 0, 10)
	for i := 0; i < 5; i++ {
		m3.Insert("tiny", float64(i), float64(i))
	}
	if v := m3.Verdict(); v.P != 1 || v.Violated {
		t.Errorf("small stratum should be excluded: %+v", v)
	}
	if _, err := NewConditionalNumericMonitor(-1, false, 0, 0); err == nil {
		t.Error("want error for bad alpha")
	}
}

func TestConditionalNumericMonitorMatchesBatchStouffer(t *testing.T) {
	// The combined z must equal the batch detector's Stouffer combination
	// on identical per-stratum data.
	rng := rand.New(rand.NewSource(9))
	m, _ := NewConditionalNumericMonitor(0.05, false, 0, 5)
	strata := map[string][][2]float64{}
	for i := 0; i < 300; i++ {
		z := []string{"a", "b", "c"}[rng.Intn(3)]
		x := rng.NormFloat64()
		y := 0.3*x + rng.NormFloat64()
		m.Insert(z, x, y)
		strata[z] = append(strata[z], [2]float64{x, y})
	}
	var zs []float64
	var ns []int
	for _, key := range []string{"a", "b", "c"} {
		pts := strata[key]
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p[0], p[1]
		}
		k, err := stats.Kendall(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		zs = append(zs, k.Z)
		ns = append(ns, len(pts))
	}
	wantZ, wantP, err := stats.StoufferZ(zs, ns)
	if err != nil {
		t.Fatal(err)
	}
	v := m.Verdict()
	if math.Abs(v.Statistic-wantZ) > 1e-9 || math.Abs(v.P-wantP) > 1e-9 {
		t.Errorf("monitor z=%v p=%v, batch z=%v p=%v", v.Statistic, v.P, wantZ, wantP)
	}
}

// TestConditionalVerdictSumsStrataInKeyOrder: both conditional monitors
// combine their strata in sorted key order, as the batch detector does, so
// repeated verdicts answer identical bits, equal to a reference combined
// in that order.
func TestConditionalVerdictSumsStrataInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	num, _ := NewConditionalNumericMonitor(0.05, false, 0, 5)
	cat, _ := NewConditionalMonitor(0.05, false, 0, 5)
	for i := 0; i < 20000; i++ {
		z := fmt.Sprintf("s%02d", rng.Intn(40))
		x := rng.NormFloat64()
		num.Insert(z, x, 0.1*x+rng.NormFloat64())
		cat.Insert(z, fmt.Sprint(rng.Intn(3)), fmt.Sprint(rng.Intn(4)))
	}
	keys := make([]string, 0, len(num.strata))
	for k := range num.strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var zs []float64
	var ns []int
	var parts []stats.TestResult
	for _, k := range keys {
		sm := num.strata[k]
		zs = append(zs, sm.Verdict().Statistic)
		ns = append(ns, sm.N())
		cm := cat.strata[k]
		parts = append(parts, stats.TestResult{Statistic: cm.G(), DF: (len(cm.rowMarg) - 1) * (len(cm.colMarg) - 1), N: cm.n})
	}
	wantZ, _, err := stats.StoufferZ(zs, ns)
	if err != nil {
		t.Fatal(err)
	}
	wantG := stats.CombineG(parts)
	for call := 0; call < 200; call++ {
		if got := num.Verdict().Statistic; math.Float64bits(got) != math.Float64bits(wantZ) {
			t.Fatalf("numeric call %d: z = %v (%x), want %v (%x)", call, got, math.Float64bits(got), wantZ, math.Float64bits(wantZ))
		}
		if got := cat.Verdict(); math.Float64bits(got.Statistic) != math.Float64bits(wantG.Statistic) || got.DF != wantG.DF {
			t.Fatalf("categorical call %d: G = %v df %d, want %v df %d", call, got.Statistic, got.DF, wantG.Statistic, wantG.DF)
		}
	}
}

func TestConditionalMonitorSmallStrataExcluded(t *testing.T) {
	m, _ := NewConditionalMonitor(0.05, false, 0, 5)
	// Three tiny strata, each below the minimum: the verdict must be
	// evidence-free.
	for i := 0; i < 4; i++ {
		m.Insert("s1", "a", "p")
		m.Insert("s2", "b", "q")
	}
	v := m.Verdict()
	if v.P != 1 || v.DF != 0 {
		t.Errorf("small strata should be excluded: %+v", v)
	}
}

func TestTieTrackerAggregates(t *testing.T) {
	tr := newTieTracker()
	for _, v := range []float64{1, 1, 1, 2, 2, 3} {
		tr.add(v)
	}
	// Groups: 3 and 2. pairs = 3 + 1 = 4; s1 = 6 + 2 = 8;
	// s2 = 6 + 0 = 6; vT = 3·2·11 + 2·1·9 = 84.
	if tr.pairs != 4 || tr.s1 != 8 || tr.s2 != 6 || tr.vT != 84 {
		t.Errorf("aggregates = %+v", tr)
	}
	tr.remove(1)
	// Groups now 2 and 2: pairs 2, s1 4, s2 0, vT 36.
	if tr.pairs != 2 || tr.s1 != 4 || tr.s2 != 0 || tr.vT != 36 {
		t.Errorf("after remove: %+v", tr)
	}
	tr.remove(3) // removing a singleton leaves aggregates unchanged
	if tr.pairs != 2 {
		t.Errorf("singleton removal changed pairs: %+v", tr)
	}
}

func TestCategoricalMonitorFullWindowTurnover(t *testing.T) {
	// Slide the window through three complete turnovers of its content.
	// After each one the incrementally maintained G — now the survivor of
	// dozens of add/remove deltas — must agree with a from-scratch
	// recomputation over exactly the resident records, and the verdict
	// must match a fresh monitor fed only those records.
	const w = 32
	rng := rand.New(rand.NewSource(11))
	m, _ := NewCategoricalMonitor(0.05, false, w)
	levels := []string{"a", "b", "c", "d"}
	var hx, hy []string // full history
	for step := 0; step < 3*w; step++ {
		x := levels[rng.Intn(4)]
		y := levels[rng.Intn(4)]
		if step >= w && step < 2*w {
			y = x // a dependent middle phase, fully evicted by the end
		}
		m.Insert(x, y)
		hx = append(hx, x)
		hy = append(hy, y)

		if m.N() > w {
			t.Fatalf("step %d: window overflow N=%d", step, m.N())
		}
		// From-scratch recomputation over the resident suffix.
		lo := 0
		if len(hx) > w {
			lo = len(hx) - w
		}
		fresh, _ := NewCategoricalMonitor(0.05, false, 0)
		for i := lo; i < len(hx); i++ {
			fresh.Insert(hx[i], hy[i])
		}
		if math.Abs(m.G()-fresh.G()) > 1e-8*(1+fresh.G()) {
			t.Fatalf("step %d: incremental G=%v, from-scratch G=%v", step, m.G(), fresh.G())
		}
		mv, fv := m.Verdict(), fresh.Verdict()
		if math.Abs(mv.P-fv.P) > 1e-9 || mv.DF != fv.DF || mv.Violated != fv.Violated {
			t.Fatalf("step %d: verdict %+v, from-scratch %+v", step, mv, fv)
		}
	}
	// The dependent middle phase is long gone: the final window holds only
	// independent draws.
	if v := m.Verdict(); v.Violated {
		t.Errorf("evicted dependence still visible: %+v", v)
	}
}

// TestCategoricalAnchorIgnoresMapOrder feeds two monitors the same
// records and requires G's bits to agree after every 256 records. The
// anchor re-sums three count maps; summed in map iteration order, which
// differs between two maps with the same contents, the last bits of G
// drifted apart between the monitors.
func TestCategoricalAnchorIgnoresMapOrder(t *testing.T) {
	const window, records, levels = 10000, 40000, 8
	names := make([]string, levels)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, _ := NewCategoricalMonitor(0.05, false, window)
		b, _ := NewCategoricalMonitor(0.05, false, window)
		for i := 0; i < records; i++ {
			x, y := rng.Intn(levels), rng.Intn(levels)
			if rng.Float64() < 0.25 {
				y = x
			}
			a.Insert(names[x], names[y])
			b.Insert(names[x], names[y])
			if i%256 != 255 {
				continue
			}
			if ga, gb := math.Float64bits(a.G()), math.Float64bits(b.G()); ga != gb {
				t.Fatalf("seed %d, record %d: G bits %#x and %#x differ for the same records", seed, i+1, ga, gb)
			}
		}
	}
}

func TestCategoricalMonitorEvictToDegenerateWindow(t *testing.T) {
	// Evict the entire varied content and replace it with a single
	// repeated pair: df collapses to 0 and the verdict must be the
	// no-evidence p=1, not a stale statistic.
	const w = 8
	m, _ := NewCategoricalMonitor(0.05, false, w)
	for i := 0; i < w; i++ {
		m.Insert([]string{"a", "b"}[i%2], []string{"p", "q"}[(i/2)%2])
	}
	for i := 0; i < w; i++ {
		m.Insert("only", "one")
	}
	if m.N() != w {
		t.Fatalf("N=%d", m.N())
	}
	v := m.Verdict()
	if v.DF != 0 || v.P != 1 || v.Violated {
		t.Errorf("degenerate window verdict: %+v", v)
	}
	if g := m.G(); math.Abs(g) > 1e-9 {
		t.Errorf("G should collapse to 0 after turnover, got %v", g)
	}
	// Marginals must contain only the surviving value.
	if len(m.rowMarg) != 1 || len(m.colMarg) != 1 || m.rowMarg["only"] != w {
		t.Errorf("stale marginals after full eviction: %v / %v", m.rowMarg, m.colMarg)
	}
}

func TestNumericMonitorFullWindowTurnover(t *testing.T) {
	// Same discipline for the numeric monitor: after the window content
	// has fully turned over (twice), the pair sum, tau-b, and verdict must
	// equal a from-scratch monitor over the resident suffix.
	const w = 24
	rng := rand.New(rand.NewSource(12))
	m, _ := NewNumericMonitor(0.05, false, w)
	var hx, hy []float64
	for step := 0; step < 3*w; step++ {
		x := rng.NormFloat64()
		y := rng.NormFloat64()
		if step >= w && step < 2*w {
			y = x // dependent middle phase, fully evicted by the end
		}
		if step%5 == 0 && step > 0 {
			x = hx[step-1] // inject ties so the tie trackers are exercised
		}
		m.Insert(x, y)
		hx = append(hx, x)
		hy = append(hy, y)

		lo := 0
		if len(hx) > w {
			lo = len(hx) - w
		}
		fresh, _ := NewNumericMonitor(0.05, false, 0)
		for i := lo; i < len(hx); i++ {
			fresh.Insert(hx[i], hy[i])
		}
		if math.Abs(m.PairSum()-fresh.PairSum()) > 1e-9 {
			t.Fatalf("step %d: pair sum %v, from-scratch %v", step, m.PairSum(), fresh.PairSum())
		}
		if math.Abs(m.TauB()-fresh.TauB()) > 1e-9 {
			t.Fatalf("step %d: tau-b %v, from-scratch %v", step, m.TauB(), fresh.TauB())
		}
		mv, fv := m.Verdict(), fresh.Verdict()
		if math.Abs(mv.Statistic-fv.Statistic) > 1e-9 || math.Abs(mv.P-fv.P) > 1e-9 {
			t.Fatalf("step %d: verdict %+v, from-scratch %+v", step, mv, fv)
		}
	}
	if v := m.Verdict(); v.Violated {
		t.Errorf("evicted dependence still visible: %+v", v)
	}
}

func TestNumericMonitorEvictToConstantWindow(t *testing.T) {
	// Turn the whole window over to constant values: every pair ties, the
	// Kendall variance degenerates, and the verdict must fall back to the
	// no-evidence p=1 rather than dividing by zero.
	const w = 12
	m, _ := NewNumericMonitor(0.05, false, w)
	for i := 0; i < w; i++ {
		m.Insert(float64(i), float64(i)) // perfectly dependent
	}
	if v := m.Verdict(); !v.Violated {
		t.Fatalf("monotone window should violate, got %+v", v)
	}
	for i := 0; i < w; i++ {
		m.Insert(1, 1)
	}
	if m.N() != w {
		t.Fatalf("N=%d", m.N())
	}
	if m.PairSum() != 0 {
		t.Errorf("all-tied pair sum = %v", m.PairSum())
	}
	v := m.Verdict()
	if v.P != 1 || v.Violated || v.Statistic != 0 {
		t.Errorf("constant window verdict: %+v", v)
	}
}
