package drilldown

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scoded/internal/relation"
	"scoded/internal/sc"
)

// multiStratumRelation builds a randomized relation with a conditioning
// column and planted per-stratum structure, exercising both drill-down
// paths under heavy ties: categorical pairs (G) and integer-valued numeric
// pairs (tau). Ties are the adversarial case for the delta argmax — they
// force the tie-breaking rules to carry the identity.
func multiStratumRelation(rng *rand.Rand, n, strata int) *relation.Relation {
	av := make([]string, n)
	bv := make([]string, n)
	zv := make([]string, n)
	uv := make([]float64, n)
	vv := make([]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Intn(4)
		av[i] = fmt.Sprintf("a%d", a)
		b := rng.Intn(4)
		if rng.Float64() < 0.4 {
			b = a
		}
		bv[i] = fmt.Sprintf("b%d", b)
		zv[i] = fmt.Sprintf("z%d", rng.Intn(strata))
		uv[i] = float64(rng.Intn(8)) // heavy ties
		vv[i] = uv[i] + float64(rng.Intn(5))
		if rng.Float64() < 0.2 {
			vv[i] = float64(rng.Intn(12))
		}
	}
	return relation.MustNew(
		relation.NewCategoricalColumn("A", av),
		relation.NewCategoricalColumn("B", bv),
		relation.NewCategoricalColumn("Z", zv),
		relation.NewNumericColumn("U", uv),
		relation.NewNumericColumn("V", vv),
	)
}

// TestDeltaGreedyMatchesLinear is the identity property test of the
// delta-argmax fast path: across random multi-stratum relations, both
// strategies, both methods, both G objectives, and both constraint
// directions, TopK must return exactly the seed-era linear greedy's result —
// same rows in the same order, and bit-identical statistics.
func TestDeltaGreedyMatchesLinear(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := multiStratumRelation(rng, 160+rng.Intn(120), 1+rng.Intn(4))
		constraints := []sc.SC{
			sc.MustParse("A _||_ B"),
			sc.MustParse("A ~||~ B"),
			sc.MustParse("A _||_ B | Z"),
			sc.MustParse("U _||_ V"),
			sc.MustParse("U ~||~ V"),
			sc.MustParse("U _||_ V | Z"), // multi-stratum numeric: the K^c hot path
			sc.MustParse("A _||_ U | Z"), // mixed pair → G with discretization
		}
		for _, c := range constraints {
			for _, strat := range []Strategy{K, Kc} {
				for _, obj := range []GObjective{CellContribution, ExactDelta} {
					for _, k := range []int{1, 7, 40} {
						opts := Options{Strategy: strat, GObjective: obj, Bins: 3}
						label := fmt.Sprintf("seed%d/%s/%s/%s/k=%d", seed, c, strat, obj, k)
						fast, fastErr := TopK(d, c, k, opts)
						ref, refErr := topKLinear(d, c, k, opts)
						if (fastErr == nil) != (refErr == nil) {
							t.Fatalf("%s: err %v vs %v", label, fastErr, refErr)
						}
						if fastErr != nil {
							if fastErr.Error() != refErr.Error() {
								t.Errorf("%s: err %q vs %q", label, fastErr, refErr)
							}
							continue
						}
						if !reflect.DeepEqual(fast, ref) {
							t.Errorf("%s: delta argmax diverged from linear greedy:\n%+v\nvs\n%+v",
								label, fast, ref)
						}
					}
				}
			}
		}
	}
}

// TestDeltaGreedyMatchesLinearLargeKc pins the exact hot path of the
// acceptance benchmark — a K^c drill over a multi-stratum numeric
// constraint where almost every record is removed — at a size big enough
// for thousands of rounds. Those rounds reorder the packed tau strata by
// swap-remove over and over, so the DSC and the K strategy run here too:
// every tie-break must still land on the linear scan's record.
func TestDeltaGreedyMatchesLinearLargeKc(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	d := multiStratumRelation(rng, 1200, 6)
	for _, c := range []sc.SC{sc.MustParse("U _||_ V | Z"), sc.MustParse("U ~||~ V | Z"), sc.MustParse("A _||_ B | Z")} {
		for _, run := range []struct {
			strat Strategy
			k     int
		}{{Kc, 25}, {K, 1}, {K, 100}} {
			opts := Options{Strategy: run.strat}
			fast, err := TopK(d, c, run.k, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := topKLinear(d, c, run.k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("%s/%s/k=%d: large drill diverged from linear greedy", c, run.strat, run.k)
			}
		}
	}
}

// FuzzTopKMatchesLinear fuzzes the identity contract on tiny relations:
// each record is one byte pair, drawn from heavy ties, ±0, ±Inf and NaN on
// the numeric side and three levels on the categorical side, in 1–4 strata.
// For both methods, K and K^c, both G objectives and both constraint
// directions, TopK must equal topKLinear, or fail with the same error, at
// the default worker count and with 1 and 3 workers taking the strata's
// shares; a NaN in a tau drill must fail.
func FuzzTopKMatchesLinear(f *testing.F) {
	f.Add(byte(0), byte(2), []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0x45, 0x67})
	f.Add(byte(3), byte(5), []byte{0x33, 0x44, 0x33, 0x44, 0x77, 0x70, 0x07, 0x55, 0x21, 0x3c, 0x4b, 0x5a})
	f.Add(byte(1), byte(1), []byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99})
	f.Add(byte(2), byte(3), []byte{0x0f, 0xf1, 0x23, 0x32, 0x45, 0x54, 0x67, 0x76})
	vals := [16]float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 1, 2, math.Inf(1),
		0, 1, 1, 2, 3, 3, 5, math.NaN()}
	f.Fuzz(func(t *testing.T, strata, k byte, data []byte) {
		n := len(data) / 2
		if n == 0 || n > 40 {
			return
		}
		u, v := make([]float64, n), make([]float64, n)
		a, b, z := make([]string, n), make([]string, n), make([]string, n)
		hasNaN := false
		for i := 0; i < n; i++ {
			p, q := data[2*i], data[2*i+1]
			u[i], v[i] = vals[p>>4], vals[q>>4]
			hasNaN = hasNaN || math.IsNaN(u[i]) || math.IsNaN(v[i])
			a[i] = fmt.Sprintf("a%d", p%3)
			b[i] = fmt.Sprintf("b%d", q%3)
			z[i] = fmt.Sprintf("z%d", int(p^q)%(1+int(strata)%4))
		}
		d := relation.MustNew(
			relation.NewNumericColumn("U", u),
			relation.NewNumericColumn("V", v),
			relation.NewCategoricalColumn("A", a),
			relation.NewCategoricalColumn("B", b),
			relation.NewCategoricalColumn("Z", z),
		)
		for _, text := range []string{"U _||_ V | Z", "U ~||~ V | Z", "A _||_ B | Z", "A ~||~ B | Z"} {
			c := sc.MustParse(text)
			for _, strat := range []Strategy{K, Kc} {
				for _, obj := range []GObjective{CellContribution, ExactDelta} {
					opts := Options{Strategy: strat, GObjective: obj, MinStratumSize: 1}
					label := fmt.Sprintf("%s/%s/%s/k=%d", c, strat, obj, 1+int(k)%n)
					fast, fastErr := TopK(d, c, 1+int(k)%n, opts)
					ref, refErr := topKLinear(d, c, 1+int(k)%n, opts)
					if fmt.Sprint(fastErr) != fmt.Sprint(refErr) {
						t.Fatalf("%s: err %v vs %v", label, fastErr, refErr)
					}
					if hasNaN && c.X[0] == "U" && fastErr == nil {
						t.Fatalf("%s: tau drill accepted NaN", label)
					}
					if fastErr == nil && !reflect.DeepEqual(fast, ref) {
						t.Fatalf("%s: delta argmax diverged from linear greedy:\n%+v\nvs\n%+v", label, fast, ref)
					}
					for _, workers := range []int{1, 3} {
						opts.Workers = workers
						pooled, err := TopK(d, c, 1+int(k)%n, opts)
						if fmt.Sprint(err) != fmt.Sprint(refErr) || err == nil && !reflect.DeepEqual(pooled, ref) {
							t.Fatalf("%s workers %d: diverged from linear greedy:\n%+v (%v)\nvs\n%+v (%v)", label, workers, pooled, err, ref, refErr)
						}
					}
				}
			}
		}
	})
}

// TestGScanSkipMatchesFullScan pins the G scan's skipping of cells on the
// non-scoring side of O·N = R·C: on random small tables, where cells one
// count from E are common, scan must pick the same cell with the same
// score bits as scoring every cell, in all four greedy directions.
func TestGScanSkipMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20000; trial++ {
		st := &gStratum{kx: 1 + rng.Intn(4), ky: 1 + rng.Intn(4)}
		st.counts = make([]float64, st.kx*st.ky)
		st.rowMarg, st.colMarg = make([]float64, st.kx), make([]float64, st.ky)
		for i := 0; i < st.kx; i++ {
			for j := 0; j < st.ky; j++ {
				o := float64(rng.Intn(6))
				st.counts[st.cell(i, j)] = o
				st.rowMarg[i] += o
				st.colMarg[j] += o
				st.n += o
			}
		}
		for _, d := range []direction{{false, true, CellContribution}, {false, false, CellContribution},
			{true, true, CellContribution}, {true, false, CellContribution}} {
			fi, fj, full := -1, -1, 0.0 // gGreedyLinear's scan of this one stratum
			for i := 0; i < st.kx; i++ {
				for j := 0; j < st.ky; j++ {
					if st.counts[st.cell(i, j)] <= 0 {
						continue
					}
					if score := gScore(st, i, j, d.dependence, d.best, d.objective); fi == -1 || score > full {
						fi, fj, full = i, j, score
					}
				}
			}
			score, ok := st.scan(d)
			if ok != (fi != -1) || ok && (st.bestI != fi || st.bestJ != fj || math.Float64bits(score) != math.Float64bits(full)) {
				t.Fatalf("trial %d %+v counts %v: scan picked (%d,%d)=%v, full scan (%d,%d)=%v",
					trial, d, st.counts, st.bestI, st.bestJ, score, fi, fj, full)
			}
		}
	}
}

// TestDeltaMatchesBruteArgmax chains the identity to the brute-force
// oracle: for k=1 the greedy argmax is provably optimal (a single removal),
// so TopK, topKLinear and bruteForceTopK must all select the same record.
// The tau objective is exact integer arithmetic; the G comparison uses the
// ExactDelta objective, which optimizes the same quantity brute force
// enumerates.
func TestDeltaMatchesBruteArgmax(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))

		// Numeric marginal pair, continuous values (no ties).
		n := 18 + rng.Intn(8)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = 0.7*x[i] + rng.NormFloat64()
		}
		num := relation.MustNew(
			relation.NewNumericColumn("X", x),
			relation.NewNumericColumn("Y", y),
		)
		checkBruteArgmax(t, seed, num, sc.MustParse("X _||_ Y"), Options{Strategy: K}, true)

		// Categorical marginal pair under the exact-delta objective.
		a := make([]string, n)
		b := make([]string, n)
		for i := range a {
			ai := rng.Intn(3)
			bi := rng.Intn(3)
			if rng.Float64() < 0.5 {
				bi = ai
			}
			a[i] = fmt.Sprintf("a%d", ai)
			b[i] = fmt.Sprintf("b%d", bi)
		}
		cat := relation.MustNew(
			relation.NewCategoricalColumn("A", a),
			relation.NewCategoricalColumn("B", b),
		)
		checkBruteArgmax(t, seed, cat, sc.MustParse("A _||_ B"),
			Options{Strategy: K, GObjective: ExactDelta}, false)
	}
}

// checkBruteArgmax asserts the k=1 identity chain delta == linear == brute.
// The tau path's pair counts are exact integer-valued floats, so its rows
// must match the oracle exactly (exactRows). The G path's incremental
// deltaG and brute force's full recompute round differently on analytically
// tied cells, so its identity is asserted on the achieved objective — the
// statistic after removing the greedy's pick must equal the brute optimum.
func checkBruteArgmax(t *testing.T, seed int64, d *relation.Relation, c sc.SC, opts Options, exactRows bool) {
	t.Helper()
	fast, err := TopK(d, c, 1, opts)
	if err != nil {
		t.Fatalf("seed %d %s: %v", seed, c, err)
	}
	ref, err := topKLinear(d, c, 1, opts)
	if err != nil {
		t.Fatalf("seed %d %s: %v", seed, c, err)
	}
	brute, err := bruteForceTopK(d, c, 1, opts)
	if err != nil {
		t.Fatalf("seed %d %s: %v", seed, c, err)
	}
	if !reflect.DeepEqual(fast.Rows, ref.Rows) {
		t.Errorf("seed %d %s: delta %v vs linear %v", seed, c, fast.Rows, ref.Rows)
	}
	if exactRows {
		if !reflect.DeepEqual(fast.Rows, brute.Rows) {
			t.Errorf("seed %d %s: greedy argmax %v vs brute optimum %v", seed, c, fast.Rows, brute.Rows)
		}
		return
	}
	drop := map[int]bool{fast.Rows[0]: true}
	after, err := dependenceStat(d.Drop(drop), c, opts.withDefaults())
	if err != nil {
		t.Fatalf("seed %d %s: %v", seed, c, err)
	}
	if diff := math.Abs(math.Abs(after) - math.Abs(brute.FinalStat)); diff > 1e-9 {
		t.Errorf("seed %d %s: greedy pick %v achieves |stat|=%v, brute optimum %v (row %v)",
			seed, c, fast.Rows, math.Abs(after), math.Abs(brute.FinalStat), brute.Rows)
	}
}

// TestTopKLinearExposedSemantics pins that the linear oracle shares TopK's
// full contract (validation, strategies, conditioning) — it differs only in
// the greedy it runs.
func TestTopKLinearExposedSemantics(t *testing.T) {
	d := figure2()
	if _, err := topKLinear(d, sc.MustParse("Model _||_ Color"), 0, Options{}); err == nil {
		t.Error("want error for k=0")
	}
	res, err := topKLinear(d, sc.MustParse("Model _||_ Color"), 5, Options{Strategy: Kc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || res.Strategy != Kc {
		t.Errorf("unexpected result: %+v", res)
	}
}
