package drilldown

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
)

// The drill-down benchmark workload behind BENCH_drilldown.json: one
// conditioning column splitting 20,000 rows into 16 strata, so the linear
// rescan pays O(n_total) per round while the delta argmax pays only the
// touched stratum. It measures the τ K^c drill, the G K^c drill, and the
// MultiTopK constraint fan-out.
const (
	drillRows   = 20000
	drillStrata = 16 // conditioning strata; the delta argmax rescans one per round
	drillLevels = 8  // categories per G-path column
	drillKeep   = 512
)

// drillWorkload is one reproducible drill-down input: a relation, the two
// single-constraint drills, and a constraint family for the fan-out.
type drillWorkload struct {
	Rel *relation.Relation
	// Numeric is the τ-path constraint `X _||_ Y | Region`.
	Numeric sc.SC
	// Categorical is the G-path constraint `A _||_ B | Region`.
	Categorical sc.SC
	// Family is the MultiTopK fan-out family (numeric pairs sharing columns,
	// so the kernel cache gets real reuse across constraints).
	Family []sc.SC
	// Keep is the K^c survivor count: the drill removes Rows-Keep records.
	Keep int
}

// newDrillWorkload builds the workload for a seed at the given size:
// numeric pairs with a planted correlated block (so the ISC is genuinely
// violated) and 8-level categorical pairs with mild dependence.
func newDrillWorkload(seed int64, rows, strata int) *drillWorkload {
	rng := rand.New(rand.NewSource(seed))
	region := make([]string, rows)
	for i := range region {
		region[i] = fmt.Sprintf("r%d", rng.Intn(strata))
	}
	// Numeric columns: X↔Y and X↔W carry a planted dependent block (10% of
	// rows), V is independent noise.
	x := make([]float64, rows)
	y := make([]float64, rows)
	w := make([]float64, rows)
	v := make([]float64, rows)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
		w[i] = rng.NormFloat64()
		v[i] = rng.NormFloat64()
		if i%10 == 0 { // planted errors: rank-aligned with X
			y[i] = x[i] + 0.1*rng.NormFloat64()
			w[i] = x[i] + 0.1*rng.NormFloat64()
		}
	}
	// Categorical columns: A and B share a latent value for a quarter of the
	// rows, so the G tables are not degenerate.
	av := make([]string, rows)
	bv := make([]string, rows)
	for i := range av {
		a, b := rng.Intn(drillLevels), rng.Intn(drillLevels)
		if rng.Float64() < 0.25 {
			b = a
		}
		av[i] = fmt.Sprintf("a%d", a)
		bv[i] = fmt.Sprintf("b%d", b)
	}
	keep := drillKeep
	if keep > rows/4 {
		keep = rows / 4
	}
	return &drillWorkload{
		Rel: relation.MustNew(
			relation.NewCategoricalColumn("Region", region),
			relation.NewNumericColumn("X", x),
			relation.NewNumericColumn("Y", y),
			relation.NewNumericColumn("W", w),
			relation.NewNumericColumn("V", v),
			relation.NewCategoricalColumn("A", av),
			relation.NewCategoricalColumn("B", bv),
		),
		Numeric:     sc.MustParse("X _||_ Y | Region"),
		Categorical: sc.MustParse("A _||_ B | Region"),
		Family: []sc.SC{
			sc.MustParse("X _||_ Y | Region"),
			sc.MustParse("X _||_ W | Region"),
			sc.MustParse("Y _||_ W | Region"),
			sc.MustParse("X _||_ V | Region"),
		},
		Keep: keep,
	}
}

// options is the shared drill configuration: the K^c strategy over a warm
// kernel cache, like a scoded-serve drill-down on a registered dataset.
func (w *drillWorkload) options(cache *kernel.Cache, workers int) Options {
	return Options{Strategy: Kc, Cache: cache, Workers: workers}
}

// BenchmarkSuiteDrilldown is the drilldown suite of `make bench`
// (BENCH_drilldown.json). {tau,g}_kc_linear run the linear-rescan oracle,
// {tau,g}_kc_delta the delta argmax, which takes the strata's guaranteed
// shares on a GOMAXPROCS-worker pool. multi_sequential and multi_parallel
// run the MultiTopK fan-out on one worker and on one per constraint, and
// multi_workers_N sweeps the pool size: with four constraints it
// saturates at 4, and on a single-CPU host every point lands within noise
// of multi_workers_1.
func BenchmarkSuiteDrilldown(b *testing.B) {
	w := newDrillWorkload(1, drillRows, drillStrata)
	cache := kernel.New(w.Rel)
	// Warm the cache outside every timed region: the steady state being
	// measured is a scoded-serve drill on a registered dataset, where the
	// partitions and rank views already exist.
	for _, c := range []sc.SC{w.Numeric, w.Categorical} {
		if _, err := TopK(w.Rel, c, w.Keep, w.options(cache, 0)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := MultiTopK(w.Rel, w.Family, w.Keep, w.options(cache, 0)); err != nil {
		b.Fatal(err)
	}
	drill := func(name string, run func(Options) error, workers int) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := run(w.options(cache, workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	single := func(topK func(*relation.Relation, sc.SC, int, Options) (Result, error), c sc.SC) func(Options) error {
		return func(opts Options) error {
			_, err := topK(w.Rel, c, w.Keep, opts)
			return err
		}
	}
	multi := func(opts Options) error {
		_, err := MultiTopK(w.Rel, w.Family, w.Keep, opts)
		return err
	}
	drill("tau_kc_linear", single(topKLinear, w.Numeric), 0)
	drill("tau_kc_delta", single(TopK, w.Numeric), 0)
	drill("g_kc_linear", single(topKLinear, w.Categorical), 0)
	drill("g_kc_delta", single(TopK, w.Categorical), 0)
	drill("multi_sequential", multi, 1)
	drill("multi_parallel", multi, len(w.Family))
	for _, n := range []int{1, 2, 4, 8} {
		drill(fmt.Sprintf("multi_workers_%d", n), multi, n)
	}
}

// TestWorkloadIdentity runs the benchmark workload at a tractable size and
// checks that the measured contestants agree: the delta-argmax drill matches
// the linear greedy row for row on both constraint paths, and the parallel
// MultiTopK fan-out matches the sequential one. Without this, a speedup
// number in BENCH_drilldown.json could be comparing different answers.
func TestWorkloadIdentity(t *testing.T) {
	w := newDrillWorkload(1, 600, 4)
	cache := kernel.New(w.Rel)
	for _, tc := range []struct {
		name string
		c    sc.SC
	}{
		{"tau", w.Numeric},
		{"g", w.Categorical},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, err := TopK(w.Rel, tc.c, w.Keep, w.options(cache, 0))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := topKLinear(w.Rel, tc.c, w.Keep, w.options(cache, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("delta drill diverged from linear greedy on the bench workload")
			}
		})
	}
	t.Run("multi", func(t *testing.T) {
		seq, err := MultiTopK(w.Rel, w.Family, w.Keep, w.options(cache, 1))
		if err != nil {
			t.Fatal(err)
		}
		par, err := MultiTopK(w.Rel, w.Family, w.Keep, w.options(cache, 4))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("parallel fan-out diverged from sequential on the bench workload")
		}
	})
}

// TestGKcDeltaAllocRegression pins the allocation budget of the G-path
// delta drill on the canonical warm-cache workload. The bound is the
// pre-flat-arena linear drill's measured 6004 allocs/op: the delta argmax
// regressed past it (8202) when cellsOf materialized per-cell row lists
// every round, and the flat counts/rowArena stratum holds it near 231.
// A failure here means a hot-path structure started allocating per round
// again.
func TestGKcDeltaAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical 20k-row workload")
	}
	w := newDrillWorkload(1, drillRows, drillStrata)
	cache := kernel.New(w.Rel)
	drill := func() {
		if _, err := TopK(w.Rel, w.Categorical, w.Keep, w.options(cache, 0)); err != nil {
			t.Fatal(err)
		}
	}
	drill()
	if allocs := testing.AllocsPerRun(3, drill); allocs > 6004 {
		t.Errorf("g_kc_delta allocates %.0f per drill, budget 6004", allocs)
	}
}

// TestWorkloadShape pins the canonical dimensions the committed
// BENCH_drilldown.json claims to measure.
func TestWorkloadShape(t *testing.T) {
	w := newDrillWorkload(42, drillRows, drillStrata)
	if got := w.Rel.NumRows(); got != drillRows {
		t.Errorf("rows = %d, want %d", got, drillRows)
	}
	if w.Keep != drillKeep {
		t.Errorf("keep = %d, want %d", w.Keep, drillKeep)
	}
	if len(w.Family) != 4 {
		t.Errorf("family size = %d, want 4", len(w.Family))
	}
	// Distinct seeds must yield distinct data (the rng is actually used).
	w2 := newDrillWorkload(43, drillRows, drillStrata)
	x1 := w.Rel.MustColumn("X").Floats()
	x2 := w2.Rel.MustColumn("X").Floats()
	if reflect.DeepEqual(x1, x2) {
		t.Error("seed does not vary the workload")
	}
}
