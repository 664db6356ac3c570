// Package detect implements SCODED's violation-detection component
// (Algorithm 1 of the paper): given a dataset and an approximate SC
// ⟨φ, α⟩, compute the test statistic, its p-value under the null of
// independence, and decide whether the constraint is violated.
//
// Independence SCs are violated when p < α (the data shows significant
// dependence where independence was asserted). Dependence SCs invert the
// rule: they are violated when p >= α (the asserted dependence is absent),
// matching the paper's Nebraska case study where "p > 0.3 violates the
// dependence constraint".
//
// Conditional constraints X ⊥ Y | Z are tested by stratifying on the value
// of Z: per-stratum G statistics are summed (with their degrees of freedom),
// and per-stratum Kendall z-scores are combined by the weighted Stouffer
// rule. Set-valued X or Y are handled by the decomposition principle.
package detect

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// Method selects the hypothesis-test statistic.
type Method int

const (
	// Auto picks G for categorical pairs, Kendall for numeric pairs, and
	// G-after-discretization for mixed pairs.
	Auto Method = iota
	// G uses the G-test (categorical; numeric columns are discretized).
	G
	// Kendall uses Kendall's tau-b with the Gaussian approximation
	// (numeric; categorical columns are rejected).
	Kendall
	// Pearson uses Pearson's r with the t reference distribution.
	Pearson
	// Spearman uses Spearman's rho with the t reference distribution.
	Spearman
	// ExactG uses a Monte-Carlo permutation G-test (for small samples).
	ExactG
	// ExactKendall uses a Monte-Carlo permutation tau test.
	ExactKendall
)

// String names the method.
func (m Method) String() string {
	switch m {
	case Auto:
		return "auto"
	case G:
		return "g-test"
	case Kendall:
		return "kendall"
	case Pearson:
		return "pearson"
	case Spearman:
		return "spearman"
	case ExactG:
		return "exact-g"
	case ExactKendall:
		return "exact-kendall"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures violation detection.
type Options struct {
	// Method selects the test statistic; Auto by default.
	Method Method
	// Bins is the number of quantile bins used to discretize numeric
	// columns for the G-test; defaults to 4.
	Bins int
	// MinStratumSize drops conditioning strata smaller than this from the
	// combined conditional test (the paper requires N_D(Z=z) to be
	// sufficiently large). Defaults to 5.
	MinStratumSize int
	// PermIters is the Monte-Carlo iteration count for exact tests;
	// defaults to 999.
	PermIters int
	// AutoExact re-runs a test with its Monte-Carlo exact variant whenever
	// the closed-form approximation is outside its validity regime
	// (expected counts below 5 for the G-test, n <= 60 for tau) — the
	// Section 4.3 fallback rule.
	AutoExact bool
	// Rng seeds the exact tests; defaults to a fixed seed for
	// reproducibility.
	Rng *rand.Rand
	// Cache, when non-nil, is a kernel.Cache bound to the dataset being
	// checked: column codings, conditioning partitions, contingency tables
	// and Kendall results are read through (and memoized in) it, so
	// constraints sharing attributes or conditioning sets share one
	// computation. Results are bit-identical with or without a cache. The
	// cache must have been created on the same relation; Check rejects a
	// mismatched binding.
	Cache *kernel.Cache
}

func (o Options) withDefaults() Options {
	if o.Bins <= 1 {
		o.Bins = 4
	}
	if o.MinStratumSize <= 0 {
		o.MinStratumSize = 5
	}
	if o.PermIters <= 0 {
		o.PermIters = 999
	}
	// The default Rng is created only when a permutation test can actually
	// consume it: seeding a rand.Source costs ~5KB and a full seed pass, and
	// the closed-form methods never draw from it. The gate is exact — testPair
	// reads Rng only on the ExactG / ExactKendall methods and the AutoExact
	// re-run — and when the Rng is created it is the same source, seeded
	// identically and shared across all strata of the check, so exact-test
	// results are unchanged.
	if o.Rng == nil && (o.AutoExact || o.Method == ExactG || o.Method == ExactKendall) {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// StratumResult is the test outcome within one conditioning stratum Z = z.
type StratumResult struct {
	// Key identifies the stratum's Z assignment (display form).
	Key string
	// Size is the stratum's record count.
	Size int
	// Test is the within-stratum test result.
	Test stats.TestResult
	// Skipped is true when the stratum was too small to test.
	Skipped bool
}

// Result reports the outcome of checking one approximate SC.
type Result struct {
	// Constraint is the checked approximate SC.
	Constraint sc.Approximate
	// Method is the statistic actually used (after Auto resolution).
	Method Method
	// Test is the overall test result: for conditional constraints, the
	// combined over-strata result; for decomposed set constraints, the
	// Fisher combination over leaves.
	Test stats.TestResult
	// Violated is the Algorithm 1 decision.
	Violated bool
	// Strata holds per-stratum results for conditional constraints.
	Strata []StratumResult
	// Leaves holds per-leaf results when the constraint was decomposed.
	Leaves []Result
	// Err records why this constraint could not be checked when it is part
	// of a CheckAll family: a malformed constraint or one referencing a
	// missing column fails alone instead of aborting the whole batch. The
	// other Result fields are zero when Err is non-nil. Check itself still
	// reports failures through its error return.
	Err error
}

// Check runs Algorithm 1 with no deadline; see CheckContext.
func Check(d *relation.Relation, a sc.Approximate, opts Options) (Result, error) {
	return CheckContext(context.Background(), d, a, opts)
}

// CheckContext runs Algorithm 1: it computes the test statistic and p-value
// of the constraint on the dataset and reports whether the constraint is
// violated at the constraint's α. When ctx ends mid-check the error wraps
// the context's error (cancellation is observed between strata and leaves
// and inside the kernel cache, so a deadline interrupts a long conditional
// test without waiting for every stratum).
func CheckContext(ctx context.Context, d *relation.Relation, a sc.Approximate, opts Options) (Result, error) {
	return check(ctx, residentSource{d}, a, opts)
}

// statSource is what Algorithm 1 reads from a dataset: column kinds, the
// row count, and per-stratum statistics of one X/Y pair. residentSource
// serves a materialized relation through the kernel cache; streamSource
// (stream.go) serves one kernel.Streamer fold of the store's segments. check
// is the one driver over both, so the paths differ only in where the
// statistics come from, and the sources reproduce those bit for bit.
type statSource interface {
	// columnKind reports a column's kind and whether the dataset has it.
	columnKind(col string) (relation.Kind, bool)
	// numRows is the dataset's row count.
	numRows() int
	// stratify prepares the statistics of x against y for every stratum
	// of z; an empty z is one stratum, the whole dataset.
	stratify(ctx context.Context, z []string, x, y string, opts Options) (strata, error)
}

// strata is one stratified X/Y pair of a source: its sorted stratum keys
// (relation.RowKey form) and, per stratum (an index into keys), its size
// and every statistic a test reads — the contingency table, the X and Y
// codes, the X and Y values, and Kendall's result. testPair asks only for
// what its method needs, and the driver only for strata it does not skip,
// so a skipped stratum never touches the cache. Callers must not mutate
// what the statistics return.
type strata interface {
	keys() []string
	size(i int) int
	table(ctx context.Context, i int) (stats.Table, error)
	codes(ctx context.Context, i int) (x, y []int32, kx, ky int, err error)
	floats(ctx context.Context, i int) (x, y []float64, err error)
	kendall(ctx context.Context, i int) (stats.KendallResult, error)
}

// marginalKeys keys the single stratum of an unconditioned pair.
var marginalKeys = []string{""}

// leafPlan is one single-X/Y leaf of a checked constraint and the method
// it resolved to. A leaf whose method cannot serve its column kinds carries
// the error instead, reported when the driver reaches that leaf.
type leafPlan struct {
	a      sc.Approximate
	method Method
	err    error
}

// plan is Algorithm 1's preparation over any statistics source: validation,
// the column check, option defaults, leaf decomposition and Auto
// resolution. check runs the plan it returns, and
// CheckAllStream lists the family's pairs from the same plans before its
// one scan, so the two can never disagree about which pairs a check reads.
func plan(src statSource, a sc.Approximate, opts Options) (Options, []leafPlan, error) {
	if err := a.Validate(); err != nil {
		return opts, nil, err
	}
	for _, col := range a.SC.Columns() {
		if _, ok := src.columnKind(col); !ok {
			return opts, nil, fmt.Errorf("detect: dataset lacks column %q required by %s", col, a.SC)
		}
	}
	opts = opts.withDefaults()
	leaves := a.SC.Decompose()
	out := make([]leafPlan, len(leaves))
	for i, leaf := range leaves {
		x, y := leaf.X[0], leaf.Y[0]
		kx, _ := src.columnKind(x)
		ky, _ := src.columnKind(y)
		method, err := resolveMethodKinds(x, y, kx, ky, opts.Method)
		out[i] = leafPlan{a: sc.Approximate{SC: leaf, Alpha: a.Alpha}, method: method, err: err}
	}
	return opts, out, nil
}

// check is Algorithm 1 over any statistics source: it plans the constraint,
// checks each leaf and combines a decomposed set constraint's leaves.
func check(ctx context.Context, src statSource, a sc.Approximate, opts Options) (Result, error) {
	opts, leaves, err := plan(src, a, opts)
	if err != nil {
		return Result{}, err
	}
	if len(leaves) == 1 {
		return checkSingle(ctx, src, leaves[0], opts)
	}

	// Set-valued constraint: test every leaf, then combine.
	leafResults := make([]Result, 0, len(leaves))
	for _, leaf := range leaves {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("detect: %w", err)
		}
		lr, err := checkSingle(ctx, src, leaf, opts)
		if err != nil {
			return Result{}, fmt.Errorf("detect: leaf %s: %w", leaf.a.SC, err)
		}
		leafResults = append(leafResults, lr)
	}
	return combineLeaves(a, leafResults, src.numRows())
}

// combineLeaves fuses the per-leaf results of a decomposed set constraint
// with Fisher's method and applies the set-level violation rule.
func combineLeaves(a sc.Approximate, leafResults []Result, rows int) (Result, error) {
	res := Result{Constraint: a, Leaves: leafResults}
	ps := make([]float64, 0, len(leafResults))
	allViolated, anyViolated := true, false
	for _, lr := range leafResults {
		res.Method = lr.Method
		ps = append(ps, lr.Test.P)
		if lr.Violated {
			anyViolated = true
		} else {
			allViolated = false
		}
	}
	stat, p, err := stats.FisherCombine(ps)
	if err != nil {
		return Result{}, err
	}
	res.Test = stats.TestResult{Statistic: stat, DF: 2 * len(ps), P: p, N: rows}
	if a.SC.Dependence {
		// A set DSC decomposes to a disjunction of leaf DSCs: it is violated
		// only when every leaf's asserted dependence is absent.
		res.Violated = allViolated
	} else {
		// A set ISC decomposes to a conjunction of leaf ISCs: violating any
		// leaf violates the constraint.
		res.Violated = anyViolated
	}
	return res, nil
}

// checkSingle handles a constraint with single-variable X and Y, possibly
// conditional: a marginal pair is one test; a conditional one stratifies on
// Z, skips strata below MinStratumSize and combines the rest.
func checkSingle(ctx context.Context, src statSource, leaf leafPlan, opts Options) (Result, error) {
	if leaf.err != nil {
		return Result{}, leaf.err
	}
	a, method := leaf.a, leaf.method
	st, err := src.stratify(ctx, a.SC.Z, a.SC.X[0], a.SC.Y[0], opts)
	if err != nil {
		return Result{}, err
	}
	res := Result{Constraint: a, Method: method}

	if a.SC.IsMarginal() {
		if res.Test, err = testPair(ctx, st, 0, method, opts); err != nil {
			return Result{}, err
		}
	} else {
		comb := stratumCombiner{method: method}
		for i, k := range st.keys() {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("detect: %w", err)
			}
			sr := StratumResult{Key: displayKey(k), Size: st.size(i)}
			if sr.Size < opts.MinStratumSize {
				sr.Skipped = true
				res.Strata = append(res.Strata, sr)
				continue
			}
			tr, err := testPair(ctx, st, i, method, opts)
			if err != nil {
				return Result{}, fmt.Errorf("detect: stratum %s: %w", sr.Key, err)
			}
			sr.Test = tr
			res.Strata = append(res.Strata, sr)
			comb.add(tr, sr.Size)
		}
		if res.Test, err = comb.combine(src.numRows()); err != nil {
			return Result{}, err
		}
	}

	// The violation rule: an independence SC is violated by significant
	// dependence (p < α), a dependence SC by its absence (p ≥ α).
	res.Violated = res.Test.P < a.Alpha && !a.SC.Dependence || res.Test.P >= a.Alpha && a.SC.Dependence
	return res, nil
}

// resolveMethodKinds turns Auto into a concrete method and validates that
// the requested method can handle the column kinds.
func resolveMethodKinds(x, y string, kx, ky relation.Kind, m Method) (Method, error) {
	bothNum := kx == relation.Numeric && ky == relation.Numeric
	switch m {
	case Auto:
		if bothNum {
			return Kendall, nil
		}
		// Categorical or mixed pairs go through the G-test (numeric columns
		// are quantile-discretized).
		return G, nil
	case Kendall, Pearson, Spearman, ExactKendall:
		if !bothNum {
			return 0, fmt.Errorf("detect: %s requires numeric columns, but %s is %s and %s is %s",
				m, x, kx, y, ky)
		}
		return m, nil
	case G, ExactG:
		// Any kinds allowed: numeric columns are discretized.
		return m, nil
	default:
		return 0, fmt.Errorf("detect: unknown method %d", int(m))
	}
}

// residentSource serves a materialized relation. Every artifact — the
// partition, and through the per-stratum rows keys every stratum's codings,
// tables and Kendall results — is read through opts.Cache, so constraints
// sharing attributes or conditioning sets share one computation.
type residentSource struct{ d *relation.Relation }

func (r residentSource) columnKind(col string) (relation.Kind, bool) {
	c, err := r.d.Column(col)
	if err != nil {
		return 0, false
	}
	return c.Kind, true
}

func (r residentSource) numRows() int { return r.d.NumRows() }

func (r residentSource) stratify(ctx context.Context, z []string, x, y string, opts Options) (strata, error) {
	if opts.Cache != nil && opts.Cache.Relation() != r.d {
		return nil, fmt.Errorf("detect: kernel cache is bound to a different relation")
	}
	st := &residentStrata{d: r.d, cache: opts.Cache, x: x, y: y, bins: opts.Bins}
	if len(z) > 0 {
		part, err := opts.Cache.PartitionContext(ctx, r.d, z)
		if err != nil {
			return nil, fmt.Errorf("detect: %w", err)
		}
		st.part = part
	}
	return st, nil
}

// residentStrata is one pair of a materialized relation. part is nil for a
// marginal pair, whose one stratum is every row under the cache's all-rows
// key. Each lookup builds its stratum's rows key where it uses it: a key
// returned from a helper would move to the heap once per stratum.
type residentStrata struct {
	d     *relation.Relation
	cache *kernel.Cache
	x, y  string
	bins  int
	part  *kernel.Partition
}

func (r *residentStrata) keys() []string {
	if r.part == nil {
		return marginalKeys
	}
	return r.part.Keys
}

func (r *residentStrata) size(i int) int {
	if r.part == nil {
		return r.d.NumRows()
	}
	return len(r.part.Groups[r.part.Keys[i]])
}

func (r *residentStrata) table(ctx context.Context, i int) (stats.Table, error) {
	if r.part == nil {
		t, _, _, err := r.cache.TableContext(ctx, r.d, r.x, r.y, r.bins, r.cache.AllRowsKey(), nil)
		return t, err
	}
	k := r.part.Keys[i]
	t, _, _, err := r.cache.TableContext(ctx, r.d, r.x, r.y, r.bins, r.part.StratumRowsKey(k), r.part.Groups[k])
	return t, err
}

func (r *residentStrata) codes(ctx context.Context, i int) (x, y []int32, kx, ky int, err error) {
	var rows []int
	var key string
	if r.part == nil {
		key = r.cache.AllRowsKey()
	} else {
		k := r.part.Keys[i]
		rows, key = r.part.Groups[k], r.part.StratumRowsKey(k)
	}
	if x, kx, err = r.cache.CodesContext(ctx, r.d, r.x, r.bins, key, rows); err != nil {
		return nil, nil, 0, 0, err
	}
	if y, ky, err = r.cache.CodesContext(ctx, r.d, r.y, r.bins, key, rows); err != nil {
		return nil, nil, 0, 0, err
	}
	return x, y, kx, ky, nil
}

func (r *residentStrata) floats(ctx context.Context, i int) (x, y []float64, err error) {
	var rows []int
	var key string
	if r.part == nil {
		key = r.cache.AllRowsKey()
	} else {
		k := r.part.Keys[i]
		rows, key = r.part.Groups[k], r.part.StratumRowsKey(k)
	}
	if x, err = r.cache.FloatsContext(ctx, r.d, r.x, key, rows); err != nil {
		return nil, nil, err
	}
	if y, err = r.cache.FloatsContext(ctx, r.d, r.y, key, rows); err != nil {
		return nil, nil, err
	}
	return x, y, nil
}

func (r *residentStrata) kendall(ctx context.Context, i int) (stats.KendallResult, error) {
	if r.part == nil {
		return r.cache.KendallPrepContext(ctx, r.d, r.x, r.y, r.cache.AllRowsKey(), nil)
	}
	k := r.part.Keys[i]
	return r.cache.KendallPrepContext(ctx, r.d, r.x, r.y, r.part.StratumRowsKey(k), r.part.Groups[k])
}

// stratumCombiner accumulates per-stratum test results and combines them
// into the conditional test: summed G evidence for the G family, weighted
// Stouffer z for the rank methods.
type stratumCombiner struct {
	method Method
	gParts []stats.TestResult
	zs     []float64
	ns     []int
	total  int
}

// add records one tested (non-skipped) stratum of the given size.
func (c *stratumCombiner) add(tr stats.TestResult, size int) {
	c.total += size
	switch c.method {
	case G, ExactG:
		c.gParts = append(c.gParts, tr)
	default:
		// Recover a signed z-score from the two-sided p (sign does not
		// matter for Stouffer when strata independently show
		// dependence; we use |z| with sign from tau handled inside
		// testPair via the Statistic field carrying |tau|).
		z := stats.StdNormal.Quantile(1 - tr.P/2)
		// Quantile(1) is +Inf when a stratum's p underflows below
		// ~2.2e-16 (1 - p/2 rounds to exactly 1). Clamp to z = 40,
		// beyond the z of the smallest positive double (~38.6), so
		// StoufferZ — which rejects non-finite scores — still combines
		// the overwhelming evidence.
		if math.IsInf(z, 1) || z > 40 {
			z = 40
		}
		c.zs = append(c.zs, z)
		c.ns = append(c.ns, tr.N)
	}
}

// combine produces the over-strata test result; allRows is the dataset's
// total row count, reported as N when every stratum was skipped.
func (c *stratumCombiner) combine(allRows int) (stats.TestResult, error) {
	if c.total == 0 {
		// No stratum was large enough: no evidence of dependence.
		return stats.TestResult{P: 1, N: allRows}, nil
	}
	switch c.method {
	case G, ExactG:
		return stats.CombineG(c.gParts), nil
	default:
		z, p, err := stats.StoufferZ(c.zs, c.ns)
		if err != nil {
			return stats.TestResult{}, err
		}
		return stats.TestResult{Statistic: z, P: p, N: c.total}, nil
	}
}

func displayKey(k string) string {
	out := []rune(k)
	for i, r := range out {
		if r == '\x1f' {
			out[i] = ','
		}
	}
	return string(out)
}

// testPair runs method on stratum i of one stratified pair, over whichever
// source served it: G on the stratum's table, Kendall on its Kendall
// result, the exact tests on its codes or values, and Pearson and Spearman
// on its values. With AutoExact set, a G or Kendall result flagged
// Approximate is recomputed by the matching permutation test.
func testPair(ctx context.Context, st strata, i int, method Method, opts Options) (stats.TestResult, error) {
	switch method {
	case G:
		t, err := st.table(ctx, i)
		if err != nil {
			return stats.TestResult{}, err
		}
		if res, err := stats.GTest(t); err != nil || !opts.AutoExact || !res.Approximate {
			return res, err
		}
	case Kendall:
		k, err := st.kendall(ctx, i)
		if err != nil {
			return stats.TestResult{}, err
		}
		if res := k.Test(); !opts.AutoExact || !res.Approximate {
			return res, nil
		}
	}
	// The permutation tests, AutoExact's re-runs among them, and the
	// correlation tests read the stratum's codes or values.
	switch method {
	case G, ExactG:
		xc, yc, kx, ky, err := st.codes(ctx, i)
		if err != nil {
			return stats.TestResult{}, err
		}
		return stats.PermutationGTest(xc, yc, kx, ky, opts.PermIters, opts.Rng)
	case Kendall, ExactKendall, Pearson, Spearman:
		xv, yv, err := st.floats(ctx, i)
		if err != nil {
			return stats.TestResult{}, err
		}
		switch method {
		case Pearson:
			return stats.PearsonTest(xv, yv)
		case Spearman:
			return stats.SpearmanTest(xv, yv)
		default:
			return stats.PermutationKendallTest(xv, yv, opts.PermIters, opts.Rng)
		}
	default:
		return stats.TestResult{}, fmt.Errorf("detect: unsupported method %s", method)
	}
}
