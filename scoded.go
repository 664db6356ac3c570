// Package scoded is a from-scratch Go implementation of SCODED, the
// statistical-constraint-oriented data error detection system of Yan,
// Schulte, Zhang, Wang and Cheng (SIGMOD 2020).
//
// A statistical constraint (SC) asserts a probabilistic (in)dependence
// between column sets of a relation: the independence SC "Model _||_ Color"
// says knowing Color gives no information about Model; the dependence SC
// "Wind ~||~ Weather | Year" says Wind stays informative about Weather
// within every year. An approximate SC pairs a constraint with a false
// dependence rate α and is checked by hypothesis testing — the G-test for
// categorical pairs, Kendall's tau for numeric pairs.
//
// The package exposes the two SCODED workflows:
//
//   - violation detection (Check): does the dataset contradict the
//     constraint at significance α?
//   - error drill-down (TopK, Partition): which k records contribute most
//     to the violation, and what is the smallest record set whose removal
//     repairs it?
//
// plus the supporting components: SC discovery from correlation matrices
// and Bayesian networks (Discovery), consistency checking of constraint
// sets under the semi-graphoid axioms (CheckConsistency), and the
// SC-vs-integrity-constraint entailment translations (the ic package types
// re-exported here).
//
// Quick start:
//
//	rel, _ := scoded.ReadCSVFile("cars.csv")
//	a, _ := scoded.ParseApproximateSC("Model _||_ Color @ 0.05")
//	res, _ := scoded.Check(rel, a, scoded.CheckOptions{})
//	if res.Violated {
//	    top, _ := scoded.TopK(rel, a.SC, 5, scoded.DrillOptions{})
//	    fmt.Println("suspect rows:", top.Rows)
//	}
package scoded

import (
	"context"
	"io"

	"scoded/internal/detect"
	"scoded/internal/drilldown"
	"scoded/internal/graphoid"
	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
)

// Relation is an in-memory table: typed columns (categorical or numeric) of
// equal length, with projection, grouping and empirical-distribution
// operations. See the methods on the aliased type.
type Relation = relation.Relation

// Column is one typed column of a Relation.
type Column = relation.Column

// ColumnKind distinguishes categorical from numeric columns.
type ColumnKind = relation.Kind

// Column kinds.
const (
	Categorical = relation.Categorical
	Numeric     = relation.Numeric
)

// NewRelation builds a relation from columns; all columns must have equal
// length and distinct names.
func NewRelation(cols ...*Column) (*Relation, error) { return relation.New(cols...) }

// NewCategoricalColumn builds a column of discrete string values.
func NewCategoricalColumn(name string, vals []string) *Column {
	return relation.NewCategoricalColumn(name, vals)
}

// NewNumericColumn builds a column of float64 values.
func NewNumericColumn(name string, vals []float64) *Column {
	return relation.NewNumericColumn(name, vals)
}

// ReadCSV loads a relation from CSV with a header row, inferring column
// types (a column parses as Numeric when every value is a float).
func ReadCSV(r io.Reader) (*Relation, error) { return relation.ReadCSV(r) }

// ReadCSVFile is ReadCSV over a file path.
func ReadCSVFile(path string) (*Relation, error) { return relation.ReadCSVFile(path) }

// SC is a statistical constraint X ⊥ Y | Z (independence) or X ⊥̸ Y | Z
// (dependence) over column sets of a relation.
type SC = sc.SC

// ApproximateSC pairs an SC with a false dependence rate α (the paper's
// Definition 4): the constraint is enforced as a hypothesis test at
// significance α.
type ApproximateSC = sc.Approximate

// ParseSC reads an SC from text, e.g. "Model _||_ Color",
// "Wind ~||~ Weather | Year". The independence operator is "_||_" (also
// "⊥"); the dependence operator is "~||~" (also "!_||_").
func ParseSC(s string) (SC, error) { return sc.Parse(s) }

// MustParseSC is ParseSC but panics on error; for static constraint tables.
func MustParseSC(s string) SC { return sc.MustParse(s) }

// ParseApproximateSC reads "constraint @ alpha", e.g.
// "Model _||_ Color @ 0.05". A missing alpha defaults to 0.05.
func ParseApproximateSC(s string) (ApproximateSC, error) { return sc.ParseApproximate(s) }

// Independence constructs an ISC X ⊥ Y | Z (pass nil for a marginal Z).
func Independence(x, y, z []string) SC { return sc.Independence(x, y, z) }

// Dependence constructs a DSC X ⊥̸ Y | Z.
func Dependence(x, y, z []string) SC { return sc.Dependence(x, y, z) }

// TestMethod selects the hypothesis-test statistic for Check.
type TestMethod = detect.Method

// Test methods. Auto picks the G-test for categorical or mixed pairs and
// Kendall's tau for numeric pairs; the Exact variants use Monte-Carlo
// permutation tests for small samples.
const (
	Auto         = detect.Auto
	GTest        = detect.G
	Kendall      = detect.Kendall
	Pearson      = detect.Pearson
	Spearman     = detect.Spearman
	ExactG       = detect.ExactG
	ExactKendall = detect.ExactKendall
)

// CheckOptions configures violation detection; the zero value uses the
// paper's defaults (Auto method, 4 quantile bins, minimum stratum size 5).
// Set Cache (NewKernelCache) to share partitions, codings and contingency
// tables across the checks and drill-downs of one dataset.
type CheckOptions = detect.Options

// KernelCache memoizes the intermediate statistics of one dataset's
// detection hot path (column codings, conditioning-set partitions,
// contingency tables, Kendall results). Thread one through
// CheckOptions.Cache / DrillOptions.Cache to make repeated checks over a
// shared-attribute constraint family reuse each other's work; results are
// bit-identical with and without it. Safe for concurrent use.
type KernelCache = kernel.Cache

// NewKernelCache creates a cache bound to a dataset. The dataset must not
// be mutated afterwards; build a new cache for new data.
func NewKernelCache(d *Relation) *KernelCache { return kernel.New(d) }

// CheckResult reports a violation-detection outcome: the test statistic,
// p-value, the Algorithm 1 decision, and per-stratum details for
// conditional constraints.
type CheckResult = detect.Result

// Check runs SCODED's violation detection (Algorithm 1): it computes the
// constraint's test statistic and p-value on the dataset and decides
// whether the constraint is violated at its α. An independence SC is
// violated when p < α; a dependence SC when p >= α.
func Check(d *Relation, a ApproximateSC, opts CheckOptions) (CheckResult, error) {
	return detect.Check(d, a, opts)
}

// CheckContext is Check with cancellation: the computation observes ctx
// between strata and kernel stages and returns an error wrapping ctx.Err()
// when it is cancelled or its deadline expires. Check is equivalent to
// CheckContext with context.Background().
func CheckContext(ctx context.Context, d *Relation, a ApproximateSC, opts CheckOptions) (CheckResult, error) {
	return detect.CheckContext(ctx, d, a, opts)
}

// BatchCheckOptions configures CheckAll, adding family-wise
// Benjamini-Hochberg FDR control (FDR) and a worker-pool bound (Workers)
// to the per-constraint options.
type BatchCheckOptions = detect.BatchOptions

// CheckAll checks a family of approximate SCs against one dataset, fanning
// the per-constraint checks out over a bounded worker pool
// (BatchCheckOptions.Workers; GOMAXPROCS by default). Results come back in
// input order and match a sequential run exactly. A constraint that cannot
// be checked records the failure in its CheckResult.Err instead of
// aborting the family. With BatchCheckOptions.FDR > 0, the violation
// decisions use Benjamini-Hochberg control at that false discovery rate
// within each constraint direction, guarding against the multiple-testing
// inflation of enforcing many SCs at once.
func CheckAll(d *Relation, as []ApproximateSC, opts BatchCheckOptions) ([]CheckResult, error) {
	return detect.CheckAll(d, as, opts)
}

// CheckAllContext is CheckAll with cancellation. Cancelling ctx drains the
// family: constraints already finished keep their results, and every
// unfinished constraint records an error wrapping ctx.Err() in its
// CheckResult.Err — callers get partial results, not an aborted batch.
func CheckAllContext(ctx context.Context, d *Relation, as []ApproximateSC, opts BatchCheckOptions) ([]CheckResult, error) {
	return detect.CheckAllContext(ctx, d, as, opts)
}

// DrillStrategy selects the greedy search strategy of Section 5.2.
type DrillStrategy = drilldown.Strategy

// Drill-down strategies. BestStrategy picks the paper's recommendation per
// constraint type: K for dependence SCs, K^c for independence SCs.
const (
	BestStrategy = drilldown.Best
	KStrategy    = drilldown.K
	KcStrategy   = drilldown.Kc
)

// DrillMethod selects the drill-down statistic path.
type DrillMethod = drilldown.Method

// Drill-down methods. DrillAuto uses the tau path for numeric pairs and the
// G path otherwise; DrillGMethod forces the G path (numeric columns are
// quantile-discretized — needed for non-monotone dependencies);
// DrillTauMethod forces the tau path.
const (
	DrillAuto      = drilldown.AutoMethod
	DrillGMethod   = drilldown.GMethod
	DrillTauMethod = drilldown.TauMethod
)

// DrillOptions configures drill-down; the zero value uses BestStrategy with
// the paper's cell-contribution heuristic for categorical data.
type DrillOptions = drilldown.Options

// DrillResult reports the selected rows and the dependence statistic before
// and after their hypothetical removal.
type DrillResult = drilldown.Result

// TopK solves the top-k contribution problem (Definition 7): the k records
// contributing most to the constraint's violation. Numeric pairs use the
// Fenwick-tree implementation of Algorithm 2 (O(n log n) initialization);
// categorical pairs use the group-based G-statistic method of Section 5.3.
func TopK(d *Relation, c SC, k int, opts DrillOptions) (DrillResult, error) {
	return drilldown.TopK(d, c, k, opts)
}

// TopKContext is TopK with cancellation: the greedy search observes ctx
// once per round, so a cancelled or expired context interrupts even a
// large drill-down promptly with an error wrapping ctx.Err().
func TopKContext(ctx context.Context, d *Relation, c SC, k int, opts DrillOptions) (DrillResult, error) {
	return drilldown.TopKContext(ctx, d, c, k, opts)
}

// PatternFinding is one enriched value among a flagged row set: the
// automated version of the paper's "check whether these records follow a
// pattern" step.
type PatternFinding = drilldown.PatternFinding

// ExplainOptions configures ExplainRows.
type ExplainOptions = drilldown.ExplainOptions

// ExplainRows summarizes what flagged rows have in common: per column (and
// column pair), the values significantly over-represented among them,
// scored by hypergeometric enrichment — e.g. Figure 2's "all five records
// are Toyota Prius and Black" or Figure 7's "GPM = 0, draft year before
// 2000".
func ExplainRows(d *Relation, rows []int, opts ExplainOptions) ([]PatternFinding, error) {
	return drilldown.ExplainRows(d, rows, opts)
}

// MultiTopK drills into several constraints at once, merging the
// per-constraint rankings round-robin with deduplication — the
// multi-constraint pooling of the paper's Figure 9(b) setting.
func MultiTopK(d *Relation, cs []SC, k int, opts DrillOptions) ([]int, error) {
	return drilldown.MultiTopK(d, cs, k, opts)
}

// MultiTopKContext is MultiTopK with cancellation across the whole family:
// the per-constraint drill-downs run on the shared execution engine and a
// cancelled ctx fails the call with an error wrapping ctx.Err().
func MultiTopKContext(ctx context.Context, d *Relation, cs []SC, k int, opts DrillOptions) ([]int, error) {
	return drilldown.MultiTopKContext(ctx, d, cs, k, opts)
}

// PartitionResult reports a dataset-partition outcome.
type PartitionResult = drilldown.PartitionResult

// Partition solves the dataset-partition problem (Definition 6) greedily:
// find a small record set whose removal makes the constraint hold.
// maxRemove bounds the search (0 means up to half the dataset).
func Partition(d *Relation, a ApproximateSC, opts DrillOptions, maxRemove int) (PartitionResult, error) {
	return drilldown.Partition(d, a, opts, maxRemove)
}

// Conflict is a contradiction between a declared dependence SC and an
// independence statement derivable from the declared independence SCs.
type Conflict = graphoid.Conflict

// CheckConsistency verifies a constraint set Σ = I ∪ D with the
// semi-graphoid axioms (symmetry, decomposition, weak union, contraction):
// it returns every dependence SC contradicted by the closure of the
// independence SCs. An empty result means no contradiction is derivable.
func CheckConsistency(constraints []SC) ([]Conflict, error) {
	return graphoid.CheckConsistency(constraints, graphoid.Options{})
}
