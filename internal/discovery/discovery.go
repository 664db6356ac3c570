// Package discovery implements SCODED's SC Discovery component (Section 3,
// Figure 1): statistical data profiling via a correlation matrix, and
// deriving candidate SCs from a Bayesian network with d-separation.
//
// The paper does not propose new discovery machinery — it reuses standard
// statistical tooling — so this package provides the two workflows the
// paper's Figure 1 illustrates: (a) a Kendall-tau / Cramér's-V correlation
// matrix whose extreme cells suggest marginal SCs, and (b) conditional SCs
// read off a (learned or hand-built) Bayesian network by d-separation.
package discovery

import (
	"fmt"
	"math"
	"sort"

	"scoded/internal/bayes"
	"scoded/internal/detect"
	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// Matrix is a symmetric association matrix over a column list, with values
// in [0, 1]: 0 means no detectable association, 1 maximal.
type Matrix struct {
	Cols   []string
	Values [][]float64
}

// At returns the association between two columns by name.
func (m *Matrix) At(a, b string) (float64, error) {
	ia, ib := -1, -1
	for i, c := range m.Cols {
		if c == a {
			ia = i
		}
		if c == b {
			ib = i
		}
	}
	if ia < 0 || ib < 0 {
		return 0, fmt.Errorf("discovery: matrix lacks column %q or %q", a, b)
	}
	return m.Values[ia][ib], nil
}

// CorrelationMatrix profiles the dataset as in Figure 1(a): numeric pairs
// use |Kendall tau-b| (the paper's choice); pairs involving a categorical
// column use Cramér's V computed from the Pearson chi-squared statistic
// (numeric columns are quantile-discretized into `bins` bins first).
func CorrelationMatrix(d *relation.Relation, cols []string, bins int) (*Matrix, error) {
	if bins <= 1 {
		bins = 4
	}
	for _, c := range cols {
		if !d.HasColumn(c) {
			return nil, fmt.Errorf("discovery: no column %q", c)
		}
	}
	m := &Matrix{Cols: append([]string(nil), cols...)}
	m.Values = make([][]float64, len(cols))
	for i := range m.Values {
		m.Values[i] = make([]float64, len(cols))
		m.Values[i][i] = 1
	}
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			v, err := pairAssociation(d, cols[i], cols[j], bins)
			if err != nil {
				return nil, err
			}
			m.Values[i][j] = v
			m.Values[j][i] = v
		}
	}
	return m, nil
}

func pairAssociation(d *relation.Relation, a, b string, bins int) (float64, error) {
	ca := d.MustColumn(a)
	cb := d.MustColumn(b)
	if ca.Kind == relation.Numeric && cb.Kind == relation.Numeric {
		k, err := stats.Kendall(ca.Floats(), cb.Floats())
		if err != nil {
			return 0, err
		}
		return math.Abs(k.TauB), nil
	}
	xc, kx := codesOf(d, a, bins)
	yc, ky := codesOf(d, b, bins)
	return stats.CramersV(stats.TableFromCodes(xc, yc, kx, ky))
}

func codesOf(d *relation.Relation, name string, bins int) ([]int32, int) {
	c := d.MustColumn(name)
	if c.Kind == relation.Categorical {
		codes := make([]int32, c.Len())
		for i := range codes {
			codes[i] = int32(c.Code(i))
		}
		return codes, c.Cardinality()
	}
	return kernel.CodesFor(d, name, bins, nil)
}

// Suggestion is a candidate SC produced by profiling, with the association
// strength that motivated it.
type Suggestion struct {
	SC       sc.SC
	Strength float64
}

// SuggestFromMatrix proposes marginal SCs from a correlation matrix: pairs
// with association at or above depThreshold become DSC candidates, pairs at
// or below indepThreshold become ISC candidates. The caller (a data
// scientist, per the paper) vets them against domain knowledge.
func SuggestFromMatrix(m *Matrix, indepThreshold, depThreshold float64) []Suggestion {
	var out []Suggestion
	for i := 0; i < len(m.Cols); i++ {
		for j := i + 1; j < len(m.Cols); j++ {
			v := m.Values[i][j]
			x, y := []string{m.Cols[i]}, []string{m.Cols[j]}
			switch {
			case v >= depThreshold:
				out = append(out, Suggestion{SC: sc.Dependence(x, y, nil), Strength: v})
			case v <= indepThreshold:
				out = append(out, Suggestion{SC: sc.Independence(x, y, nil), Strength: v})
			}
		}
	}
	return out
}

// FeatureRelevance is one feature's relationship to the prediction target,
// the paper's introductory scenario ("she needs to first understand the
// (in)dependence relationship between each feature and the target
// variable": RowID ⊥ Price says RowID cannot predict Price; Model ⊥̸ Price
// says Model is a good feature).
type FeatureRelevance struct {
	// Feature is the candidate column.
	Feature string
	// Test is the independence-test result against the target.
	Test stats.TestResult
	// Relevant is true when the test rejects independence at the given
	// alpha — the feature carries signal about the target.
	Relevant bool
	// SC is the suggested constraint to enforce going forward: a DSC for
	// relevant features, an ISC for irrelevant ones.
	SC sc.SC
}

// RankFeatures tests every candidate feature against the target and
// returns the features sorted by ascending p-value (most relevant first),
// each with the SC a data scientist would pin down as domain knowledge.
// Numeric pairs use Kendall's tau; other pairs the G-test with quantile
// binning.
func RankFeatures(d *relation.Relation, target string, features []string, alpha float64) ([]FeatureRelevance, error) {
	if !d.HasColumn(target) {
		return nil, fmt.Errorf("discovery: no target column %q", target)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("discovery: alpha %v out of (0,1)", alpha)
	}
	out := make([]FeatureRelevance, 0, len(features))
	for _, f := range features {
		if f == target {
			return nil, fmt.Errorf("discovery: target %q listed as a feature", target)
		}
		res, err := detect.Check(d, sc.Approximate{
			SC:    sc.Independence([]string{f}, []string{target}, nil),
			Alpha: alpha,
		}, detect.Options{})
		if err != nil {
			return nil, err
		}
		fr := FeatureRelevance{Feature: f, Test: res.Test, Relevant: res.Violated}
		if fr.Relevant {
			fr.SC = sc.Dependence([]string{f}, []string{target}, nil)
		} else {
			fr.SC = sc.Independence([]string{f}, []string{target}, nil)
		}
		out = append(out, fr)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Test.P < out[j].Test.P })
	return out, nil
}

// ImpliedSCs derives the SCs a Bayesian network implies, as in Figure 1(b):
// for every ordered-insensitive pair (X, Y) and every conditioning set Z of
// size at most maxCond over the remaining nodes, d-separation yields an ISC
// and d-connection a DSC. The output grows combinatorially in maxCond; 0
// gives marginal constraints only.
func ImpliedSCs(g *bayes.DAG, maxCond int) ([]sc.SC, error) {
	nodes := g.Nodes()
	var out []sc.SC
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			x, y := nodes[i], nodes[j]
			rest := make([]string, 0, len(nodes)-2)
			for _, n := range nodes {
				if n != x && n != y {
					rest = append(rest, n)
				}
			}
			for _, z := range subsetsUpTo(rest, maxCond) {
				sep, err := g.DSeparated([]string{x}, []string{y}, z)
				if err != nil {
					return nil, err
				}
				if sep {
					out = append(out, sc.Independence([]string{x}, []string{y}, z))
				} else {
					out = append(out, sc.Dependence([]string{x}, []string{y}, z))
				}
			}
		}
	}
	return out, nil
}

// subsetsUpTo enumerates subsets of v with size <= k, in deterministic
// order (by size, then lexicographic index order).
func subsetsUpTo(v []string, k int) [][]string {
	out := [][]string{nil}
	var cur []string
	var rec func(start, remaining int)
	rec = func(start, remaining int) {
		if remaining == 0 {
			return
		}
		for i := start; i < len(v); i++ {
			cur = append(cur, v[i])
			out = append(out, append([]string(nil), cur...))
			rec(i+1, remaining-1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, k)
	return out
}
