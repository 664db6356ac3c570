// Package eval implements the paper's quality measurement (Section 6.1):
// Precision@K, Recall@K and F-score@K over ranked error detections, plus
// curve sweeps over K for the figure harness.
package eval

import (
	"fmt"
)

// Metrics is one (precision, recall, F) triple at a fixed K.
type Metrics struct {
	K         int
	Precision float64
	Recall    float64
	F         float64
}

// At computes the metrics of a flagged record set against ground truth.
// truth[i] marks record i as genuinely erroneous.
func At(flagged []int, truth []bool) (Metrics, error) {
	total := 0
	for _, t := range truth {
		if t {
			total++
		}
	}
	hits := 0
	seen := make(map[int]bool, len(flagged))
	for _, r := range flagged {
		if r < 0 || r >= len(truth) {
			return Metrics{}, fmt.Errorf("eval: flagged row %d out of range (n=%d)", r, len(truth))
		}
		if seen[r] {
			return Metrics{}, fmt.Errorf("eval: row %d flagged twice", r)
		}
		seen[r] = true
		if truth[r] {
			hits++
		}
	}
	m := Metrics{K: len(flagged)}
	if len(flagged) > 0 {
		m.Precision = float64(hits) / float64(len(flagged))
	}
	if total > 0 {
		m.Recall = float64(hits) / float64(total)
	}
	if m.Precision+m.Recall > 0 {
		m.F = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m, nil
}

// Ranker produces the top-k flagged records of a detector for a given k.
// Detectors whose top-k is not a ranking prefix (e.g. the K^c drill-down
// strategy) recompute per k.
type Ranker func(k int) ([]int, error)

// Curve sweeps a Ranker over the given K values.
func Curve(r Ranker, truth []bool, ks []int) ([]Metrics, error) {
	out := make([]Metrics, 0, len(ks))
	for _, k := range ks {
		flagged, err := r(k)
		if err != nil {
			return nil, fmt.Errorf("eval: ranking at k=%d: %w", k, err)
		}
		m, err := At(flagged, truth)
		if err != nil {
			return nil, err
		}
		m.K = k
		out = append(out, m)
	}
	return out, nil
}

// MaxF returns the highest F-score on a curve.
func MaxF(curve []Metrics) float64 {
	best := 0.0
	for _, m := range curve {
		if m.F > best {
			best = m.F
		}
	}
	return best
}

// MeanF returns the average F-score over a curve.
func MeanF(curve []Metrics) float64 {
	if len(curve) == 0 {
		return 0
	}
	var s float64
	for _, m := range curve {
		s += m.F
	}
	return s / float64(len(curve))
}

// TruthCount returns the number of true errors.
func TruthCount(truth []bool) int {
	n := 0
	for _, t := range truth {
		if t {
			n++
		}
	}
	return n
}

// Ks builds a K sweep: from lo to hi in steps, always including hi.
func Ks(lo, hi, step int) []int {
	var out []int
	for k := lo; k < hi; k += step {
		out = append(out, k)
	}
	return append(out, hi)
}
