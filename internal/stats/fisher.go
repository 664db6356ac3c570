package stats

import "math"

// Hypergeometric is the distribution of the number of successes in Draws
// draws without replacement from a population of size N containing K
// successes.
type Hypergeometric struct {
	N, K, Draws int
}

// LogPMF returns ln P(X = k).
func (d Hypergeometric) LogPMF(k int) float64 {
	if k < 0 || k > d.Draws || k > d.K || d.Draws-k > d.N-d.K {
		return math.Inf(-1)
	}
	return logChoose(d.K, k) + logChoose(d.N-d.K, d.Draws-k) - logChoose(d.N, d.Draws)
}

// PMF returns P(X = k).
func (d Hypergeometric) PMF(k int) float64 { return math.Exp(d.LogPMF(k)) }

// logChoose returns ln C(n, k) via lgamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// CramersV returns the bias-uncorrected Cramér's V of a contingency table:
// sqrt(X² / (N·(min(r,c)−1))), in [0, 1].
func CramersV(t Table) (float64, error) {
	res, err := ChiSquareTest(t)
	if err != nil {
		return 0, err
	}
	rm, cm := t.Marginals()
	nr, nc := 0, 0
	for _, v := range rm {
		if v > 0 {
			nr++
		}
	}
	for _, v := range cm {
		if v > 0 {
			nc++
		}
	}
	minDim := nr
	if nc < minDim {
		minDim = nc
	}
	if minDim < 2 || res.N == 0 {
		return 0, nil
	}
	v := math.Sqrt(res.Statistic / (float64(res.N) * float64(minDim-1)))
	if v > 1 {
		v = 1
	}
	return v, nil
}
