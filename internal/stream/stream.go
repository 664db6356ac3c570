// Package stream implements the paper's Section 8 "incremental on-line
// SCODED" future-work direction: monitors that maintain an approximate SC
// over a stream of record insertions (and optional sliding-window
// evictions) without re-running detection from scratch.
//
// The categorical monitor maintains the G statistic in O(1) amortized per
// update, using the marginal-decomposed form
// G = 2(Σ O lnO − Σ R lnR − Σ C lnC + N lnN): an insertion touches one
// cell, one row marginal, one column marginal and N. The three running
// sums are Kahan-compensated and periodically re-anchored by an exact
// recomputation from the integer cell counts, so the incremental G agrees
// with a from-scratch batch recompute to ~1e-12 even after arbitrarily
// long windows of turnover. The delta path allocates nothing in steady
// state: the FIFO window is a ring buffer and every map key it touches
// already exists.
//
// The numeric monitor maintains the Kendall pair sum n_c − n_d exactly as
// an integer through a Fenwick-tree concordance index over compressed
// ranks (internal/segtree): each insert or evict costs amortized
// O(√(w log w)) — polylogarithmic queries against a rank-compressed
// snapshot plus a bounded delta-buffer scan — instead of the seed-era O(w)
// walk over every resident point. Tie aggregates for the tie-corrected
// z-score are maintained in O(1) per update. Both conditional monitors
// inherit the incremental kernels through their per-stratum sub-monitors.
package stream

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"scoded/internal/stats"
)

// Verdict is a monitor's current judgement of its constraint.
type Verdict struct {
	// Statistic is the current test statistic (G, or the tie-corrected
	// Kendall z-score).
	Statistic float64
	// P is the current p-value.
	P float64
	// DF is the chi-squared degrees of freedom (categorical only).
	DF int
	// N is the number of records currently in the window.
	N int
	// Violated applies Algorithm 1's rule with the monitor's constraint
	// direction and alpha: an ISC is violated when p < α, a DSC when
	// p >= α.
	Violated bool
}

// decide applies the violation rule.
func decide(p, alpha float64, dependence bool) bool {
	if dependence {
		return p >= alpha
	}
	return p < alpha
}

// anchorEvery bounds how many cell-delta mutations the categorical sums
// accumulate before an exact re-anchor from the integer counts. 256 keeps
// the compensated drift well under the 1e-12 differential budget while
// amortizing the O(cells) recompute to a fraction of a map update.
const anchorEvery = 256

// CategoricalMonitor tracks an SC between two categorical variables.
type CategoricalMonitor struct {
	alpha      float64
	dependence bool
	window     int

	joint   map[[2]string]int
	rowMarg map[string]int
	colMarg map[string]int
	n       int

	// Incrementally maintained Σ x lnx aggregates (Kahan-compensated,
	// re-anchored every anchorEvery mutations).
	sumOlnO, sumRlnR, sumClnC ksum
	mutations                 int

	fifo pairRing
}

// NewCategoricalMonitor creates a monitor for X ⊥ Y (dependence=false) or
// X ⊥̸ Y (dependence=true) at significance alpha. window > 0 bounds the
// number of retained records (FIFO eviction); 0 means unbounded.
func NewCategoricalMonitor(alpha float64, dependence bool, window int) (*CategoricalMonitor, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("stream: alpha %v out of [0,1]", alpha)
	}
	if window < 0 {
		return nil, fmt.Errorf("stream: negative window %d", window)
	}
	return &CategoricalMonitor{
		alpha:      alpha,
		dependence: dependence,
		window:     window,
		joint:      make(map[[2]string]int),
		rowMarg:    make(map[string]int),
		colMarg:    make(map[string]int),
	}, nil
}

func deltaXlnX(oldV int, d int) float64 {
	return xlnx(float64(oldV+d)) - xlnx(float64(oldV))
}

func xlnx(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log(x)
}

// ksum is a Kahan-compensated running sum: add/subtract drift stays at a
// few ulps regardless of how many deltas pass through between anchors.
type ksum struct{ v, c float64 }

func (k *ksum) add(x float64) {
	y := x - k.c
	t := k.v + y
	k.c = (t - k.v) - y
	k.v = t
}

func (k *ksum) value() float64 { return k.v }

// Insert adds one record, evicting the oldest when the window is full.
func (m *CategoricalMonitor) Insert(x, y string) {
	if m.window > 0 && m.n >= m.window {
		old := m.fifo.popFront()
		m.remove(old[0], old[1])
	}
	m.add(x, y)
	if m.window > 0 {
		m.fifo.push([2]string{x, y})
	}
}

// Remove deletes one occurrence of (x, y); it errors if none is present.
// It is intended for callers managing their own retention policy (window
// must be 0).
func (m *CategoricalMonitor) Remove(x, y string) error {
	if m.window > 0 {
		return fmt.Errorf("stream: Remove on a windowed monitor; the window evicts automatically")
	}
	if m.joint[[2]string{x, y}] == 0 {
		return fmt.Errorf("stream: no record (%q, %q) to remove", x, y)
	}
	m.remove(x, y)
	return nil
}

func (m *CategoricalMonitor) add(x, y string) {
	key := [2]string{x, y}
	m.sumOlnO.add(deltaXlnX(m.joint[key], 1))
	m.sumRlnR.add(deltaXlnX(m.rowMarg[x], 1))
	m.sumClnC.add(deltaXlnX(m.colMarg[y], 1))
	m.joint[key]++
	m.rowMarg[x]++
	m.colMarg[y]++
	m.n++
	m.bumpAnchor()
}

func (m *CategoricalMonitor) remove(x, y string) {
	key := [2]string{x, y}
	m.sumOlnO.add(deltaXlnX(m.joint[key], -1))
	m.sumRlnR.add(deltaXlnX(m.rowMarg[x], -1))
	m.sumClnC.add(deltaXlnX(m.colMarg[y], -1))
	m.joint[key]--
	if m.joint[key] == 0 {
		delete(m.joint, key)
	}
	m.rowMarg[x]--
	if m.rowMarg[x] == 0 {
		delete(m.rowMarg, x)
	}
	m.colMarg[y]--
	if m.colMarg[y] == 0 {
		delete(m.colMarg, y)
	}
	m.n--
	m.bumpAnchor()
}

func (m *CategoricalMonitor) bumpAnchor() {
	m.mutations++
	if m.mutations >= anchorEvery {
		m.anchor()
	}
}

// anchor recomputes the three running sums exactly from the integer
// counts, discarding any accumulated floating drift. Each sum is exact
// until its conversion to float64, so its bits depend on the counts alone,
// not on the order the maps iterate in. Cost is O(cells), amortized over
// anchorEvery mutations; it allocates nothing.
func (m *CategoricalMonitor) anchor() {
	m.mutations = 0
	m.sumOlnO = anchorSum(m.joint)
	m.sumRlnR = anchorSum(m.rowMarg)
	m.sumClnC = anchorSum(m.colMarg)
}

// anchorSum returns Σ v·ln v over the map's counts, accumulated exactly
// as a 128-bit fixed-point number with 64 fraction bits, then converted to
// float64. A count of at least 2 gives a term of at least 2·ln 2, whose
// bits all lie at or above 2⁻⁵², and N·ln N bounds the total for N
// records, so the accumulation is exact while the monitor holds fewer
// than 2⁵⁷ records.
func anchorSum[K comparable](counts map[K]int) ksum {
	var hi, lo uint64
	for _, v := range counts {
		b := math.Float64bits(xlnx(float64(v)))
		if b == 0 {
			continue // a count of 1 adds nothing
		}
		mant := b&(1<<52-1) | 1<<52
		var thi, tlo uint64
		// The term is mant·2^(e−1075) for the biased exponent e, so
		// mant·2^shift units of 2⁻⁶⁴.
		if shift := int(b>>52) - 1011; shift < 64 {
			thi, tlo = mant>>(64-shift), mant<<shift
		} else {
			thi = mant << (shift - 64)
		}
		var carry uint64
		lo, carry = bits.Add64(lo, tlo, 0)
		hi += thi + carry
	}
	return ksum{v: float64(hi) + float64(lo)*0x1p-64}
}

// N returns the current record count.
func (m *CategoricalMonitor) N() int { return m.n }

// G returns the current G statistic. The running sums drift by a few ulps
// of their largest term, N·ln N. At or below 2⁻⁴⁵·N·ln N, where the χ²
// survival's slope is unbounded and such drift would show in the p-value,
// G is summed again from the exact anchor sums, so it depends on the
// counts alone, not on the order the records came in. Larger values keep
// the running sums' bits.
func (m *CategoricalMonitor) G() float64 {
	nlnn := xlnx(float64(m.n))
	s := m.sumOlnO.value() - m.sumRlnR.value() - m.sumClnC.value() + nlnn
	if s <= 0x1p-46*nlnn {
		s = anchorSum(m.joint).v - anchorSum(m.rowMarg).v - anchorSum(m.colMarg).v + nlnn
	}
	g := 2 * s
	if g < 0 {
		return 0
	}
	return g
}

// Verdict evaluates the constraint on the current window.
func (m *CategoricalMonitor) Verdict() Verdict {
	df := (len(m.rowMarg) - 1) * (len(m.colMarg) - 1)
	v := Verdict{Statistic: m.G(), DF: df, N: m.n}
	if df <= 0 {
		v.P = 1
	} else {
		v.P = stats.ChiSquared{K: float64(df)}.Survival(v.Statistic)
	}
	v.Violated = decide(v.P, m.alpha, m.dependence)
	return v
}

// NumericMonitor tracks an SC between two numeric variables via the
// Kendall pair sum with tie-corrected Gaussian p-values. Inserts and
// window evictions cost amortized O(√(w log w)) through the concordance
// index; the pair sum is maintained exactly as an integer.
//
// Observations must be finite: feed data through InsertBatch (which
// rejects NaN/±Inf) or validate before calling Insert, whose statistics
// are undefined under non-finite inputs.
type NumericMonitor struct {
	alpha      float64
	dependence bool
	window     int

	idx concordanceIndex // resident observations, in arrival order
	s   int64            // current nc - nd, exact

	xTies *tieTracker
	yTies *tieTracker
}

// NewNumericMonitor creates a numeric monitor; see NewCategoricalMonitor
// for the parameters.
func NewNumericMonitor(alpha float64, dependence bool, window int) (*NumericMonitor, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("stream: alpha %v out of [0,1]", alpha)
	}
	if window < 0 {
		return nil, fmt.Errorf("stream: negative window %d", window)
	}
	m := &NumericMonitor{
		alpha:      alpha,
		dependence: dependence,
		window:     window,
		xTies:      newTieTracker(),
		yTies:      newTieTracker(),
	}
	m.idx.limit = 64
	return m, nil
}

// Insert adds one observation, evicting the oldest when the window is
// full.
func (m *NumericMonitor) Insert(x, y float64) {
	if m.window > 0 && m.idx.len() >= m.window {
		m.evictOldest()
	}
	m.s += m.idx.signedSum(x, y)
	m.idx.add(x, y)
	m.xTies.add(x)
	m.yTies.add(y)
}

// evictOldest removes the oldest observation. The signed sum is queried
// while the point is still resident: its self-term is zero, so the result
// is exactly its concordance against every other resident.
func (m *NumericMonitor) evictOldest() {
	x, y := m.idx.oldest()
	m.s -= m.idx.signedSum(x, y)
	m.idx.drop()
	m.xTies.remove(x)
	m.yTies.remove(y)
}

// N returns the current observation count.
func (m *NumericMonitor) N() int { return m.idx.len() }

// PairSum returns the current nc - nd.
func (m *NumericMonitor) PairSum() float64 { return float64(m.s) }

// TauB returns the current tie-corrected Kendall coefficient.
func (m *NumericMonitor) TauB() float64 {
	n := int64(m.idx.len())
	n0 := n * (n - 1) / 2
	den := math.Sqrt(float64(n0-m.xTies.pairs) * float64(n0-m.yTies.pairs))
	if den <= 0 {
		return 0
	}
	t := float64(m.s) / den
	if t > 1 {
		t = 1
	} else if t < -1 {
		t = -1
	}
	return t
}

// Verdict evaluates the constraint on the current window using the
// tie-corrected normal approximation.
func (m *NumericMonitor) Verdict() Verdict {
	n := float64(m.idx.len())
	v := Verdict{N: m.idx.len()}
	if n < 2 {
		v.P = 1
		v.Violated = decide(v.P, m.alpha, m.dependence)
		return v
	}
	variance := (n*(n-1)*(2*n+5)-m.xTies.vT-m.yTies.vT)/18 +
		m.xTies.s1*m.yTies.s1/(2*n*(n-1))
	if n > 2 {
		variance += m.xTies.s2 * m.yTies.s2 / (9 * n * (n - 1) * (n - 2))
	}
	if variance <= 0 {
		v.P = 1
		v.Violated = decide(v.P, m.alpha, m.dependence)
		return v
	}
	v.Statistic = float64(m.s) / math.Sqrt(variance)
	v.P = stats.StdNormal.TwoSidedP(v.Statistic)
	v.Violated = decide(v.P, m.alpha, m.dependence)
	return v
}

// tieTracker maintains tie-group aggregates under add/remove:
// pairs = Σ t(t−1)/2, s1 = Σ t(t−1), s2 = Σ t(t−1)(t−2),
// vT = Σ t(t−1)(2t+5) — the terms of the Kendall variance formula. Every
// aggregate is a sum of integers, so the float64 fields are exact for any
// realistic window.
type tieTracker struct {
	count map[float64]int64
	pairs int64
	s1    float64
	s2    float64
	vT    float64
}

func newTieTracker() *tieTracker {
	return &tieTracker{count: make(map[float64]int64)}
}

func (t *tieTracker) add(v float64) {
	old := t.count[v]
	t.apply(old, -1)
	t.count[v] = old + 1
	t.apply(old+1, 1)
}

func (t *tieTracker) remove(v float64) {
	old := t.count[v]
	t.apply(old, -1)
	if old <= 1 {
		delete(t.count, v)
	} else {
		t.count[v] = old - 1
	}
	t.apply(old-1, 1)
}

// apply adds sign times the group-size terms for a group of size g.
func (t *tieTracker) apply(g int64, sign float64) {
	if g < 2 {
		return
	}
	fg := float64(g)
	t.pairs += int64(sign) * g * (g - 1) / 2
	t.s1 += sign * fg * (fg - 1)
	t.s2 += sign * fg * (fg - 1) * (fg - 2)
	t.vT += sign * fg * (fg - 1) * (2*fg + 5)
}

// ConditionalNumericMonitor stratifies a numeric monitor on a conditioning
// key, combining per-stratum Kendall z-scores with the weighted Stouffer
// rule, as the batch detector does for conditional numeric constraints.
type ConditionalNumericMonitor struct {
	alpha      float64
	dependence bool
	window     int
	minStratum int
	strata     map[string]*NumericMonitor
	keys       []string // stratum keys, sorted: the order Verdict combines them in
}

// NewConditionalNumericMonitor creates a per-stratum numeric monitor for
// X ⊥ Y | Z (or ⊥̸). window bounds each stratum independently; strata with
// fewer than minStratum records are excluded from the combined verdict
// (default 5 when zero).
func NewConditionalNumericMonitor(alpha float64, dependence bool, window, minStratum int) (*ConditionalNumericMonitor, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("stream: alpha %v out of [0,1]", alpha)
	}
	if minStratum <= 0 {
		minStratum = 5
	}
	return &ConditionalNumericMonitor{
		alpha:      alpha,
		dependence: dependence,
		window:     window,
		minStratum: minStratum,
		strata:     make(map[string]*NumericMonitor),
	}, nil
}

// Insert routes an observation to its stratum. As for
// NumericMonitor.Insert, x and y must be finite: the stratum's statistics
// are undefined under NaN or ±Inf.
func (m *ConditionalNumericMonitor) Insert(z string, x, y float64) {
	sm, ok := m.strata[z]
	if !ok {
		sm, _ = NewNumericMonitor(m.alpha, m.dependence, m.window)
		m.strata[z] = sm
		m.keys = insertSorted(m.keys, z)
	}
	sm.Insert(x, y)
}

// insertSorted inserts k, absent from the sorted keys, in order.
func insertSorted(keys []string, k string) []string {
	i := sort.SearchStrings(keys, k)
	keys = append(keys, "")
	copy(keys[i+1:], keys[i:])
	keys[i] = k
	return keys
}

// Verdict combines the per-stratum z-scores by the sqrt(n)-weighted
// Stouffer rule over the eligible strata, in sorted key order as the batch
// detector does, so repeated calls answer the same bits.
func (m *ConditionalNumericMonitor) Verdict() Verdict {
	var num, den float64
	n := 0
	eligible := 0
	for _, k := range m.keys {
		sm := m.strata[k]
		n += sm.N()
		if sm.N() < m.minStratum {
			continue
		}
		sv := sm.Verdict()
		w := math.Sqrt(float64(sm.N()))
		num += w * sv.Statistic
		den += w * w
		eligible++
	}
	v := Verdict{N: n}
	if eligible == 0 || den <= 0 {
		v.P = 1
		v.Violated = decide(v.P, m.alpha, m.dependence)
		return v
	}
	v.Statistic = num / math.Sqrt(den)
	v.P = stats.StdNormal.TwoSidedP(v.Statistic)
	v.Violated = decide(v.P, m.alpha, m.dependence)
	return v
}

// ConditionalMonitor stratifies a categorical monitor on a conditioning
// key, combining per-stratum G statistics as in the batch detector.
type ConditionalMonitor struct {
	alpha      float64
	dependence bool
	window     int
	minStratum int
	strata     map[string]*CategoricalMonitor
	keys       []string // stratum keys, sorted: the order Verdict combines them in
}

// NewConditionalMonitor creates a per-stratum monitor for
// X ⊥ Y | Z (or ⊥̸). window bounds each stratum independently; strata with
// fewer than minStratum records are excluded from the combined verdict
// (default 5 when zero).
func NewConditionalMonitor(alpha float64, dependence bool, window, minStratum int) (*ConditionalMonitor, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("stream: alpha %v out of [0,1]", alpha)
	}
	if minStratum <= 0 {
		minStratum = 5
	}
	return &ConditionalMonitor{
		alpha:      alpha,
		dependence: dependence,
		window:     window,
		minStratum: minStratum,
		strata:     make(map[string]*CategoricalMonitor),
	}, nil
}

// Insert routes a record to its stratum.
func (m *ConditionalMonitor) Insert(z, x, y string) {
	sm, ok := m.strata[z]
	if !ok {
		sm, _ = NewCategoricalMonitor(m.alpha, m.dependence, m.window)
		m.strata[z] = sm
		m.keys = insertSorted(m.keys, z)
	}
	sm.Insert(x, y)
}

// Verdict combines the per-stratum G statistics (summed G and degrees of
// freedom, referred to the chi-squared with the summed df), in sorted key
// order as the batch detector does, so repeated calls answer the same
// bits.
func (m *ConditionalMonitor) Verdict() Verdict {
	var g float64
	var df, n int
	for _, k := range m.keys {
		sm := m.strata[k]
		n += sm.n
		if sm.n < m.minStratum {
			continue
		}
		sdf := (len(sm.rowMarg) - 1) * (len(sm.colMarg) - 1)
		if sdf <= 0 {
			continue
		}
		g += sm.G()
		df += sdf
	}
	v := Verdict{Statistic: g, DF: df, N: n}
	if df <= 0 {
		v.P = 1
	} else {
		v.P = stats.ChiSquared{K: float64(df)}.Survival(g)
	}
	v.Violated = decide(v.P, m.alpha, m.dependence)
	return v
}
