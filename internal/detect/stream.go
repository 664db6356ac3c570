package detect

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// Streamed detection (DESIGN.md section 16): CheckAllStream runs the one
// Algorithm 1 driver over streamSource, which reads every pair's
// per-stratum statistics from a single kernel.Streamer fold of the store's
// segments instead of a materialized relation. One scan serves the whole
// family: categorical pairs' contingency tables are counted online, and
// the columns the other pairs read are buffered once, shared by every pair
// and conditioning list that reads them. Results are bit-identical to
// CheckAllContext for every supported method: the fold reproduces the
// resident stratum's table, or its X and Y values in row order, and the
// test runs the same stats kernel on them (pinned by
// TestCheckAllStreamIdentity and FuzzCheckAllPaths).
//
// The streamed source is deliberately narrower than the resident one. The
// permutation tests (ExactG, ExactKendall, and the AutoExact fallback)
// need full per-stratum row vectors and a shared deterministic Rng, and
// Pearson/Spearman need whole-column float vectors in row order; those
// stay resident-only. StreamEligible gates the choice so callers fall
// back to materialization rather than silently changing statistics.

// StreamEligible reports whether a family run with opts can take the
// streaming path: closed-form G and Kendall (or Auto, which resolves to
// one of them) without the AutoExact permutation fallback.
func StreamEligible(opts Options) bool {
	if opts.AutoExact {
		return false
	}
	switch opts.Method {
	case Auto, G, Kendall:
		return true
	default:
		return false
	}
}

// CheckAllStream checks a family of approximate SCs against a streamed
// dataset. The result slice is element-for-element identical (same
// ordering, same Err wrapping, same FDR post-pass) to CheckAllContext on
// the materialized relation.
//
// The whole family costs one scan. Before the pool starts, CheckAllStream
// plans every constraint exactly as check does, lists the distinct
// stratified pairs the plans read, and folds them all in a single
// kernel.Streamer pass. The constraints then run on the engine pool like
// the resident family's, each stratum's table or Kendall vectors built
// inside its test and dropped after it. If the scan fails, every
// constraint it served reports the scan's error; constraints that failed
// their own planning (a missing column, say) keep that error. When ctx
// ends mid-family, finished constraints keep their results and the rest
// report the context error.
func CheckAllStream(ctx context.Context, st *kernel.Streamer, as []sc.Approximate, opts BatchOptions) ([]Result, error) {
	if err := checkFDR(opts.FDR); err != nil {
		return nil, err
	}
	src := &streamSource{st: st, pair: make(map[string]int)}
	for _, a := range as {
		o, leaves, err := plan(src, a, opts.Options)
		if err != nil {
			continue // check reports it again, as this constraint's Err
		}
		for _, l := range leaves {
			if l.err == nil {
				src.add(l.a.SC.Z, l.a.SC.X[0], l.a.SC.Y[0], l.method, o.Bins)
			}
		}
	}
	if len(src.pairs) > 0 {
		src.fold, src.err = st.Fold(ctx, src.pairs)
	}
	return checkAll(ctx, src, as, opts)
}

// streamSource serves a streamed dataset from one family fold: stratify
// looks the pair up in the fold the scan produced.
type streamSource struct {
	st    *kernel.Streamer
	pairs []kernel.StreamPair
	pair  map[string]int // pairKey → index in pairs and the fold
	fold  *kernel.StreamFold
	err   error // the fold's error, shared by every pair it served
}

// pairKey identifies a stratified pair by its (Z, X, Y, method, bins).
func pairKey(z []string, x, y string, method Method, bins int) string {
	return strings.Join(append([]string{method.String(), strconv.Itoa(bins), x, y}, z...), "\x00")
}

// add lists one pair for the fold, once however many leaves read it.
func (s *streamSource) add(z []string, x, y string, method Method, bins int) {
	k := pairKey(z, x, y, method, bins)
	if _, ok := s.pair[k]; ok {
		return
	}
	s.pair[k] = len(s.pairs)
	s.pairs = append(s.pairs, kernel.StreamPair{Z: z, X: x, Y: y, Kendall: method == Kendall, Bins: bins})
}

func (s *streamSource) columnKind(col string) (relation.Kind, bool) { return s.st.ColumnKind(col) }

func (s *streamSource) numRows() int { return s.st.Rows() }

func (s *streamSource) accepts(opts Options) error {
	if !StreamEligible(opts) {
		return fmt.Errorf("detect: method %s is not stream-eligible", opts.Method)
	}
	return nil
}

func (s *streamSource) stratify(_ context.Context, z []string, x, y string, method Method, opts Options) (strata, error) {
	if s.err != nil {
		return strata{}, fmt.Errorf("detect: %w", s.err)
	}
	p, ok := s.pair[pairKey(z, x, y, method, opts.Bins)]
	if !ok {
		return strata{}, fmt.Errorf("detect: %s against %s given %v was not folded", x, y, z)
	}
	return strata{
		keys: s.fold.Keys(p),
		size: func(i int) int { return s.fold.Size(p, i) },
		test: func(_ context.Context, i int) (stats.TestResult, error) {
			if method == Kendall {
				return stats.KendallTest(s.fold.Kendall(p, i))
			}
			return stats.GTest(s.fold.Table(p, i))
		},
	}, nil
}
