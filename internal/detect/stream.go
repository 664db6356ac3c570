package detect

import (
	"context"
	"fmt"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// Streamed detection (DESIGN.md section 16): CheckAllStream runs the one
// Algorithm 1 driver over streamSource, which reads each pair's per-stratum
// statistics from a kernel.Streamer — contingency tables and Kendall
// partials merged across store chunks — instead of a materialized relation.
// Results are bit-identical to CheckAllContext for every supported method:
// the partials reproduce the exact integers, coding order, and float
// arithmetic of the resident kernels (pinned by TestCheckAllStreamIdentity,
// FuzzCheckAllPaths and the stats partial property tests).
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
// the materialized relation. Constraints run one at a time (Workers is
// forced to 1) — each one is a full scan pass over the store, so the
// working set stays bounded by one tested column pair instead of the whole
// dataset; the trade is I/O for memory. When ctx ends mid-family, finished
// constraints keep their results and the rest report the context error.
func CheckAllStream(ctx context.Context, st *kernel.Streamer, as []sc.Approximate, opts BatchOptions) ([]Result, error) {
	opts.Workers = 1
	return checkAll(ctx, streamSource{st}, as, opts)
}

// streamSource serves a streamed dataset: one scan pass per stratified pair.
type streamSource struct{ st *kernel.Streamer }

func (s streamSource) columnKind(col string) (relation.Kind, bool) { return s.st.ColumnKind(col) }

func (s streamSource) numRows() int { return s.st.Rows() }

func (s streamSource) accepts(opts Options) error {
	if !StreamEligible(opts) {
		return fmt.Errorf("detect: method %s is not stream-eligible", opts.Method)
	}
	return nil
}

func (s streamSource) stratify(ctx context.Context, z []string, x, y string, method Method, opts Options) (strata, error) {
	var res *kernel.StreamResult
	var err error
	if method == Kendall {
		res, err = s.st.RunKendall(ctx, z, x, y)
	} else {
		res, err = s.st.RunTable(ctx, z, x, y, opts.Bins)
	}
	if err != nil {
		return strata{}, fmt.Errorf("detect: %w", err)
	}
	keys := res.Keys
	if len(z) == 0 {
		keys = marginalKeys // a zero-row marginal run yields no stratum at all
	}
	stratum := func(i int) *kernel.StreamStratum {
		if st := res.Strata[keys[i]]; st != nil {
			return st
		}
		// Zero-row dataset: an empty stratum, so the test errors exactly
		// like the resident path's empty-input errors.
		return &kernel.StreamStratum{Kendall: stats.NewKendallPartial()}
	}
	return strata{
		keys: keys,
		size: func(i int) int { return stratum(i).Size },
		test: func(_ context.Context, i int) (stats.TestResult, error) {
			if method == Kendall {
				return stratum(i).Kendall.Test()
			}
			return stats.GTest(stratum(i).Table)
		},
	}, nil
}
