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
// family: the fold buffers each column the family reads once, shared by
// every pair and conditioning list, and keeps each stratum's row indices.
// A stratum's codes, table, values or Kendall result are built from the
// buffers inside its test, from the inputs the resident kernels read, so
// every method — the exact tests and the AutoExact fallback included — is
// bit-identical to CheckAllContext (pinned by TestCheckAllStreamIdentity
// and FuzzCheckAllPaths).

// CheckAllStream checks a family of approximate SCs against a streamed
// dataset. The result slice is element-for-element identical (same
// ordering, same Err wrapping, same FDR post-pass) to CheckAllContext on
// the materialized relation.
//
// The whole family costs one scan. Before the pool starts, CheckAllStream
// plans every constraint exactly as check does, lists the distinct
// stratified pairs the plans read, and folds them all in a single
// kernel.Streamer pass. The constraints then run on the engine pool like
// the resident family's, each stratum's statistics built inside its test
// and dropped after it. If the scan fails, every constraint it served
// reports the scan's error; constraints that failed their own planning (a
// missing column, say) keep that error. When ctx ends mid-family, finished
// constraints keep their results and the rest report the context error.
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
				src.add(l.a.SC.Z, l.a.SC.X[0], l.a.SC.Y[0], o.Bins)
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

// pairKey identifies a stratified pair by its (Z, X, Y, bins).
func pairKey(z []string, x, y string, bins int) string {
	return strings.Join(append([]string{strconv.Itoa(bins), x, y}, z...), "\x00")
}

// add lists one pair for the fold, once however many leaves read it.
func (s *streamSource) add(z []string, x, y string, bins int) {
	k := pairKey(z, x, y, bins)
	if _, ok := s.pair[k]; ok {
		return
	}
	s.pair[k] = len(s.pairs)
	s.pairs = append(s.pairs, kernel.StreamPair{Z: z, X: x, Y: y, Bins: bins})
}

func (s *streamSource) columnKind(col string) (relation.Kind, bool) { return s.st.ColumnKind(col) }

func (s *streamSource) numRows() int { return s.st.Rows() }

func (s *streamSource) stratify(_ context.Context, z []string, x, y string, opts Options) (strata, error) {
	if s.err != nil {
		return nil, fmt.Errorf("detect: %w", s.err)
	}
	p, ok := s.pair[pairKey(z, x, y, opts.Bins)]
	if !ok {
		return nil, fmt.Errorf("detect: %s against %s given %v was not folded", x, y, z)
	}
	return streamStrata{fold: s.fold, pair: p}, nil
}

// streamStrata is one pair of a family fold. Its statistics are built from
// the fold's buffers on every call and belong to the caller.
type streamStrata struct {
	fold *kernel.StreamFold
	pair int
}

func (s streamStrata) keys() []string { return s.fold.Keys(s.pair) }

func (s streamStrata) size(i int) int { return s.fold.Size(s.pair, i) }

func (s streamStrata) table(_ context.Context, i int) (stats.Table, error) {
	return stats.TableFromCodes(s.fold.Codes(s.pair, i)), nil
}

func (s streamStrata) codes(_ context.Context, i int) (x, y []int32, kx, ky int, err error) {
	x, y, kx, ky = s.fold.Codes(s.pair, i)
	return x, y, kx, ky, nil
}

func (s streamStrata) floats(_ context.Context, i int) (x, y []float64, err error) {
	x, y = s.fold.Floats(s.pair, i)
	return x, y, nil
}

func (s streamStrata) kendall(_ context.Context, i int) (stats.KendallResult, error) {
	return stats.Kendall(s.fold.Floats(s.pair, i))
}
