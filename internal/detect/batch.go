package detect

import (
	"context"
	"fmt"

	"scoded/internal/engine"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// BatchOptions configures CheckAll.
type BatchOptions struct {
	// Options apply to every individual check.
	Options
	// FDR, when positive, replaces the per-constraint alpha decisions with
	// family-wise Benjamini-Hochberg control at that false discovery
	// rate: independence SCs are flagged violated when their p-value is
	// BH-rejected within the ISC family; dependence SCs when their
	// p-value is NOT rejected within the DSC family (their violation
	// direction inverts, so the DSC family is tested on the dependence
	// evidence). Zero keeps Algorithm 1's per-constraint rule.
	FDR float64
	// Workers bounds the worker pool checking constraints concurrently.
	// Zero or negative means runtime.GOMAXPROCS(0). A caller-supplied
	// Options.Rng forces sequential execution (Workers=1), because a
	// shared *rand.Rand is not safe for concurrent use; leave Rng nil to
	// let every worker seed its own deterministic default.
	Workers int
	// Hooks observes per-constraint execution (the server wires these into
	// /metrics as an in-flight gauge and latency counters). Optional.
	Hooks engine.Hooks
}

// checkForBatch is the per-constraint check the batch runs; a variable so
// the panic-isolation test can inject a panicking constraint without
// corrupting real datasets.
var checkForBatch = check

// CheckAll checks a family with no deadline; see CheckAllContext.
func CheckAll(d *relation.Relation, as []sc.Approximate, opts BatchOptions) ([]Result, error) {
	return CheckAllContext(context.Background(), d, as, opts)
}

// CheckAllContext checks a family of approximate SCs against one dataset,
// fanning the per-constraint checks out over the engine's bounded worker
// pool. Results are returned in input order and are identical to a
// sequential run.
//
// A constraint that cannot be checked (malformed, missing column, wrong
// method for its column kinds) no longer aborts the family: its Result
// carries the failure in Err, its Test is the zero value, and the
// remaining constraints are still checked. A panic inside one constraint's
// worker surfaces the same way, as that constraint's Err wrapping
// *engine.PanicError. When ctx ends mid-batch the completed constraints
// keep their real results and every unfinished one reports an Err wrapping
// the context's error — partial results, never a hung pool. Errored
// constraints are excluded from FDR control. CheckAllContext itself only
// returns a non-nil error for family-level problems (an FDR level out of
// range).
//
// With FDR control enabled the multiple-testing problem of enforcing many
// constraints at once (the paper's Nebraska setting runs thirty per-year
// tests) is handled by Benjamini-Hochberg within each constraint
// direction.
func CheckAllContext(ctx context.Context, d *relation.Relation, as []sc.Approximate, opts BatchOptions) ([]Result, error) {
	return checkAll(ctx, residentSource{d}, as, opts)
}

// checkAll runs check over the family on the engine pool, records
// per-constraint failures in Err, and applies the FDR post-pass.
func checkAll(ctx context.Context, src statSource, as []sc.Approximate, opts BatchOptions) ([]Result, error) {
	if err := checkFDR(opts.FDR); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if opts.Rng != nil {
		// A shared Rng cannot be used from several goroutines.
		workers = 1
	}
	results := make([]Result, len(as))
	errs := engine.Run(ctx, len(as), engine.Options{Workers: workers, Hooks: opts.Hooks},
		func(ctx context.Context, i int) error {
			r, err := checkForBatch(ctx, src, as[i], opts.Options)
			if err != nil {
				r = Result{Constraint: as[i], Err: fmt.Errorf("constraint %d (%s): %w", i, as[i].SC, err)}
			}
			results[i] = r
			return r.Err
		})
	// Items the function never finished — a recovered panic, or a queue
	// entry drained by cancellation — wrote no Result; record the engine's
	// per-item error the same way a check failure is recorded.
	for i, err := range errs {
		if err != nil && results[i].Err == nil {
			results[i] = Result{Constraint: as[i], Err: fmt.Errorf("constraint %d (%s): %w", i, as[i].SC, err)}
		}
	}
	if opts.FDR <= 0 {
		return results, nil
	}
	if err := applyFDR(results, opts.FDR); err != nil {
		return nil, err
	}
	return results, nil
}

// checkFDR rejects an FDR level outside [0, 1], the one family-level error.
func checkFDR(fdr float64) error {
	if fdr < 0 || fdr > 1 {
		return fmt.Errorf("detect: FDR level %v out of [0,1]", fdr)
	}
	return nil
}

// applyFDR replaces the per-constraint alpha decisions in results with
// family-wise Benjamini-Hochberg control.
//
// Partition by direction: ISC violations are small-p discoveries;
// DSC violations are failures to discover dependence. Errored
// constraints carry no p-value and stay out of both families.
func applyFDR(results []Result, fdr float64) error {
	var iscIdx, dscIdx []int
	var iscPs, dscPs []float64
	for i, r := range results {
		if r.Err != nil {
			continue
		}
		if r.Constraint.SC.Dependence {
			dscIdx = append(dscIdx, i)
			dscPs = append(dscPs, r.Test.P)
		} else {
			iscIdx = append(iscIdx, i)
			iscPs = append(iscPs, r.Test.P)
		}
	}
	if len(iscIdx) > 0 {
		rej, err := stats.BenjaminiHochberg(iscPs, fdr)
		if err != nil {
			return err
		}
		for j, i := range iscIdx {
			results[i].Violated = rej[j]
		}
	}
	if len(dscIdx) > 0 {
		rej, err := stats.BenjaminiHochberg(dscPs, fdr)
		if err != nil {
			return err
		}
		for j, i := range dscIdx {
			// A DSC is satisfied when its dependence is discovered.
			results[i].Violated = !rej[j]
		}
	}
	return nil
}
