// Package resulterr is the fixture for the resulterr analyzer: since PR 1,
// detect.CheckAll records per-constraint failures on Result.Err instead of
// aborting, so readers of Violated / Test must consult Err first.
package resulterr

import (
	"context"

	"scoded/internal/detect"
	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
)

func badDiscardErr(d *relation.Relation, a sc.Approximate) detect.Result {
	r, _ := detect.Check(d, a, detect.Options{}) // want "error result of detect.Check discarded"
	return r
}

func badDiscardBatchErr(d *relation.Relation, as []sc.Approximate) []detect.Result {
	rs, _ := detect.CheckAll(d, as, detect.BatchOptions{}) // want "error result of detect.CheckAll discarded"
	return rs
}

func badDiscardContextErr(ctx context.Context, d *relation.Relation, a sc.Approximate) detect.Result {
	r, _ := detect.CheckContext(ctx, d, a, detect.Options{}) // want "error result of detect.CheckContext discarded"
	return r
}

func badContextReadWithoutErr(ctx context.Context, d *relation.Relation, as []sc.Approximate) bool {
	rs, _ := detect.CheckAllContext(ctx, d, as, detect.BatchOptions{}) // want "error result of detect.CheckAllContext discarded" "detect.CheckAllContext results are read without consulting Result.Err"
	return rs[0].Violated
}

func badStreamReadWithoutErr(ctx context.Context, str *kernel.Streamer, as []sc.Approximate) float64 {
	rs, err := detect.CheckAllStream(ctx, str, as, detect.BatchOptions{}) // want "detect.CheckAllStream results are read without consulting Result.Err"
	if err != nil {
		return 0
	}
	return rs[0].Test.P
}

func badDropEverything(d *relation.Relation, as []sc.Approximate) {
	detect.CheckAll(d, as, detect.BatchOptions{}) // want "results of detect.CheckAll discarded entirely"
}

func badReadWithoutErr(d *relation.Relation, as []sc.Approximate) int {
	rs, err := detect.CheckAll(d, as, detect.BatchOptions{}) // want "without consulting Result.Err"
	if err != nil {
		return 0
	}
	violations := 0
	for _, r := range rs {
		if r.Violated {
			violations++
		}
	}
	return violations
}

func goodErrConsulted(d *relation.Relation, as []sc.Approximate) int {
	rs, err := detect.CheckAll(d, as, detect.BatchOptions{})
	if err != nil {
		return 0
	}
	violations := 0
	for _, r := range rs {
		if r.Err != nil {
			continue
		}
		if r.Violated {
			violations++
		}
	}
	return violations
}

func goodForwardOnly(d *relation.Relation, as []sc.Approximate) ([]detect.Result, error) {
	return detect.CheckAll(d, as, detect.BatchOptions{})
}

func goodSingleCheck(d *relation.Relation, a sc.Approximate) (bool, error) {
	r, err := detect.Check(d, a, detect.Options{})
	if err != nil {
		return false, err
	}
	return r.Violated, nil
}
