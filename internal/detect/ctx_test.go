package detect

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"scoded/internal/engine"
	"scoded/internal/sc"
)

func batchFamily(n int) []sc.Approximate {
	var as []sc.Approximate
	for i := 1; i <= 3 && len(as) < n; i++ {
		as = append(as, sc.Approximate{SC: sc.MustParse("X _||_ " + nameD(i)), Alpha: 0.05})
	}
	for i := 1; i <= 8 && len(as) < n; i++ {
		as = append(as, sc.Approximate{SC: sc.MustParse("X _||_ " + nameI(i)), Alpha: 0.05})
	}
	return as
}

// TestCheckAllContextIdentity pins the engine refactor against the seed
// behavior: an uncancelled CheckAllContext is bit-identical to a
// sequential loop of Check over the same family.
func TestCheckAllContextIdentity(t *testing.T) {
	d := batchRelation(7)
	as := batchFamily(11)
	got, err := CheckAllContext(context.Background(), d, as, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, len(as))
	for i, a := range as {
		want[i], err = Check(d, a, Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CheckAllContext differs from a sequential Check loop:\n got %+v\nwant %+v", got, want)
	}
}

// TestCheckAllContextCancelMidBatch cancels after the first constraint
// completes (workers=1 makes the order deterministic): the finished
// constraint keeps its real result, every later one records an error
// wrapping both engine.ErrCancelled and context.Canceled.
func TestCheckAllContextCancelMidBatch(t *testing.T) {
	orig := checkForBatch
	defer func() { checkForBatch = orig }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	checkForBatch = func(ctx context.Context, src statSource, a sc.Approximate, opts Options) (Result, error) {
		r, err := check(ctx, src, a, opts)
		cancel()
		return r, err
	}

	d := batchRelation(3)
	as := batchFamily(5)
	results, err := CheckAllContext(ctx, d, as, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("finished constraint lost its result: %v", results[0].Err)
	}
	if results[0].Test.N == 0 {
		t.Fatal("finished constraint has a zero test")
	}
	for i := 1; i < len(results); i++ {
		err := results[i].Err
		if err == nil {
			t.Fatalf("constraint %d has no error after mid-batch cancel", i)
		}
		if !errors.Is(err, engine.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("constraint %d error %v does not wrap ErrCancelled and context.Canceled", i, err)
		}
		if !strings.Contains(err.Error(), "constraint") {
			t.Fatalf("constraint %d error %q lost the batch prefix", i, err)
		}
	}
}

// TestCheckAllContextPreCancelled: a context that is already dead checks
// nothing — every constraint drains with a wrapped cancellation error.
func TestCheckAllContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := batchRelation(5)
	as := batchFamily(4)
	results, err := CheckAllContext(ctx, d, as, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err == nil || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("constraint %d: got %v, want wrapped context.Canceled", i, r.Err)
		}
	}
}

// TestCheckAllContextPanicIsolation injects a panic into one constraint's
// worker: that constraint alone reports a *engine.PanicError while its
// siblings complete with real results.
func TestCheckAllContextPanicIsolation(t *testing.T) {
	orig := checkForBatch
	defer func() { checkForBatch = orig }()
	d := batchRelation(5)
	as := batchFamily(6)
	victim := as[2].SC.String()
	checkForBatch = func(ctx context.Context, src statSource, a sc.Approximate, opts Options) (Result, error) {
		if a.SC.String() == victim {
			panic("injected failure")
		}
		return check(ctx, src, a, opts)
	}

	results, err := CheckAllContext(context.Background(), d, as, BatchOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if i == 2 {
			var pe *engine.PanicError
			if r.Err == nil || !errors.As(r.Err, &pe) {
				t.Fatalf("panicking constraint: got %v, want wrapped *engine.PanicError", r.Err)
			}
			if !strings.Contains(r.Err.Error(), "injected failure") {
				t.Fatalf("panic value lost: %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("sibling %d infected by the panic: %v", i, r.Err)
		}
		if r.Test.N == 0 {
			t.Fatalf("sibling %d has a zero test", i)
		}
	}
}

// TestCheckContextDeadline: an expired deadline interrupts a single check
// with an error wrapping context.DeadlineExceeded.
func TestCheckContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	d := batchRelation(9)
	a := sc.Approximate{SC: sc.MustParse("X _||_ D1"), Alpha: 0.05}
	if _, err := CheckContext(ctx, d, a, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want wrapped context.DeadlineExceeded", err)
	}
}
