package kernel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestDoCancelledWaiter: a waiter whose context ends while the leader is
// still computing returns the context error instead of blocking.
func TestDoCancelledWaiter(t *testing.T) {
	d := testRelation(t)
	c := New(d)
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.do(context.Background(), "k", func() (any, error) {
			close(leaderIn)
			<-release
			return 42, nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.do(ctx, "k", func() (any, error) { return 0, nil })
		waiterErr <- err
	}()
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}

	close(release)
	wg.Wait()
	// The leader was never disturbed: the value is cached and readable.
	v, err := c.do(context.Background(), "k", func() (any, error) { t.Error("recomputed"); return 0, nil })
	if err != nil || v != 42 {
		t.Fatalf("got (%v, %v), want (42, nil)", v, err)
	}
}

// TestDoPreCancelled: a context that is already done never runs compute,
// cached or not.
func TestDoPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []*Cache{nil, New(testRelation(t))} {
		_, err := c.do(ctx, "k", func() (any, error) { t.Error("compute ran"); return 0, nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cache=%v: err %v, want context.Canceled", c != nil, err)
		}
	}
}

// TestDoPanicHandsOff: a leader whose compute panics withdraws the entry; a
// waiter retries as the new leader instead of consuming a poisoned value,
// and the panic still propagates to the original caller.
func TestDoPanicHandsOff(t *testing.T) {
	d := testRelation(t)
	c := New(d)
	leaderIn := make(chan struct{})
	boom := make(chan struct{})

	waiterVal := make(chan any, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-leaderIn
		v, err := c.do(context.Background(), "k", func() (any, error) { return "recovered", nil })
		if err != nil {
			t.Errorf("retrying waiter failed: %v", err)
		}
		waiterVal <- v
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader's panic did not propagate")
			}
			close(boom)
		}()
		c.do(context.Background(), "k", func() (any, error) {
			close(leaderIn)
			panic("compute exploded")
		})
	}()

	<-boom
	wg.Wait()
	if v := <-waiterVal; v != "recovered" {
		t.Fatalf("waiter saw %v, want the recomputed value", v)
	}
}

// TestNestedLookupCancelled: a table leader whose nested codes lookup waits
// on another goroutine's in-flight coding returns its own context error
// instead of blocking, caches nothing, and the next caller recomputes.
func TestNestedLookupCancelled(t *testing.T) {
	d := testRelation(t)
	c := New(d)
	codingIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Categorical codings are keyed with bins normalized to 0.
		c.do(context.Background(), codesKey("A", 0, ""), func() (any, error) {
			close(codingIn)
			<-release
			codes, k := CodesFor(d, "A", 0, nil)
			return codesVal{codes: codes, k: k}, nil
		})
	}()
	<-codingIn

	ctx, cancel := context.WithCancel(context.Background())
	tableErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.TableContext(ctx, d, "A", "Z", 4, "", nil)
		tableErr <- err
	}()
	// The nested codes lookup counts a hit once it waits on the coding.
	for c.Stats().Hits == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-tableErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("table lookup under a cancelled nested wait returned %v, want context.Canceled", err)
	}

	close(release)
	wg.Wait()
	before := c.Stats().Misses
	if _, _, _, err := c.TableContext(context.Background(), d, "A", "Z", 4, "", nil); err != nil {
		t.Fatalf("table after handoff: %v", err)
	}
	if c.Stats().Misses == before {
		t.Fatal("the cancelled table computation was cached")
	}
}
