package drilldown

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"scoded/internal/sc"
)

// fakeStratum is a scripted greedy stratum: after m takes its best
// candidate scores scores[m], and its m-th take removes rows[m-1]. It
// counts its takes, so a test can prove the greedy made no speculative one.
type fakeStratum struct {
	rows   []int
	scores []float64 // parallel to rows
	takes  int
}

func (f *fakeStratum) size() int { return len(f.rows) - f.takes }

func (f *fakeStratum) scan(direction) (float64, bool) { return f.best() }

func (f *fakeStratum) take(direction) (int, float64, bool) {
	row := f.rows[f.takes]
	f.takes++
	score, ok := f.best()
	return row, score, ok
}

func (f *fakeStratum) stat() float64 { return 0 }

func (f *fakeStratum) appendLive(out []int) []int { return append(out, f.rows[f.takes:]...) }

func (f *fakeStratum) best() (float64, bool) {
	if f.takes == len(f.rows) {
		return 0, false
	}
	return f.scores[f.takes], true
}

// fakeStrata builds fresh strata of the given sizes from one script: row
// ids name their stratum, and scores come from four levels, so equal
// scores across strata are common and the tie-break carries the order.
func fakeStrata(seed int64, sizes []int) []*fakeStratum {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*fakeStratum, len(sizes))
	for z, n := range sizes {
		f := &fakeStratum{}
		for m := 0; m < n; m++ {
			f.rows = append(f.rows, 1000*z+m)
			f.scores = append(f.scores, float64(rng.Intn(4)))
		}
		out[z] = f
	}
	return out
}

// mergeSequential is the reference merge: every round scans every
// stratum's current best and takes the highest, the lowest stratum index
// among equal scores, as the linear greedy does.
func mergeSequential(strata []*fakeStratum, rounds int) []int {
	var removed []int
	for round := 0; round < rounds; round++ {
		sel, top := -1, 0.0
		for z, f := range strata {
			if score, ok := f.best(); ok && (sel == -1 || score > top) {
				sel, top = z, score
			}
		}
		if sel == -1 {
			break
		}
		row, _, _ := strata[sel].take(direction{})
		removed = append(removed, row)
	}
	return removed
}

// asGreedy returns the fake strata as the drill's strata.
func asGreedy(fs []*fakeStratum) []greedyStratum {
	out := make([]greedyStratum, len(fs))
	for z, f := range fs {
		out[z] = f
	}
	return out
}

func totalTakes(strata []*fakeStratum) int {
	n := 0
	for _, f := range strata {
		n += f.takes
	}
	return n
}

// shares returns each stratum's guaranteed share g_z = rounds − (T − n_z).
func shares(sizes []int, rounds int) []int {
	total := 0
	for _, n := range sizes {
		total += n
	}
	g := make([]int, len(sizes))
	for z, n := range sizes {
		g[z] = rounds - total + n
	}
	return g
}

// TestGreedyPrefixMatchesSequentialMerge drives greedyDelta over scripted
// strata at every worker count from 1 to 8: its rows must be the reference
// merge's, in order, and its take calls must number exactly the rounds
// made, so the pool takes nothing a sequential run would not.
func TestGreedyPrefixMatchesSequentialMerge(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, 1+rng.Intn(6))
		total := 0
		for z := range sizes {
			sizes[z] = rng.Intn(26)
			total += sizes[z]
		}
		for _, rounds := range []int{0, 1, total / 3, total / 2, total - 5, total - 1, total} {
			if rounds < 0 {
				continue
			}
			want := mergeSequential(fakeStrata(seed, sizes), rounds)
			for workers := 1; workers <= 8; workers++ {
				strata := fakeStrata(seed, sizes)
				got, err := greedyDelta(context.Background(), asGreedy(strata), rounds, direction{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed %d sizes %v rounds %d workers %d", seed, sizes, rounds, workers)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: rows %v, want %v", label, got, want)
				}
				if n := totalTakes(strata); n != len(want) {
					t.Fatalf("%s: %d take calls for %d rounds", label, n, len(want))
				}
			}
		}
	}
}

// TestGreedyPrefixShares pins which runs start the pool: only those in
// which at least two strata have a positive share, each recording its
// first scan and exactly g_z takes. A K drill has one when a stratum holds
// more than T − k records.
func TestGreedyPrefixShares(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sizes  []int
		rounds int
		pool   bool
	}{
		{"K with two shares", []int{10, 10, 1}, 15, true}, // T − k = 6
		{"K with one share", []int{40, 3, 2}, 10, false},  // only the first
		{"K with none", []int{12, 5, 4}, 5, false},
		{"marginal", []int{30}, 29, false},
		{"Kc", []int{9, 14, 7, 11}, 41 - 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := shares(tc.sizes, tc.rounds)
			for workers := 1; workers <= 8; workers++ {
				strata := fakeStrata(1, tc.sizes)
				steps, taken, err := greedyPrefix(context.Background(), asGreedy(strata), tc.rounds, direction{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				if (steps != nil) != tc.pool {
					t.Fatalf("workers %d: pool started %v, want %v", workers, steps != nil, tc.pool)
				}
				wantTaken := 0
				for z, f := range strata {
					share := 0
					if tc.pool && g[z] > 0 {
						share = g[z]
						if len(steps[z]) != share+1 {
							t.Fatalf("workers %d: stratum %d recorded %d steps, want %d", workers, z, len(steps[z]), share+1)
						}
					}
					if f.takes != share {
						t.Fatalf("workers %d: stratum %d took %d, want its share %d", workers, z, f.takes, share)
					}
					wantTaken += share
				}
				if taken != wantTaken {
					t.Fatalf("workers %d: reported %d takes, want %d", workers, taken, wantTaken)
				}
			}
			want := mergeSequential(fakeStrata(1, tc.sizes), tc.rounds)
			got, err := greedyDelta(context.Background(), asGreedy(fakeStrata(1, tc.sizes)), tc.rounds, direction{}, 3)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("rows %v (err %v), want %v", got, err, want)
			}
		})
	}
}

// TestPrefixWorkersMatchLinear: on relations whose K^c drills give every
// stratum a share, and whose K drills give some strata one, TopK equals the
// linear greedy at every worker count.
func TestPrefixWorkersMatchLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := multiStratumRelation(rng, 400, 3)
	for _, text := range []string{"U _||_ V | Z", "U ~||~ V | Z", "A _||_ B | Z", "A ~||~ B | Z"} {
		c := sc.MustParse(text)
		for _, run := range []struct {
			strat Strategy
			k     int
		}{{Kc, 30}, {K, 300}} {
			ref, err := topKLinear(d, c, run.k, Options{Strategy: run.strat})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := TopK(d, c, run.k, Options{Strategy: run.strat, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s/%s/k=%d workers %d: diverged from the linear greedy", c, run.strat, run.k, workers)
				}
			}
		}
	}
}

// TestTopKContextDeadlineMidPrefix: a deadline that expires while the pool
// takes the strata's shares stops the drill. The error wraps
// context.DeadlineExceeded and counts the takes made, and no pool goroutine
// outlives the call.
func TestTopKContextDeadlineMidPrefix(t *testing.T) {
	d := multiStratumRelation(rand.New(rand.NewSource(7)), 1200, 6)
	before := runtime.NumGoroutine()
	for _, text := range []string{"U _||_ V | Z", "A _||_ B | Z"} {
		const budget = 40 // ctx.Err calls; the shares hold about 1,000 takes
		ctx := &countdownCtx{Context: context.Background(), left: budget}
		_, err := TopKContext(ctx, d, sc.MustParse(text), 25, Options{Strategy: Kc, Workers: 4})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: error %v does not wrap context.DeadlineExceeded", text, err)
		}
		var n int
		if _, scanErr := fmt.Sscanf(err.Error(), "drilldown: interrupted after %d greedy rounds", &n); scanErr != nil || n <= 0 || n >= budget {
			t.Fatalf("%s: error %q does not count the takes made", text, err)
		}
		if !strings.HasSuffix(err.Error(), context.DeadlineExceeded.Error()) {
			t.Fatalf("%s: error %q does not end with the context's error", text, err)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
