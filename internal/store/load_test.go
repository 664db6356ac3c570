package store

import (
	"fmt"
	"math/rand"
	"testing"

	"scoded/internal/relation"
)

// benchRelation builds n rows shaped like the end-to-end benchmark's main
// dataset: a 12-level Region, seven 8-level categorical columns and four
// numeric ones.
func benchRelation(rng *rand.Rand, n int) *relation.Relation {
	cols := []*relation.Column{relation.NewCategoricalColumn("Region", draws(rng, n, 12))}
	for c := 0; c < 7; c++ {
		cols = append(cols, relation.NewCategoricalColumn(fmt.Sprintf("C%d", c), draws(rng, n, 8)))
	}
	for _, name := range []string{"X", "Y", "W", "V"} {
		cols = append(cols, relation.NewNumericColumn(name, normals(rng, n)))
	}
	return relation.MustNew(cols...)
}

// draws returns n labels drawn uniformly from k levels.
func draws(rng *rand.Rand, n, k int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("v%d", rng.Intn(k))
	}
	return out
}

func normals(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// benchDataset stores rel, then appends 200-row batches of the benchmark
// shape.
func benchDataset(b *testing.B, rel *relation.Relation, appends int) *Store {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Replace("d", rel); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < appends; i++ {
		if _, err := s.Append("d", benchRelation(rng, 200)); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// benchLog writes monitor 1's log as one 10,000-row batch then 40 batches
// of 256: the most a window-10,000 log holds before its suffix compaction.
func benchLog(b *testing.B, kind string) *Store {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i <= 40; i++ {
		n := 256
		if i == 0 {
			n = 10000
		}
		if kind == ColKindCategorical {
			err = s.AppendLog(1, kind, draws(rng, n, 8), draws(rng, n, 8), nil, nil, 0)
		} else {
			err = s.AppendLog(1, kind, nil, nil, normals(rng, n), normals(rng, n), 0)
		}
		if err != nil {
			b.Fatalf("AppendLog batch %d: %v", i, err)
		}
	}
	return s
}

// BenchmarkLoad materializes five stored shapes through Load and LoadLog:
// the benchmark dataset's 20,000 rows in one segment and with 40 appended
// 200-row segments, a categorical column of 20,000 draws from 20,000
// levels (a dictionary of about 12,600 entries), and a numeric and a
// categorical monitor log.
func BenchmarkLoad(b *testing.B) {
	loadDataset := func(s *Store) error { _, _, err := s.Load("d"); return err }
	loadLog := func(s *Store) error { _, err := s.LoadLog(1); return err }
	shapes := []struct {
		name  string
		store func(*testing.B) *Store
		load  func(*Store) error
	}{
		{"bench_1seg", func(b *testing.B) *Store {
			return benchDataset(b, benchRelation(rand.New(rand.NewSource(1)), 20000), 0)
		}, loadDataset},
		{"bench_41seg", func(b *testing.B) *Store {
			return benchDataset(b, benchRelation(rand.New(rand.NewSource(1)), 20000), 40)
		}, loadDataset},
		{"wide_dict", func(b *testing.B) *Store {
			names := draws(rand.New(rand.NewSource(1)), 20000, 20000)
			return benchDataset(b, relation.MustNew(relation.NewCategoricalColumn("Name", names)), 0)
		}, loadDataset},
		{"numeric_log", func(b *testing.B) *Store { return benchLog(b, ColKindNumeric) }, loadLog},
		{"categorical_log", func(b *testing.B) *Store { return benchLog(b, ColKindCategorical) }, loadLog},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			s := sh.store(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sh.load(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
