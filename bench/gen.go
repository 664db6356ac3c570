package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"scoded/internal/relation"
)

// This file is the benchmark's one input generator. Every dataset, append
// batch, drill request and ingest batch is derived from the run's seed, so
// the same seed gives the same bytes on every commit. Each input kind
// draws from its own stream, so changing one input never shifts another.

// Input streams, one per kind of generated input.
const (
	streamMain int64 = iota + 1
	streamAppend
	streamDrill
	streamNumeric
	streamCategorical
)

func newRNG(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// Column layout shared by every generated table: a stratification column,
// seven 8-level categorical columns that share a latent value, and four
// numeric columns with a planted rank-aligned block.
const (
	catCols    = 7
	catLevels  = 8
	latentRate = 0.25 // share of categorical cells copied from the row's latent value
	blockShare = 0.10 // share of rows in the planted rank-aligned numeric block
)

var numCols = [4]string{"X", "Y", "W", "V"}

// blockScale and blockShift map one latent draw to the four numeric
// columns of a planted row; positive scales keep their ranks aligned.
var (
	blockScale = [4]float64{1, 1.5, 0.8, 2}
	blockShift = [4]float64{0, 0.2, -0.1, 0}
)

// round4 rounds to four decimals, so the CSV stays short and every value
// parses back to the same float64.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// genTable generates n rows; region(i) picks row i's stratum.
func genTable(rng *rand.Rand, n int, region func(i int) int) *relation.Relation {
	regions := make([]string, n)
	latent := make([]int, n)
	for i := range regions {
		regions[i] = "r" + strconv.Itoa(region(i))
		latent[i] = rng.Intn(catLevels)
	}
	cols := []*relation.Column{relation.NewCategoricalColumn("Region", regions)}
	for c := 0; c < catCols; c++ {
		vals := make([]string, n)
		for i := range vals {
			v := rng.Intn(catLevels)
			if rng.Float64() < latentRate {
				v = latent[i]
			}
			vals[i] = "v" + strconv.Itoa(v)
		}
		cols = append(cols, relation.NewCategoricalColumn(fmt.Sprintf("C%d", c), vals))
	}
	var num [len(numCols)][]float64
	for k := range num {
		num[k] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < blockShare {
			s := rng.NormFloat64()
			for k := range num {
				num[k][i] = round4(s*blockScale[k] + blockShift[k])
			}
			continue
		}
		for k := range num {
			num[k][i] = round4(rng.NormFloat64())
		}
	}
	for k, name := range numCols {
		cols = append(cols, relation.NewNumericColumn(name, num[k]))
	}
	return relation.MustNew(cols...)
}

// familyTexts is the 27-constraint family every checkall sends: the 21
// categorical pairs and the 6 numeric pairs, each conditioned on Region.
func familyTexts() []string {
	var out []string
	for a := 0; a < catCols; a++ {
		for b := a + 1; b < catCols; b++ {
			out = append(out, fmt.Sprintf("C%d _||_ C%d | Region @ 0.05", a, b))
		}
	}
	for a := 0; a < len(numCols); a++ {
		for b := a + 1; b < len(numCols); b++ {
			out = append(out, fmt.Sprintf("%s _||_ %s | Region @ 0.05", numCols[a], numCols[b]))
		}
	}
	return out
}

// fdr is the Benjamini-Hochberg level of every checkall.
const fdr = 0.05

// Drill-down requests: a Kendall tau drill on a numeric pair and a G drill
// on a categorical pair, both with the K^c strategy.
const (
	drillTauSC = "X _||_ Y | Region"
	drillGSC   = "C0 _||_ C1 | Region"
)

// csvBytes renders a relation as the CSV body of an upload or append.
func csvBytes(rel *relation.Relation) []byte {
	var b bytes.Buffer
	if err := rel.WriteCSV(&b); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return b.Bytes()
}

// inputs are the generated inputs of one seed at one configuration.
type inputs struct {
	mainCSV  []byte
	drillCSV []byte
	// appendCSV[j] is the j-th append batch of an epoch; batch j lands in
	// stratum r(j mod strata).
	appendCSV [][]byte
	family    []string
	numeric   []ingestBatch
	cat       []ingestBatch
}

// ingestBatch is one pre-encoded /v1/monitors/{id}/records body plus the
// records it carries, for the reference monitor.
type ingestBatch struct {
	body   []byte
	xf, yf []float64
	xs, ys []string
}

// ingestBatches is how many distinct batches each monitor cycles through.
const ingestBatches = 64

func genInputs(cfg config) inputs {
	in := inputs{family: familyTexts()}
	mr := newRNG(cfg.seed, streamMain)
	in.mainCSV = csvBytes(genTable(mr, cfg.mainRows, func(int) int { return mr.Intn(cfg.mainStrata) }))

	dr := newRNG(cfg.seed, streamDrill)
	in.drillCSV = csvBytes(genTable(dr, cfg.drillRows, func(int) int { return dr.Intn(cfg.drillStrata) }))

	ar := newRNG(cfg.seed, streamAppend)
	for j := 0; j < cfg.epochCycles; j++ {
		stratum := j % cfg.mainStrata
		in.appendCSV = append(in.appendCSV, csvBytes(genTable(ar, cfg.appendRows, func(int) int { return stratum })))
	}

	nr := newRNG(cfg.seed, streamNumeric)
	cr := newRNG(cfg.seed, streamCategorical)
	for b := 0; b < ingestBatches; b++ {
		var nb, cb ingestBatch
		for i := 0; i < cfg.ingestBatch; i++ {
			x := round4(nr.NormFloat64())
			nb.xf = append(nb.xf, x)
			nb.yf = append(nb.yf, round4(0.1*x+nr.NormFloat64()))
			l := cr.Intn(catLevels)
			y := cr.Intn(catLevels)
			if cr.Float64() < latentRate {
				y = l
			}
			cb.xs = append(cb.xs, "a"+strconv.Itoa(l))
			cb.ys = append(cb.ys, "b"+strconv.Itoa(y))
		}
		nb.body = mustJSON(map[string]any{"x": nb.xf, "y": nb.yf})
		cb.body = mustJSON(map[string]any{"x": cb.xs, "y": cb.ys})
		in.numeric = append(in.numeric, nb)
		in.cat = append(in.cat, cb)
	}
	return in
}

// mustJSON encodes a value the benchmark built itself.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of slices, strings and finite floats reach here
	}
	return b
}

// kindsOf pins an append batch's column kinds to the dataset schema, as
// the server does.
func kindsOf(rel *relation.Relation) map[string]relation.Kind {
	kinds := make(map[string]relation.Kind, rel.NumCols())
	for _, name := range rel.Columns() {
		kinds[name] = rel.MustColumn(name).Kind
	}
	return kinds
}
