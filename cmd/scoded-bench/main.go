// Command scoded-bench regenerates every table and figure of the paper's
// evaluation (Section 6) plus the Section 2 theory artifacts, printing
// paper-style tables and series. Each experiment is deterministic for a
// given seed; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// With -json it instead converts micro-benchmark output: it reads
// `go test -run '^$' -bench Suite -benchmem -count N` output on stdin and
// writes one BENCH_<suite>.json per BenchmarkSuite<Suite> function into the
// working directory (make bench).
//
// Usage:
//
//	scoded-bench                 # run everything
//	scoded-bench -only F12       # run one experiment (F1, T2, F7, F8, F9,
//	                             # F10, F11, F10c, F12, F13, F14)
//	scoded-bench -seed 7         # change the dataset seed
//	go test -run '^$' -bench Suite -benchmem -count 5 \
//	    ./internal/detect ./internal/drilldown ./internal/stream |
//	    scoded-bench -json       # write BENCH_{detect,oocore,drilldown,stream}.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"scoded/internal/experiments"
)

type runner struct {
	id  string
	run func(seed int64) (*experiments.Report, error)
}

func main() {
	only := flag.String("only", "", "run a single experiment by id (e.g. F12)")
	seed := flag.Int64("seed", 1, "dataset seed")
	jsonMode := flag.Bool("json", false, "convert go test -bench Suite -benchmem output on stdin into BENCH_<suite>.json files")
	flag.Parse()

	if *jsonMode {
		paths, err := convert(os.Stdin, ".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "scoded-bench: %v\n", err)
			os.Exit(1)
		}
		for _, p := range paths {
			fmt.Println("wrote", p)
		}
		return
	}

	runners := []runner{
		{"F1", experiments.Figure1},
		{"T2", func(int64) (*experiments.Report, error) { return experiments.Table2() }},
		{"F7", experiments.Figure7},
		{"F8", experiments.Figure8},
		{"F9", experiments.Figure9},
		{"F10", experiments.Figure10},
		{"F10r", experiments.Figure10Rates},
		{"F11", experiments.Figure11},
		{"F10c", experiments.FigureConditional},
		{"F12", experiments.Figure12},
		{"F13", experiments.Figure13},
		{"F14", experiments.Figure14},
		{"ABL", experiments.Ablation},
	}

	ran := 0
	for _, r := range runners {
		if *only != "" && r.id != *only {
			continue
		}
		start := time.Now()
		rep, err := r.run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scoded-bench: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Println(rep)
		fmt.Printf("(%s completed in %v)\n\n", r.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "scoded-bench: no experiment matches %q\n", *only)
		os.Exit(2)
	}
}
