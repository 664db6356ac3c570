package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"scoded"
	"scoded/internal/engine"
)

// runRepair implements `scoded repair`: propose (and optionally emit a
// repaired CSV of) the top-k cell corrections for a constraint.
func runRepair(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	data := fs.String("data", "", "CSV file with a header row")
	expr := fs.String("sc", "", "constraint")
	k := fs.Int("k", 10, "number of corrections to propose")
	apply := fs.String("apply", "", "write the repaired relation to this CSV path")
	fs.Parse(args)

	rel, err := loadData(*data)
	if err != nil {
		return err
	}
	c, err := scoded.ParseSC(*expr)
	if err != nil {
		return err
	}
	res, err := scoded.RepairTopKCells(rel, c, *k, scoded.RepairOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "statistic %.4g -> %.4g with %d corrections\n",
		res.InitialStat, res.FinalStat, len(res.Corrections))
	for _, cor := range res.Corrections {
		fmt.Fprintf(out, "row %-5d %s: %q -> %q (gain %.4g)\n",
			cor.Row, cor.Column, cor.Old, cor.New, cor.Gain)
	}
	if *apply != "" {
		repaired, err := scoded.ApplyCorrections(rel, res.Corrections)
		if err != nil {
			return err
		}
		if err := repaired.WriteCSVFile(*apply); err != nil {
			return err
		}
		fmt.Fprintf(out, "repaired relation written to %s\n", *apply)
	}
	return nil
}

// runCheckAll implements `scoded checkall`: a family of constraints with
// optional Benjamini-Hochberg FDR control. An interrupt (or an expired
// -timeout) drains the family instead of discarding it: finished
// constraints report normally, unfinished ones as ERROR rows, and the
// command exits nonzero with the interruption cause.
func runCheckAll(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("checkall", flag.ExitOnError)
	data := fs.String("data", "", "CSV file with a header row")
	var exprs scList
	fs.Var(&exprs, "sc", "approximate constraint \"expr @ alpha\" (repeatable)")
	fdr := fs.Float64("fdr", 0, "Benjamini-Hochberg false discovery rate (0 = per-constraint alpha rule)")
	timeout := fs.Duration("timeout", 0, "abort the family after this duration (0 = no limit)")
	fs.Parse(args)

	rel, err := loadData(*data)
	if err != nil {
		return err
	}
	if len(exprs) == 0 {
		return fmt.Errorf("no -sc flags given")
	}
	var as []scoded.ApproximateSC
	for _, e := range exprs {
		a, err := scoded.ParseApproximateSC(e)
		if err != nil {
			return err
		}
		as = append(as, a)
	}
	ctx, cancel := engine.WithTimeout(ctx, *timeout)
	defer cancel()
	results, err := scoded.CheckAllContext(ctx, rel, as, scoded.BatchCheckOptions{FDR: *fdr})
	if err != nil {
		return err
	}
	violations := 0
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(out, "%-40s ERROR: %v\n", r.Constraint.SC, r.Err)
			continue
		}
		verdict := "ok"
		if r.Violated {
			verdict = "VIOLATED"
			violations++
		}
		fmt.Fprintf(out, "%-40s p=%-10.4g %s\n", r.Constraint.SC, r.Test.P, verdict)
	}
	fmt.Fprintf(out, "%d/%d constraints violated\n", violations, len(results))
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("checkall interrupted; results above are partial: %w", ctxErr)
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf, the values
// NumericMonitor.Insert accepts.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// runWatch implements `scoded watch`: stream numeric or categorical value
// pairs (one "x,y" per line) from a reader through an online monitor,
// reporting the verdict at a fixed cadence and whenever it flips. An
// interrupt stops the stream between records; the final verdict over the
// records seen so far is still printed.
func runWatch(ctx context.Context, args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	alpha := fs.Float64("alpha", 0.05, "significance level")
	dep := fs.Bool("dep", false, "monitor a dependence SC (violated when dependence vanishes)")
	window := fs.Int("window", 0, "sliding window size (0 = unbounded)")
	numeric := fs.Bool("numeric", true, "treat the two values as numeric")
	every := fs.Int("every", 100, "report cadence in records")
	fs.Parse(args)

	if *every <= 0 {
		return fmt.Errorf("-every must be positive")
	}
	var catMon *scoded.CategoricalMonitor
	var numMon *scoded.NumericMonitor
	var err error
	if *numeric {
		numMon, err = scoded.NewNumericMonitor(*alpha, *dep, *window)
	} else {
		catMon, err = scoded.NewCategoricalMonitor(*alpha, *dep, *window)
	}
	if err != nil {
		return err
	}
	verdict := func() scoded.StreamVerdict {
		if numMon != nil {
			return numMon.Verdict()
		}
		return catMon.Verdict()
	}

	scanner := bufio.NewScanner(in)
	n := 0
	prev := false
	interrupted := false
	for scanner.Scan() {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, ",", 2)
		if len(parts) != 2 {
			return fmt.Errorf("line %d: want \"x,y\", got %q", n+1, line)
		}
		if numMon != nil {
			x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
			if err != nil {
				return fmt.Errorf("line %d: %w", n+1, err)
			}
			y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
			if err != nil {
				return fmt.Errorf("line %d: %w", n+1, err)
			}
			if !finite(x) || !finite(y) {
				return fmt.Errorf("line %d: non-finite value in %q", n+1, line)
			}
			numMon.Insert(x, y)
		} else {
			catMon.Insert(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
		}
		n++
		v := verdict()
		if v.Violated != prev {
			fmt.Fprintf(out, "record %d: verdict flipped to violated=%v (p=%.4g)\n", n, v.Violated, v.P)
			prev = v.Violated
		} else if n%*every == 0 {
			fmt.Fprintf(out, "record %d: p=%.4g violated=%v\n", n, v.P, v.Violated)
		}
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	v := verdict()
	fmt.Fprintf(out, "final after %d records: p=%.4g violated=%v\n", n, v.P, v.Violated)
	if interrupted {
		return fmt.Errorf("watch interrupted after %d records: %w", n, ctx.Err())
	}
	return nil
}
