package main

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const fdCSV = `Zip,City
z1,A
z1,A
z1,A
z1,C
z2,C
z2,C
z2,C
z2,C
`

func TestRunRepair(t *testing.T) {
	path := writeCSV(t, fdCSV)
	outPath := filepath.Join(t.TempDir(), "repaired.csv")
	var sb strings.Builder
	err := runRepair([]string{"-data", path, "-sc", "Zip ~||~ City", "-k", "1", "-apply", outPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	outStr := sb.String()
	if !strings.Contains(outStr, `City: "C" -> "A"`) {
		t.Errorf("repair output:\n%s", outStr)
	}
	repaired, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(repaired), "z1,C") != 0 {
		t.Errorf("repaired CSV still contains the typo:\n%s", repaired)
	}
	if err := runRepair([]string{"-sc", "A ~||~ B"}, &sb); err == nil {
		t.Error("want error for missing -data")
	}
}

func TestRunCheckAll(t *testing.T) {
	path := writeCSV(t, numericCSV)
	var sb strings.Builder
	err := runCheckAll(context.Background(), []string{
		"-data", path,
		"-sc", "X _||_ Y @ 0.05",
		"-sc", "X ~||~ Y @ 0.3",
		"-fdr", "0.05",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1/2 constraints violated") {
		t.Errorf("checkall output:\n%s", out)
	}
	if err := runCheckAll(context.Background(), []string{"-data", path}, &sb); err == nil {
		t.Error("want error for no constraints")
	}
	if err := runCheckAll(context.Background(), []string{"-data", path, "-sc", "garbage"}, &sb); err == nil {
		t.Error("want error for bad constraint")
	}
}

func TestRunWatchNumeric(t *testing.T) {
	// 120 dependent pairs then 200 constant-y pairs through a DSC monitor
	// with a window: the verdict must flip to violated.
	var in strings.Builder
	for i := 0; i < 120; i++ {
		v := float64(i%37) / 3
		in.WriteString(strings.TrimSpace(
			strings.Join([]string{fmtFloat(v), fmtFloat(2 * v)}, ",")) + "\n")
	}
	for i := 0; i < 200; i++ {
		in.WriteString(fmtFloat(float64(i%37)) + ",0\n")
	}
	var out strings.Builder
	err := runWatch(context.Background(), []string{"-dep", "-alpha", "0.3", "-window", "100", "-every", "1000"},
		strings.NewReader(in.String()), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "verdict flipped to violated=true") {
		t.Errorf("watch output missing flip:\n%s", s)
	}
	if !strings.Contains(s, "final after 320 records: ") {
		t.Errorf("watch output missing final line:\n%s", s)
	}
}

func TestRunWatchCategorical(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 200; i++ {
		x := []string{"a", "b"}[i%2]
		in.WriteString(x + "," + x + "\n") // perfectly dependent
	}
	var out strings.Builder
	err := runWatch(context.Background(), []string{"-numeric=false", "-alpha", "0.05", "-every", "50"},
		strings.NewReader(in.String()), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "violated=true") {
		t.Errorf("dependent categorical stream should violate the ISC:\n%s", out.String())
	}
}

func TestRunWatchErrors(t *testing.T) {
	var out strings.Builder
	if err := runWatch(context.Background(), []string{"-every", "0"}, strings.NewReader(""), &out); err == nil {
		t.Error("want error for bad cadence")
	}
	if err := runWatch(context.Background(), nil, strings.NewReader("not-a-pair\n"), &out); err == nil {
		t.Error("want error for malformed line")
	}
	if err := runWatch(context.Background(), nil, strings.NewReader("a,b\n"), &out); err == nil {
		t.Error("want error for non-numeric values in numeric mode")
	}
	// ParseFloat accepts NaN and Inf, which the numeric monitor does not.
	// A NaN inside a turning window used to panic in the index rebuild.
	var turning strings.Builder
	for i := 0; i < 300; i++ {
		turning.WriteString(fmtFloat(float64(i%17)) + "," + fmtFloat(float64(i%5)) + "\n")
	}
	turning.WriteString("NaN,0.5\n")
	for i := 0; i < 300; i++ {
		turning.WriteString(fmtFloat(float64(i%13)) + "," + fmtFloat(float64(i%7)) + "\n")
	}
	for _, in := range []string{"1,2\nNaN,0.5\n", "1,2\n3,+Inf\n", "-Inf,1\n", turning.String()} {
		err := runWatch(context.Background(), []string{"-window", "200"}, strings.NewReader(in), &out)
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("want a non-finite line error, got %v", err)
		}
	}
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
