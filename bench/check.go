package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"scoded/internal/detect"
	"scoded/internal/drilldown"
	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
	"scoded/internal/stream"
)

// This file holds the off-clock references every sampled response is
// compared against, field for field. The references are computed
// in-process by the same library calls the server makes, on relations
// parsed from the same CSV bytes the server received.

// The JSON shapes below mirror the server's response envelopes. Decoding a
// response into them and comparing with reflect.DeepEqual compares every
// field exactly: the server's float encoding round-trips bit for bit.

type testJSON struct {
	Statistic   float64 `json:"statistic"`
	DF          int     `json:"df,omitempty"`
	P           float64 `json:"p"`
	N           int     `json:"n"`
	Approximate bool    `json:"approximate,omitempty"`
}

type stratumJSON struct {
	Key     string   `json:"key"`
	Size    int      `json:"size"`
	Test    testJSON `json:"test"`
	Skipped bool     `json:"skipped,omitempty"`
}

type resultJSON struct {
	Constraint string        `json:"constraint"`
	Alpha      float64       `json:"alpha"`
	Method     string        `json:"method,omitempty"`
	Test       testJSON      `json:"test"`
	Violated   bool          `json:"violated"`
	Strata     []stratumJSON `json:"strata,omitempty"`
	Leaves     []resultJSON  `json:"leaves,omitempty"`
	Error      string        `json:"error,omitempty"`
}

type checkAllJSON struct {
	Checked  int          `json:"checked"`
	Violated int          `json:"violated"`
	Errored  int          `json:"errored"`
	Results  []resultJSON `json:"results"`
}

type drillJSON struct {
	Constraint  string     `json:"constraint"`
	Rows        []int      `json:"rows"`
	Records     [][]string `json:"records"`
	Columns     []string   `json:"columns"`
	InitialStat float64    `json:"initial_stat"`
	FinalStat   float64    `json:"final_stat"`
}

type monitorJSON struct {
	ID         int     `json:"id"`
	Kind       string  `json:"kind"`
	Alpha      float64 `json:"alpha"`
	Dependence bool    `json:"dependence"`
	Window     int     `json:"window,omitempty"`
	Observed   int64   `json:"observed"`
	N          int     `json:"n"`
}

type recordsJSON struct {
	Inserted int         `json:"inserted"`
	Monitor  monitorJSON `json:"monitor"`
}

type verdictJSON struct {
	ID        int     `json:"id"`
	Statistic float64 `json:"statistic"`
	P         float64 `json:"p"`
	DF        int     `json:"df"`
	N         int     `json:"n"`
	Observed  int64   `json:"observed"`
	Violated  bool    `json:"violated"`
}

func testJSONOf(t stats.TestResult) testJSON {
	return testJSON{Statistic: t.Statistic, DF: t.DF, P: t.P, N: t.N, Approximate: t.Approximate}
}

// resultJSONOf renders a detect.Result the way the server does.
func resultJSONOf(r detect.Result) resultJSON {
	out := resultJSON{Constraint: r.Constraint.SC.String(), Alpha: r.Constraint.Alpha, Violated: r.Violated}
	if r.Err != nil {
		out.Error = r.Err.Error()
		return out
	}
	out.Method = r.Method.String()
	out.Test = testJSONOf(r.Test)
	for _, st := range r.Strata {
		out.Strata = append(out.Strata, stratumJSON{Key: st.Key, Size: st.Size, Test: testJSONOf(st.Test), Skipped: st.Skipped})
	}
	for _, leaf := range r.Leaves {
		out.Leaves = append(out.Leaves, resultJSONOf(leaf))
	}
	return out
}

func parseFamily(texts []string) ([]sc.Approximate, error) {
	fam := make([]sc.Approximate, len(texts))
	for i, t := range texts {
		a, err := sc.ParseApproximate(t)
		if err != nil {
			return nil, fmt.Errorf("constraint %q: %w", t, err)
		}
		fam[i] = a
	}
	return fam, nil
}

// checkAllRef is the expected /v1/checkall envelope for a relation.
func checkAllRef(ctx context.Context, rel *relation.Relation, fam []sc.Approximate) (checkAllJSON, error) {
	results, err := detect.CheckAllContext(ctx, rel, fam, detect.BatchOptions{
		Options: detect.Options{Cache: kernel.New(rel)},
		FDR:     fdr,
	})
	if err != nil {
		return checkAllJSON{}, err
	}
	out := checkAllJSON{Results: make([]resultJSON, len(results))}
	for i, r := range results {
		if r.Err != nil {
			return checkAllJSON{}, fmt.Errorf("reference check of %s: %w", r.Constraint.SC, r.Err)
		}
		out.Results[i] = resultJSONOf(r)
		if r.Violated {
			out.Violated++
		}
	}
	out.Checked = len(results)
	return out, nil
}

// drillRef is the expected single-constraint /v1/drilldown response.
func drillRef(ctx context.Context, rel *relation.Relation, text string, k int, method drilldown.Method) (drillJSON, error) {
	c, err := sc.Parse(text)
	if err != nil {
		return drillJSON{}, err
	}
	res, err := drilldown.TopKContext(ctx, rel, c, k, drilldown.Options{Strategy: drilldown.Kc, Method: method})
	if err != nil {
		return drillJSON{}, err
	}
	out := drillJSON{
		Constraint: c.String(), Rows: res.Rows, Columns: rel.Columns(),
		InitialStat: res.InitialStat, FinalStat: res.FinalStat,
		Records: make([][]string, len(res.Rows)),
	}
	for i, row := range res.Rows {
		out.Records[i] = rel.Row(row)
	}
	return out, nil
}

// verdictOf renders a reference monitor's verdict like GET .../verdict.
func verdictOf(id int, v stream.Verdict, observed int64) verdictJSON {
	return verdictJSON{ID: id, Statistic: v.Statistic, P: v.P, DF: v.DF, N: v.N, Observed: observed, Violated: v.Violated}
}

// verdictTolerance is the relative tolerance on a monitor verdict's
// statistic and p-value. The categorical monitor sums its G terms in map
// order, so the same records give a verdict that can differ in the last
// bits from run to run; every other field is compared exactly.
const verdictTolerance = 1e-9

// matchVerdict decodes a verdict response and compares it with want.
func matchVerdict(body []byte, want verdictJSON) error {
	var got verdictJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding verdict: %w", err)
	}
	close := func(a, b float64) bool { return math.Abs(a-b) <= verdictTolerance*math.Max(math.Abs(a), math.Abs(b)) }
	exact := got
	exact.Statistic, exact.P = want.Statistic, want.P
	if exact != want || !close(got.Statistic, want.Statistic) || !close(got.P, want.P) {
		return fmt.Errorf("verdict differs from the reference: got %s, want %+v", body, want)
	}
	return nil
}

// checkAllPrefix is how every successful checkall body starts: the server
// encodes its envelope map with sorted keys, so a full, error-free family
// is recognised without decoding it on the clock.
func checkAllPrefix(n int) []byte {
	return []byte(fmt.Sprintf(`{"checked":%d,"errored":0,`, n))
}

// matchJSON decodes body into a value of want's type and compares the two
// field for field.
func matchJSON[T any](body []byte, want T) error {
	var got T
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&got); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("response differs from the reference: got %.300s, want %+v", body, want)
	}
	return nil
}

// corruptCheckAll perturbs a reference by one ulp, for the test that a
// wrong expected value is counted as a failure.
func corruptCheckAll(r *checkAllJSON) {
	if len(r.Results) > 0 {
		r.Results[0].Test.P = math.Nextafter(r.Results[0].Test.P, 2)
	}
}
