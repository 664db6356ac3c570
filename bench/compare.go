package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// layerTargets names, for every per-layer metric, the end-to-end metric
// and workload it should move. A regression found end to end is traced to
// its layer through this table; a claimed layer gain must show up in the
// named end-to-end metric.
var layerTargets = map[string]string{
	"server.checkall_handler_ms":  "p50_ms @ resident_checkall",
	"server.checkall_self_ms":     "p50_ms @ resident_checkall",
	"server.checkall_response_kb": "p50_ms @ resident_checkall",
	"server.transport_ms":         "p50_ms @ resident_checkall",
	"server.append_self_ms":       "p50_ms @ append_checkall",
	"server.drill_self_ms":        "p50_ms @ drilldown",
	"server.ingest_self_ms":       "p50_ms @ ingest",

	"store.append_ms":                 "p50_ms, tail_ms @ append_checkall",
	"store.segments":                  "tail_ms @ append_checkall",
	"store.append_log_ms":             "p50_ms @ ingest",
	"store.save_registry_ms":          "p50_ms @ ingest",
	"store.scan_decode_ms":            "p50_ms @ oocore_checkall",
	"store.scans_per_checkall":        "p50_ms @ oocore_checkall",
	"store.rows_decoded_per_checkall": "p50_ms @ oocore_checkall",

	"relation.read_csv_ms":       "setup_s @ resident_checkall",
	"relation.read_csv_batch_ms": "p50_ms @ append_checkall",
	"relation.append_rows_ms":    "p50_ms @ append_checkall",

	"kernel.partition_ms":        "setup_s @ resident_checkall; p50_ms @ append_checkall",
	"kernel.codes_ms":            "setup_s @ resident_checkall; p50_ms @ append_checkall",
	"kernel.table_ms":            "setup_s @ resident_checkall; p50_ms @ append_checkall",
	"kernel.kendall_prep_ms":     "setup_s @ resident_checkall; p50_ms @ append_checkall",
	"kernel.advance_ms":          "p50_ms @ append_checkall",
	"kernel.misses_per_checkall": "p50_ms @ append_checkall",
	"kernel.hit_ratio":           "p50_ms @ append_checkall, resident_checkall",
	"kernel.stream_fold_ms":      "p50_ms @ oocore_checkall",

	"detect.statistic_ms":       "p50_ms @ resident_checkall",
	"detect.stream_finalize_ms": "p50_ms @ oocore_checkall",

	"drilldown.tau_init_ms":  "p50_ms @ drilldown",
	"drilldown.tau_round_us": "p50_ms @ drilldown",
	"drilldown.g_init_ms":    "p50_ms @ drilldown",
	"drilldown.g_round_us":   "p50_ms @ drilldown",
	"drilldown.rounds":       "p50_ms @ drilldown",

	"stream.numeric_insert_us_per_record":     "throughput_ops_s @ ingest",
	"stream.categorical_insert_us_per_record": "throughput_ops_s @ ingest",
	"stream.verdict_us":                       "p50_ms @ ingest",

	"trace.unattributed_ms": "none: the replay's own time outside layer calls",
	"trace.overhead_ms":     "none: the cost of recording spans",
}

// readRecords reads a JSON-lines file written by -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one metric's values over the records of one workload
// (all workloads when workload is empty) and trace mode, in file order.
func values(recs []record, workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Trace != trace || (workload != "" && r.Workload != workload) {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// minPairs is the number of parent/change pairs a gain needs.
const minPairs = 10

// verdict applies the comparison rules: a gain needs the new side to win
// at least nine tenths of the pairs (ties count for neither) and a median
// shift larger than the old side's quartile spread; a loss is a median
// worse by more than the bound; a spread wider than the bound leaves the
// metric unresolved.
func verdict(d metricDef, old, cur []float64) (string, int, int) {
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs := min(len(old), len(cur))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(cur[i], old[i]) {
			wins++
		}
	}
	mo, mc := median(old), median(cur)
	q1, q3 := quartiles(old)
	worse := (mc - mo) / math.Abs(mo)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case pairs >= minPairs && wins*10 >= pairs*9 && better(mc, mo) && math.Abs(mc-mo) > q3-q1:
		return "better", wins, pairs
	case worse > d.Bound:
		return "worse", wins, pairs
	case (q3-q1)/math.Abs(mo) > d.Bound:
		return "unresolved", wins, pairs
	default:
		return "same", wins, pairs
	}
}

// compareFiles prints, per workload and end-to-end metric, both medians
// and quartiles, the delta, the bound and a verdict; then the per-layer
// metrics whose medians moved most, with the end-to-end metric each
// should move.
func compareFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) error {
	old, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRecords(newPath)
	if err != nil {
		return err
	}
	for _, wl := range spec.Workloads {
		printed := false
		for _, d := range spec.EndToEnd {
			ov, cv := values(old, wl.Name, 0, d.Name), values(cur, wl.Name, 0, d.Name)
			if len(ov) == 0 || len(cv) == 0 {
				continue
			}
			if !printed {
				fmt.Fprintf(w, "== %s: %d old runs, %d new runs\n", wl.Name, len(ov), len(cv))
				fmt.Fprintf(w, "   %-22s %-34s %-34s %9s %6s %6s  %s\n", "metric", "old median [q1, q3]", "new median [q1, q3]", "delta", "bound", "wins", "verdict")
				printed = true
			}
			v, wins, pairs := verdict(d, ov, cv)
			oq1, oq3 := quartiles(ov)
			cq1, cq3 := quartiles(cv)
			mo, mc := median(ov), median(cv)
			fmt.Fprintf(w, "   %-22s %-34s %-34s %+8.2f%% %5.0f%% %3d/%-2d  %s\n", d.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", mo, oq1, oq3, d.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", mc, cq1, cq3, d.Unit),
				100*(mc-mo)/math.Abs(mo), 100*d.Bound, wins, pairs, v)
		}
	}
	type moved struct {
		def      metricDef
		old, cur float64
		rel      float64
	}
	var moves []moved
	for _, d := range spec.PerLayer {
		ov, cv := values(old, "", 1, d.Name), values(cur, "", 1, d.Name)
		if len(ov) == 0 || len(cv) == 0 {
			continue
		}
		mo, mc := median(ov), median(cv)
		rel := math.Inf(1)
		if mo != 0 { //scoded:lint-ignore floatcmp an exact zero median has no relative change
			rel = (mc - mo) / math.Abs(mo)
		} else if mc == 0 { //scoded:lint-ignore floatcmp both medians exactly zero: no move
			rel = 0
		}
		moves = append(moves, moved{d, mo, mc, rel})
	}
	if len(moves) == 0 {
		return nil
	}
	sort.SliceStable(moves, func(i, j int) bool { return math.Abs(moves[i].rel) > math.Abs(moves[j].rel) })
	fmt.Fprintf(w, "== per-layer metrics that moved most (traced runs)\n")
	for i, m := range moves {
		if i == 10 {
			break
		}
		fmt.Fprintf(w, "   %-40s %12.4g -> %-12.4g %-6s %+8.2f%%  moves %s\n",
			m.def.Name, m.old, m.cur, m.def.Unit, 100*m.rel, layerTargets[m.def.Name])
	}
	return nil
}
