package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchOutput is `go test -run '^$' -bench Suite -benchmem -count 3` text
// over three packages at GOMAXPROCS 2: each package prints its own
// goos/pkg headers, -count interleaves a suite's variants run by run, the
// stream suite's numeric_incremental carries a b.ReportMetric unit, and
// categorical_incremental prints fractional ns/op.
const benchOutput = `goos: linux
goarch: amd64
pkg: scoded/internal/detect
cpu: Intel(R) Xeon(R) Processor
BenchmarkSuiteDetect/checkall_cold-2         	     156	   7200000 ns/op	10660400 B/op	    4403 allocs/op
BenchmarkSuiteDetect/checkall_fresh_cache-2  	     603	   1900000 ns/op	 1309000 B/op	    3186 allocs/op
BenchmarkSuiteDetect/checkall_warm_cache-2   	    2170	    520000 ns/op	   97400 B/op	     928 allocs/op
BenchmarkSuiteDetect/checkall_after_append-2 	    1399	    870000 ns/op	  507000 B/op	    1150 allocs/op
BenchmarkSuiteDetect/checkall_cold-2         	     160	   7000000 ns/op	10660000 B/op	    4403 allocs/op
BenchmarkSuiteDetect/checkall_fresh_cache-2  	     600	   2000000 ns/op	 1309500 B/op	    3186 allocs/op
BenchmarkSuiteDetect/checkall_warm_cache-2   	    2200	    500000 ns/op	   97461 B/op	     928 allocs/op
BenchmarkSuiteDetect/checkall_after_append-2 	    1400	    875000 ns/op	  507371 B/op	    1150 allocs/op
BenchmarkSuiteDetect/checkall_cold-2         	     163	   6800000 ns/op	10659600 B/op	    4404 allocs/op
BenchmarkSuiteDetect/checkall_fresh_cache-2  	     590	   2100000 ns/op	 1310000 B/op	    3187 allocs/op
BenchmarkSuiteDetect/checkall_warm_cache-2   	    2250	    490000 ns/op	   97500 B/op	     929 allocs/op
BenchmarkSuiteDetect/checkall_after_append-2 	    1390	    880000 ns/op	  507400 B/op	    1151 allocs/op
BenchmarkSuiteOocore/checkall_resident-2       	    1185	    850000 ns/op	  101508 B/op	     974 allocs/op
BenchmarkSuiteOocore/checkall_materialize-2    	     103	  10200000 ns/op	17280000 B/op	    5063 allocs/op
BenchmarkSuiteOocore/checkall_stream_segment-2 	     208	   5950000 ns/op	 5760000 B/op	    3580 allocs/op
BenchmarkSuiteOocore/checkall_stream_window-2  	     204	   6100000 ns/op	 5432769 B/op	    3580 allocs/op
BenchmarkSuiteOocore/checkall_resident-2       	    1190	    860000 ns/op	  101508 B/op	     974 allocs/op
BenchmarkSuiteOocore/checkall_materialize-2    	     101	  10300000 ns/op	17280496 B/op	    5063 allocs/op
BenchmarkSuiteOocore/checkall_stream_segment-2 	     205	   5900000 ns/op	 5759000 B/op	    3580 allocs/op
BenchmarkSuiteOocore/checkall_stream_window-2  	     200	   6200000 ns/op	 5432769 B/op	    3580 allocs/op
BenchmarkSuiteOocore/checkall_resident-2       	    1170	    840000 ns/op	  101508 B/op	     974 allocs/op
BenchmarkSuiteOocore/checkall_materialize-2    	     104	  10100000 ns/op	17279000 B/op	    5063 allocs/op
BenchmarkSuiteOocore/checkall_stream_segment-2 	     202	   5960000 ns/op	 5761000 B/op	    3580 allocs/op
BenchmarkSuiteOocore/checkall_stream_window-2  	     203	   6150000 ns/op	 5432769 B/op	    3580 allocs/op
PASS
ok  	scoded/internal/detect	61.207s
goos: linux
goarch: amd64
pkg: scoded/internal/drilldown
cpu: Intel(R) Xeon(R) Processor
BenchmarkSuiteDrilldown/tau_kc_linear-2      	       1	1320000000 ns/op	  760480 B/op	      96 allocs/op
BenchmarkSuiteDrilldown/tau_kc_delta-2       	      36	  33000000 ns/op	  885840 B/op	     123 allocs/op
BenchmarkSuiteDrilldown/g_kc_linear-2        	       4	 300000000 ns/op	  361232 B/op	     195 allocs/op
BenchmarkSuiteDrilldown/g_kc_delta-2         	      99	  12000000 ns/op	  650051 B/op	     224 allocs/op
BenchmarkSuiteDrilldown/multi_sequential-2   	       4	 320000000 ns/op	 3570152 B/op	     596 allocs/op
BenchmarkSuiteDrilldown/multi_parallel-2     	       7	 160000000 ns/op	 3575112 B/op	     633 allocs/op
BenchmarkSuiteDrilldown/multi_workers_8-2    	       7	 167000000 ns/op	 3574579 B/op	     645 allocs/op
BenchmarkSuiteDrilldown/tau_kc_linear-2      	       1	1300000000 ns/op	  760480 B/op	      96 allocs/op
BenchmarkSuiteDrilldown/tau_kc_delta-2       	      34	  32000000 ns/op	  885840 B/op	     123 allocs/op
BenchmarkSuiteDrilldown/g_kc_linear-2        	       4	 290000000 ns/op	  361232 B/op	     195 allocs/op
BenchmarkSuiteDrilldown/g_kc_delta-2         	     100	  11500000 ns/op	  650051 B/op	     224 allocs/op
BenchmarkSuiteDrilldown/multi_sequential-2   	       4	 310000000 ns/op	 3570152 B/op	     596 allocs/op
BenchmarkSuiteDrilldown/multi_parallel-2     	       7	 150000000 ns/op	 3575112 B/op	     633 allocs/op
BenchmarkSuiteDrilldown/multi_workers_8-2    	       7	 169000000 ns/op	 3574579 B/op	     645 allocs/op
BenchmarkSuiteDrilldown/tau_kc_linear-2      	       1	1350000000 ns/op	  760480 B/op	      96 allocs/op
BenchmarkSuiteDrilldown/tau_kc_delta-2       	      35	  34000000 ns/op	  885840 B/op	     123 allocs/op
BenchmarkSuiteDrilldown/g_kc_linear-2        	       4	 310000000 ns/op	  361232 B/op	     195 allocs/op
BenchmarkSuiteDrilldown/g_kc_delta-2         	      97	  12500000 ns/op	  650051 B/op	     224 allocs/op
BenchmarkSuiteDrilldown/multi_sequential-2   	       4	 330000000 ns/op	 3570152 B/op	     596 allocs/op
BenchmarkSuiteDrilldown/multi_parallel-2     	       7	 170000000 ns/op	 3575112 B/op	     633 allocs/op
BenchmarkSuiteDrilldown/multi_workers_8-2    	       7	 168000000 ns/op	 3574579 B/op	     645 allocs/op
PASS
ok  	scoded/internal/drilldown	74.528s
goos: linux
goarch: amd64
pkg: scoded/internal/stream
cpu: Intel(R) Xeon(R) Processor
BenchmarkSuiteStream/numeric_incremental-2     	   58809	     21000 ns/op	     47619 records/s	     322 B/op	       0 allocs/op
BenchmarkSuiteStream/numeric_naive-2           	      37	  29400000 ns/op	       34.01 records/s	  216548 B/op	       0 allocs/op
BenchmarkSuiteStream/categorical_incremental-2 	 2245584	       529.5 ns/op	   1888574 records/s	       0 B/op	       0 allocs/op
BenchmarkSuiteStream/categorical_naive-2       	   10000	    132500 ns/op	      7547 records/s	     704 B/op	       2 allocs/op
BenchmarkSuiteStream/numeric_incremental-2     	   59000	     21343 ns/op	     46854 records/s	     322 B/op	       0 allocs/op
BenchmarkSuiteStream/numeric_naive-2           	      38	  29000000 ns/op	       34.48 records/s	  216548 B/op	       0 allocs/op
BenchmarkSuiteStream/categorical_incremental-2 	 2240000	       530.0 ns/op	   1886792 records/s	       0 B/op	       0 allocs/op
BenchmarkSuiteStream/categorical_naive-2       	   10000	    132000 ns/op	      7575 records/s	     704 B/op	       2 allocs/op
BenchmarkSuiteStream/numeric_incremental-2     	   60000	     20500 ns/op	     48780 records/s	     322 B/op	       0 allocs/op
BenchmarkSuiteStream/numeric_naive-2           	      36	  30000000 ns/op	       33.33 records/s	  216548 B/op	       0 allocs/op
BenchmarkSuiteStream/categorical_incremental-2 	 2250000	       530.5 ns/op	   1885014 records/s	       0 B/op	       0 allocs/op
BenchmarkSuiteStream/categorical_naive-2       	   10000	    133000 ns/op	      7518 records/s	     704 B/op	       2 allocs/op
PASS
ok  	scoded/internal/stream	29.961s
`

// The files benchOutput converts to: medians over the three runs, and
// every ratio a quotient of medians.
var benchFiles = map[string]string{
	"BENCH_detect.json": `{
  "gomaxprocs": 2,
  "results": [
    {"name": "checkall_cold", "runs": 3, "ns_per_op": 7000000, "ns_per_op_min": 6800000, "ns_per_op_max": 7200000, "bytes_per_op": 10660000, "allocs_per_op": 4403},
    {"name": "checkall_fresh_cache", "runs": 3, "ns_per_op": 2000000, "ns_per_op_min": 1900000, "ns_per_op_max": 2100000, "bytes_per_op": 1309500, "allocs_per_op": 3186},
    {"name": "checkall_warm_cache", "runs": 3, "ns_per_op": 500000, "ns_per_op_min": 490000, "ns_per_op_max": 520000, "bytes_per_op": 97461, "allocs_per_op": 928},
    {"name": "checkall_after_append", "runs": 3, "ns_per_op": 875000, "ns_per_op_min": 870000, "ns_per_op_max": 880000, "bytes_per_op": 507371, "allocs_per_op": 1150}
  ],
  "speedup_fresh_vs_cold": 3.5,
  "speedup_warm_vs_cold": 14,
  "speedup_append_vs_cold": 8
}`,
	"BENCH_oocore.json": `{
  "gomaxprocs": 2,
  "results": [
    {"name": "checkall_resident", "runs": 3, "ns_per_op": 850000, "ns_per_op_min": 840000, "ns_per_op_max": 860000, "bytes_per_op": 101508, "allocs_per_op": 974},
    {"name": "checkall_materialize", "runs": 3, "ns_per_op": 10200000, "ns_per_op_min": 10100000, "ns_per_op_max": 10300000, "bytes_per_op": 17280000, "allocs_per_op": 5063},
    {"name": "checkall_stream_segment", "runs": 3, "ns_per_op": 5950000, "ns_per_op_min": 5900000, "ns_per_op_max": 5960000, "bytes_per_op": 5760000, "allocs_per_op": 3580},
    {"name": "checkall_stream_window", "runs": 3, "ns_per_op": 6150000, "ns_per_op_min": 6100000, "ns_per_op_max": 6200000, "bytes_per_op": 5432769, "allocs_per_op": 3580}
  ],
  "stream_overhead_vs_resident": 7,
  "materialize_bytes_vs_stream_scan": 3
}`,
	"BENCH_drilldown.json": `{
  "gomaxprocs": 2,
  "results": [
    {"name": "tau_kc_linear", "runs": 3, "ns_per_op": 1320000000, "ns_per_op_min": 1300000000, "ns_per_op_max": 1350000000, "bytes_per_op": 760480, "allocs_per_op": 96},
    {"name": "tau_kc_delta", "runs": 3, "ns_per_op": 33000000, "ns_per_op_min": 32000000, "ns_per_op_max": 34000000, "bytes_per_op": 885840, "allocs_per_op": 123},
    {"name": "g_kc_linear", "runs": 3, "ns_per_op": 300000000, "ns_per_op_min": 290000000, "ns_per_op_max": 310000000, "bytes_per_op": 361232, "allocs_per_op": 195},
    {"name": "g_kc_delta", "runs": 3, "ns_per_op": 12000000, "ns_per_op_min": 11500000, "ns_per_op_max": 12500000, "bytes_per_op": 650051, "allocs_per_op": 224},
    {"name": "multi_sequential", "runs": 3, "ns_per_op": 320000000, "ns_per_op_min": 310000000, "ns_per_op_max": 330000000, "bytes_per_op": 3570152, "allocs_per_op": 596},
    {"name": "multi_parallel", "runs": 3, "ns_per_op": 160000000, "ns_per_op_min": 150000000, "ns_per_op_max": 170000000, "bytes_per_op": 3575112, "allocs_per_op": 633},
    {"name": "multi_workers_8", "runs": 3, "ns_per_op": 168000000, "ns_per_op_min": 167000000, "ns_per_op_max": 169000000, "bytes_per_op": 3574579, "allocs_per_op": 645}
  ],
  "speedup_tau_kc": 40,
  "speedup_g_kc": 25,
  "speedup_multi": 2
}`,
	"BENCH_stream.json": `{
  "gomaxprocs": 2,
  "results": [
    {"name": "numeric_incremental", "runs": 3, "ns_per_op": 21000, "ns_per_op_min": 20500, "ns_per_op_max": 21343, "bytes_per_op": 322, "allocs_per_op": 0},
    {"name": "numeric_naive", "runs": 3, "ns_per_op": 29400000, "ns_per_op_min": 29000000, "ns_per_op_max": 30000000, "bytes_per_op": 216548, "allocs_per_op": 0},
    {"name": "categorical_incremental", "runs": 3, "ns_per_op": 530, "ns_per_op_min": 529.5, "ns_per_op_max": 530.5, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "categorical_naive", "runs": 3, "ns_per_op": 132500, "ns_per_op_min": 132000, "ns_per_op_max": 133000, "bytes_per_op": 704, "allocs_per_op": 2}
  ],
  "speedup_numeric": 1400,
  "speedup_categorical": 250
}`,
}

// dropLines returns text without the lines containing sub.
func dropLines(text, sub string) string {
	var kept []string
	for _, l := range strings.Split(text, "\n") {
		if !strings.Contains(l, sub) {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "\n")
}

func TestConvert(t *testing.T) {
	for _, tc := range []struct {
		name    string
		input   string
		want    map[string]string // file name -> JSON
		wantErr []string          // substrings of the error; nil for success
	}{
		{name: "four suites", input: benchOutput, want: benchFiles},
		{name: "ratio variant missing", input: dropLines(benchOutput, "checkall_after_append"),
			wantErr: []string{"speedup_append_vs_cold", "checkall_after_append"}},
		{name: "no -benchmem", input: "BenchmarkSuiteStream/numeric_naive-2 \t 37 \t 29400000 ns/op\n",
			wantErr: []string{"B/op", "-benchmem"}},
		{name: "failed run", input: benchOutput + "--- FAIL: BenchmarkSuiteDetect/checkall_cold\nFAIL\n",
			wantErr: []string{"failed"}},
		{name: "mixed GOMAXPROCS", input: benchOutput + strings.ReplaceAll(benchOutput, "-2 ", "-4 "),
			wantErr: []string{"GOMAXPROCS 2 and 4"}},
		{name: "no suites", input: "PASS\nok  \tscoded/internal/detect\t0.1s\n",
			wantErr: []string{"no BenchmarkSuite results"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			paths, err := convert(strings.NewReader(tc.input), dir)
			if tc.wantErr != nil {
				if err == nil {
					t.Fatalf("wrote %v, want an error", paths)
				}
				for _, sub := range tc.wantErr {
					if !strings.Contains(err.Error(), sub) {
						t.Errorf("error %q does not name %q", err, sub)
					}
				}
				if entries, _ := os.ReadDir(dir); len(entries) != 0 {
					t.Errorf("a failed conversion wrote %d files", len(entries))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != len(tc.want) {
				t.Errorf("wrote %v, want %d files", paths, len(tc.want))
			}
			for file, wantJSON := range tc.want {
				got, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				var g, w any
				if err := json.Unmarshal(got, &g); err != nil {
					t.Fatalf("%s: %v", file, err)
				}
				if err := json.Unmarshal([]byte(wantJSON), &w); err != nil {
					t.Fatalf("%s want: %v", file, err)
				}
				if !reflect.DeepEqual(g, w) {
					t.Errorf("%s:\n%s\nwant\n%s", file, got, wantJSON)
				}
			}
		})
	}
}
