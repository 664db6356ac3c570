#!/bin/sh
# CI gate for the SCODED repo: formatting, static analysis, and the full
# test suite under the race detector. Run from the repo root (make ci).
set -eu

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

# The expanded lint gate: all eleven analyzers, including the flow-sensitive
# four (lockbalance, goroleak, errflow, deferloop — DESIGN.md section 13)
# and the hot-path allocation discipline (allochot — DESIGN.md section 15),
# run over the whole module before any test does. The tree must be clean:
# a load or type error exits 2, any unsuppressed finding exits 1.
echo "== scoded-lint (make lint) =="
make lint

# -shuffle=on randomizes test order within each package, so an accidental
# inter-test dependency (shared package state, leaked goroutines) fails
# loudly here instead of lurking until an unlucky local run.
echo "== go test -race -shuffle=on =="
go test -race -shuffle=on ./...

# Gating: the benchmark module. bench/ is its own Go module, so the root
# `go test ./...` above never builds it; vetting and testing it here makes
# a change to an API the benchmark compiles against fail CI.
echo "== bench module (vet, -race) =="
(cd bench && go vet ./... && go test -race ./...)

# Gating: cross-path detection identity. The fuzz target's committed seeds
# run in the suite above; ten seconds of fuzzing explores new relations,
# splits, window sizes and methods on which resident, streamed,
# after-append and FDR runs must agree bit for bit. The explicit run first
# pins every method's streamed identity and the streamed family's shape:
# one scan per checkall, one manifest snapshot, allocations that do not
# grow with the row count, and columns buffered once per fold. Streamed
# and resident Kendall agree because both count with the one stats kernel
# on the same rank views; its bit-level match with the O(n^2) naive
# reference runs here too, and ten seconds of fuzzing feed it heavy ties,
# ±0, ±Inf, subnormals, NaN and raw bit patterns.
echo "== cross-path detection identity and fuzz =="
go test -run 'CheckAllStream|Fold|ScanManifest|ReusesWindowSlabs' \
	./internal/detect/ ./internal/kernel/ ./internal/store/
go test -run 'Kendall|DenseRanks' ./internal/stats/
go test -run='^$' -fuzz=FuzzCheckAllPaths -fuzztime=10s ./internal/detect
go test -run='^$' -fuzz=FuzzKendall -fuzztime=10s ./internal/stats

# Gating: the segment reader. Every segment read (windowed scans, Load,
# LoadLog, Verify, Compact) goes through one decoder; ten seconds of
# fuzzing feeds it arbitrary and resealed bytes, read whole and streamed
# through tiny buffers, which must agree and never panic.
echo "== segment reader fuzz =="
go test -run='^$' -fuzz=FuzzSegment -fuzztime=10s ./internal/store

# Gating: the drill-down delta-argmax identity properties under the race
# detector. These are part of the suite above; the explicit run keeps the
# fast path's row-for-row contract visible even if the full suite is ever
# scoped down. Ten seconds of fuzzing then explores new tiny relations
# (heavy ties, ±0, ±Inf, NaN, 1-4 strata) on which TopK must equal
# TopKLinear for both methods, strategies, objectives and directions.
echo "== drill-down identity (-race) and fuzz =="
go test -race -run 'Delta|MultiTopK|WorkloadIdentity' \
	./internal/drilldown/ ./internal/drillbench/
go test -run='^$' -fuzz=FuzzTopKMatchesLinear -fuzztime=10s ./internal/drilldown

# Gating: the streaming incremental kernels' differential harness under
# the race detector — every insert/evict step of the fuzz seeds and the
# turnover test must agree with a from-scratch recompute (exact pair
# sums, 1e-12 on tau/G), and the ingest/backpressure/alert endpoints must
# be race-clean. Part of the full suite above; the explicit run keeps the
# step-for-step contract visible even if the full suite is ever scoped
# down.
echo "== streaming differential harness (-race) =="
go test -race -shuffle=on \
	-run 'Fuzz|Differential|Records|Alert|StreamMetrics|NaiveAndIncremental' \
	./internal/stream/ ./internal/streambench/ ./internal/server/

# Gating: ten seconds of fuzzing per monitor kind, beyond the committed
# seeds the suite above runs. The numeric index carries its sorted
# snapshot across rebuilds and merges new points into it, so a fault can
# hide in state that only a long or unusual insert/evict sequence
# reaches. The categorical target crosses the Kahan re-anchor boundary.
echo "== streaming monitor fuzz =="
go test -run='^$' -fuzz=FuzzNumericMonitorIncremental -fuzztime=10s ./internal/stream
go test -run='^$' -fuzz=FuzzCategoricalMonitorIncremental -fuzztime=10s ./internal/stream

# Gating: restart durability against real processes. The smoke builds
# scoded-serve, accumulates durable state (upload + append + constraints +
# an observed monitor), SIGTERMs the process, restarts it on the same data
# directory, and asserts /v1/checkall and /v1/monitors answer
# byte-identically.
echo "== restart durability smoke =="
smokedir="$(mktemp -d)"
trap 'rm -rf "$smokedir"' EXIT
go build -o "$smokedir/scoded-serve" ./cmd/scoded-serve
go build -o "$smokedir/scoded-smoke" ./cmd/scoded-smoke
"$smokedir/scoded-smoke" -serve "$smokedir/scoded-serve"

# Gating: out-of-core detection against real processes (DESIGN.md section
# 16). Phase 1 captures three /v1/checkall answers (the registered family,
# a Spearman family, auto_exact) from an unconstrained server; phase 2
# restarts the same data directory under GOMEMLIMIT with -resident-bytes 1
# and asserts byte-identical answers while /metrics proves the relation
# was never materialized (resident bytes and misses stay 0).
echo "== out-of-core detection smoke =="
"$smokedir/scoded-smoke" -serve "$smokedir/scoded-serve" -mode oocore

# Non-gating: run the micro-benchmark suites. Timing noise on shared CI
# hardware must not fail the gate, so errors only warn. The results land
# in the temporary directory, not over the committed BENCH_*.json files,
# so a CI run leaves the checkout clean; regenerate those with make bench.
echo "== bench (non-gating) =="
for suite in detect drilldown stream oocore; do
	if go run ./cmd/scoded-bench -json -suite "$suite" -out "$smokedir/BENCH_$suite.json"; then
		echo "BENCH_$suite.json written to $smokedir."
	else
		echo "warning: $suite bench run failed (non-gating)" >&2
	fi
done

# Non-gating: capture CPU + allocation profiles of the detect hot path so a
# perf regression investigation always has a current flamegraph to diff
# against DESIGN.md section 15's committed findings. Profiles land in
# profiles/ (gitignored); failures only warn.
echo "== profile capture (non-gating) =="
if make profile >/dev/null 2>&1; then
	echo "profiles/detect_{cpu,mem}.pprof refreshed."
else
	echo "warning: profile capture failed (non-gating)" >&2
fi

echo "CI gate passed."
