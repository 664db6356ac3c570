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
# splits and window sizes on which resident, streamed, after-append and FDR
# runs must agree bit for bit. The explicit run first pins the streamed
# family's shape: one scan per checkall, one manifest snapshot, allocations
# that do not grow with the row count, and columns buffered once per fold.
# Streamed and resident Kendall agree because both call the one stats
# kernel on the same vectors; its bit-level match with the O(n^2) naive
# reference, and the online table's match with TableFromCodes, run here too.
echo "== cross-path detection identity and fuzz =="
go test -run 'CheckAllStream|Fold|ScanManifest|ReusesWindowSlabs' \
	./internal/detect/ ./internal/kernel/ ./internal/store/
go test -run 'Kendall|TablePartial' ./internal/stats/
go test -run='^$' -fuzz=FuzzCheckAllPaths -fuzztime=10s ./internal/detect

# Gating: the drill-down delta-argmax identity properties under the race
# detector. These are part of the suite above; the explicit run keeps the
# fast path's row-for-row contract visible even if the full suite is ever
# scoped down.
echo "== drill-down identity (-race) =="
go test -race -run 'Delta|MultiTopK|WorkloadIdentity' \
	./internal/drilldown/ ./internal/drillbench/

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
# 16). Phase 1 captures /v1/checkall from an unconstrained server; phase 2
# restarts the same data directory under GOMEMLIMIT with -resident-bytes 1
# and asserts a byte-identical answer while /metrics proves the relation
# was never materialized (resident bytes and misses stay 0).
echo "== out-of-core detection smoke =="
"$smokedir/scoded-smoke" -serve "$smokedir/scoded-serve" -mode oocore

# Non-gating: refresh the benchmark trajectories. Timing noise on shared CI
# hardware must not fail the gate, so errors only warn.
echo "== bench (non-gating) =="
if go run ./cmd/scoded-bench -json -suite detect; then
	echo "BENCH_detect.json refreshed."
else
	echo "warning: detect bench run failed (non-gating)" >&2
fi
if go run ./cmd/scoded-bench -json -suite drilldown; then
	echo "BENCH_drilldown.json refreshed."
else
	echo "warning: drilldown bench run failed (non-gating)" >&2
fi
if go run ./cmd/scoded-bench -json -suite stream; then
	echo "BENCH_stream.json refreshed."
else
	echo "warning: stream bench run failed (non-gating)" >&2
fi
if go run ./cmd/scoded-bench -json -suite oocore; then
	echo "BENCH_oocore.json refreshed."
else
	echo "warning: oocore bench run failed (non-gating)" >&2
fi

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
