GO ?= go

.PHONY: build test race vet lint fmt fmt-check bench profile ci

build: ## compile the library and every binary
	$(GO) build ./...

test: ## run the full test suite
	$(GO) test ./...

race: ## run the full test suite under the race detector
	$(GO) test -race ./...

vet: ## static analysis
	$(GO) vet ./...

lint: ## SCODED-specific static analysis, all eleven analyzers (DESIGN.md sections 8, 13 and 15)
	$(GO) run ./cmd/scoded-lint ./...

fmt: ## rewrite sources with gofmt
	gofmt -w .

fmt-check: ## fail if any file needs gofmt
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench: ## regenerate BENCH_detect.json, BENCH_drilldown.json, BENCH_stream.json and BENCH_oocore.json
	$(GO) test -run '^$$' -bench Suite -benchmem -count 5 ./internal/detect ./internal/drilldown ./internal/stream | $(GO) run ./cmd/scoded-bench -json

bench-all: ## run every Go benchmark in the repo
	$(GO) test -bench=. -benchmem ./...

PROFILE_DIR ?= profiles

profile: ## capture CPU + allocation profiles of the detect suite's hot path (DESIGN.md section 15)
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench SuiteDetect -benchmem -o $(PROFILE_DIR)/detect.test \
		-cpuprofile $(PROFILE_DIR)/detect_cpu.pprof -memprofile $(PROFILE_DIR)/detect_mem.pprof ./internal/detect
	@echo "wrote $(PROFILE_DIR)/detect_cpu.pprof and $(PROFILE_DIR)/detect_mem.pprof"
	@echo "inspect with: go tool pprof -top $(PROFILE_DIR)/detect_cpu.pprof"

ci: ## the full CI gate: fmt-check + vet + lint + race tests
	./scripts/ci.sh
