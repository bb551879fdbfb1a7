GO ?= go

# Pinned linter; `make lint` runs it via `go run` so nothing is installed
# globally. Offline environments fall back to go vet with a warning.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1

.PHONY: all build vet test race bench bench-smoke bench-gate chaos lint cover stackbench-check ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-enabled run of everything, including the root lifecycle-churn
# stress test (concurrency_test.go).
race:
	$(GO) test -race ./...

# Quick pass over the concurrency benchmarks (full numbers come from
# `go run ./cmd/benchrunner`).
bench:
	$(GO) test -run '^$$' -bench BenchmarkConcurrentGuests -benchtime 300x .

# One iteration of every benchmark in the repo: catches benchmarks broken by
# API drift without paying for real measurement runs.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Benchmark-regression gate: run the fixed hot-path suite and compare against
# the committed baseline. Fails (exit 1, printed table) on >15% ns/op
# regression or any allocs/op growth. "auto" resolves the highest-numbered
# committed BENCH_<n>.json, so baseline bumps stop editing this file.
# Regenerate on the same machine with
# `go run ./cmd/benchrunner -bench -out BENCH_<n+1>.json`.
BENCH_BASELINE ?= auto
bench-gate:
	$(GO) run ./cmd/benchrunner -check $(BENCH_BASELINE)

# gofmt first (any file it lists fails lint), then staticcheck when the
# module cache / network can supply it, go vet otherwise (this repo must
# build with zero installs, so lint degrades gracefully).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./...; \
	else \
		echo "staticcheck unavailable (offline?); falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# Coverage floor for the observability packages introduced in PR 4.
COVER_PKGS := ./internal/metrics/... ./internal/trace/...
COVER_MIN  := 70
cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' \
		|| { echo "coverage $$total% below $(COVER_MIN)% floor"; exit 1; }

# Seeded fault storm under the race detector (chaos_test.go). The test logs
# its seed; on failure we echo it again so the schedule can be replayed with
# CHAOS_SEED=<seed> make chaos.
CHAOS_SEED ?=
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -v -run 'TestChaosStorm|TestClusterChaosStorm' -count=1 . ./internal/cluster \
		|| { echo "chaos storm FAILED — replay with CHAOS_SEED=<seed from log above> make chaos"; exit 1; }

# The repository benchmark (stackbench/) is its own Go module, so the
# ./... targets above never reach it: vet and self-test it here, so a change
# to a public name it reads fails CI rather than the next benchmark run.
stackbench-check:
	cd stackbench && $(GO) vet ./... && $(GO) test ./...

ci: vet lint build test race bench-smoke chaos stackbench-check

clean:
	$(GO) clean ./...
