# Build and verification entry points. `make check` is the gate every
# change must pass; it is exactly scripts/check.sh.

GO ?= go

.PHONY: build test lint race check fmt bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Project-specific static analysis (see internal/lint and `rmlint -rules`).
lint:
	$(GO) run ./cmd/rmlint ./...

# Race-detector pass over the packages that own or drive concurrency
# (rse/rse16 join for the sharded parallel encode).
race:
	$(GO) test -race -short ./internal/udpcast/ ./internal/simnet/ ./internal/core/ ./internal/mcrun/ ./internal/pipeline/ ./internal/rse/ ./internal/rse16/ ./internal/rect/ ./internal/field/ ./internal/adapt/

check:
	sh scripts/check.sh

# Perf trajectory snapshot (kernel + codec + sim + NP loopback + field +
# codec-portfolio tiers -> BENCH_PR10.json).
bench:
	sh scripts/bench.sh

fmt:
	gofmt -w .
