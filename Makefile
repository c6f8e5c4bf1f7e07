GO ?= go

.PHONY: check fmt vet build test race bench bench-smoke bench-test docs serve-smoke fuzz-smoke

# The full gate CI runs: formatting, vet, build, race-instrumented tests
# (the parallel evaluator and decomposition code must stay race-clean),
# the documentation gate, a short coverage-guided fuzz burst over the
# query parser/renderer round trip, and the tests of the benchmark module.
check: fmt vet build race docs fuzz-smoke bench-test

# Documentation gate: vet + gofmt plus godoc coverage — every exported
# identifier in every package must carry a doc comment (see
# internal/tools/doccheck; runnable Example functions are exercised by the
# ordinary test targets).
docs: fmt vet
	$(GO) run ./internal/tools/doccheck -r .

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# CI smoke of the experiment suite: every benchmark once (the bench
# target), then every hdbench experiment (E1–E30) at -smoke scale — the
# experiments carry their own assertions, so a bit-rotted experiment
# fails the build. CI captures this target's output as a workflow
# artifact, so keep it self-describing: it is the inspectable perf
# trajectory across PRs.
bench-smoke: bench
	$(GO) run ./cmd/hdbench -smoke

# The performance ledger under bench/ is a Go module of its own, which
# `go test ./...` at the root does not reach: run its unit tests here
# (-short skips the smoke run that builds and boots hdserve; serve-smoke
# runs it, and bench/run.sh is the ledger itself).
bench-test:
	cd bench && $(GO) test -short -race ./...

# Short coverage-guided runs of the fuzz targets (seed corpora under
# internal/cq/testdata/fuzz): parse→render→parse must round-trip,
# CanonicalForm must be α-rename-invariant, malformed facts must be refused,
# and every /admin/ingest body must get 200 or 400 with the database intact.
# 5s per target keeps the gate fast; run with a longer -fuzztime locally
# when touching the parser or the ingest path.
fuzz-smoke:
	$(GO) test ./internal/cq/ -fuzz FuzzParseQuery -fuzztime 5s -run '^$$'
	$(GO) test ./internal/cq/ -fuzz FuzzCanonicalForm -fuzztime 5s -run '^$$'
	$(GO) test ./internal/relation/ -fuzz FuzzParseFacts -fuzztime 5s -run '^$$'
	$(GO) test ./internal/serve/ -fuzz FuzzIngest -fuzztime 5s -run '^$$'

# End-to-end smoke of the serving path: the benchmark's own smoke test
# builds hdserve from this checkout and drives it with every bench workload,
# untraced and traced, at a twentieth of the ledger's length, failing on any
# failed request or any answer that differs from naive evaluation.
serve-smoke:
	cd bench && $(GO) test -count=1 -run TestSmokeAllWorkloads ./...
