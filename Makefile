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
# (-short skips the smoke run that builds and boots hdserve; bench/run.sh
# is the ledger itself).
bench-test:
	cd bench && $(GO) test -short -race ./...

# Short coverage-guided runs of the cq fuzz targets (seed corpora under
# internal/cq/testdata/fuzz): parse→render→parse must round-trip and
# CanonicalForm must be α-rename-invariant. 5s per target keeps the gate
# fast; run with a longer -fuzztime locally when touching the parser.
fuzz-smoke:
	$(GO) test ./internal/cq/ -fuzz FuzzParseQuery -fuzztime 5s -run '^$$'
	$(GO) test ./internal/cq/ -fuzz FuzzCanonicalForm -fuzztime 5s -run '^$$'
	$(GO) test ./internal/relation/ -fuzz FuzzParseFacts -fuzztime 5s -run '^$$'

# End-to-end smoke of the serving path: boot hdserve over the generated
# serving database with sampled tracing and OTel file export, drive a 5s
# hdload burst, validate the metrics exposition (exemplars included) and
# the export file, drain on SIGTERM, then run the hdload -churn exercise
# against a second server and assert the q-error-triggered statistics
# refresh closed the feedback loop (see scripts/serve_smoke.sh).
serve-smoke:
	sh ./scripts/serve_smoke.sh
