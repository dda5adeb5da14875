# Developer entry points.  `make check` is what CI runs: a full build,
# the whole test suite, go vet, the race detector over the
# concurrency-heavy packages (the protocol core, the observability
# counters, the transport decorators, and the party server), and the
# protocol-safety lint suite (which subsumes the documentation checks).

GO ?= go

.PHONY: all build test vet race race-faults fuzz-smoke docs-check lint lint-fix-audit loc check bench bench-all bench-ec bench-ec-smoke experiments

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# structtag and copylocks are called out explicitly (though both are in
# vet's default set) because the lifecycle configs (party.Timeouts,
# party.Retry, obs.Lifecycle) lean on struct tags and must never be
# copied once their atomics are live.
vet:
	$(GO) vet ./...
	$(GO) vet -structtag -copylocks ./internal/party ./internal/transport ./internal/obs

race:
	$(GO) test -race ./internal/core ./internal/obs ./internal/transport ./internal/commutative ./internal/party

# The session-lifecycle fault suite (stalled peers, accept-error storms,
# drain under load, client retry) under the race detector, time-bounded
# so a reintroduced leak or deadlock fails fast instead of hanging CI.
race-faults:
	$(GO) test -race -timeout 120s \
		-run 'Stalled|Staller|AcceptError|Drain|Saturation|Timeout|Retry|Retries|Cancellation' \
		./internal/party ./internal/transport ./internal/core ./internal/commutative

# Ten seconds of coverage-guided fuzzing of wire.Decode — every vector
# kind goes through the one getVector loop, so this fuzzes the whole
# codec on each push instead of only replaying the committed seeds —
# and five each of the two ec25519 kernels against their differential
# oracles (the five-exponentiation map, the unsigned-window ladder).
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 10s ./internal/wire
	$(GO) test -run xxx -fuzz '^FuzzMapToPoint$$' -fuzztime 5s ./internal/ec25519
	$(GO) test -run xxx -fuzz '^FuzzScalarMult$$' -fuzztime 5s ./internal/ec25519

# Documentation lint: every exported identifier in internal/* must have
# a doc comment (field-deep in group/ec25519/transport), every
# intra-repo link in the *.md files must resolve, and every internal/*
# package but simulate must have a non-test importer outside itself.
docs-check:
	$(GO) run ./cmd/docscheck

# Protocol-safety static analysis (internal/analysis): secretlog,
# bigintalias, ctxflow, errclose, spanpair, the interprocedural leakflow
# taint proof and the wirekind dispatch-exhaustiveness check over the
# whole module, with the documentation checks folded into the same exit
# code.  -summary appends the per-analyzer findings/elapsed table; use
# `go run ./cmd/psilint -why file:line` to see the source→sink chain
# behind a leakflow finding.
lint:
	$(GO) run ./cmd/psilint -summary ./...

# Inventory of every `lint:ignore` escape hatch in the tree, with the
# mandatory reasons — review this when auditing suppressions.
lint-fix-audit:
	$(GO) run ./cmd/psilint -audit ./...

# ec25519 per-primitive micro-benchmarks: the field kernels (mul,
# square, add — the ladder's inner constants — invert, sqrt-ratio), the
# point codec and map (MapToPoint, Decode, Encode), the C_e scalar
# multiplication, and the three ECGroup entry points the protocols call
# per element — each with allocs/op.  psibench's isect_ec_pipe is the
# end-to-end view of the same constants.
EC_BENCH = 'Fe(Mul|Square|Add|Invert|SqrtRatio)|MapToPoint|Decode|Encode|ScalarMult|EC(Apply|Contains|MapToElement)'

bench-ec:
	$(GO) test -run xxx -bench $(EC_BENCH) -benchmem ./internal/ec25519 ./internal/group

# One iteration of each, so CI compiles and runs them.
bench-ec-smoke:
	$(GO) test -run xxx -bench $(EC_BENCH) -benchtime 1x ./internal/ec25519 ./internal/group

# Code size: non-blank, non-comment, non-test Go lines per internal/*
# package — the number behind the roadmap's "net-negative line count"
# deliverable.  A simplification PR reports this before and after.
loc:
	@total=0; for d in internal/*/; do \
		files=$$(ls $$d*.go 2>/dev/null | grep -v _test.go); \
		if [ -n "$$files" ]; then \
			n=$$(cat $$files | grep -cvE '^\s*(//.*)?$$'); total=$$((total + n)); \
			printf '%6d  %s\n' "$$n" "$${d%/}"; \
		fi; \
	done; printf '%6d  total\n' "$$total"

check: build vet test race race-faults fuzz-smoke lint bench-ec-smoke

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# psibench, the benchmark every speed claim is judged on: the six
# workloads of BENCHMARK.json, end-to-end metrics then a traced
# per-layer run each (bench/README.md defines them).
bench-all:
	$(GO) run ./cmd/psibench

experiments:
	$(GO) run ./cmd/experiments -exp all -quick -group 256
