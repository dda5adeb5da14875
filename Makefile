# Developer entry points.  `make check` is what CI runs: a full build,
# the whole test suite, go vet, the race detector over the
# concurrency-heavy packages (the protocol core, the observability
# counters, the transport decorators, and the party server), and the
# protocol-safety lint suite (which subsumes the documentation checks).

GO ?= go

.PHONY: all build test vet race race-faults fuzz-smoke docs-check docs-drift lint lint-fix-audit loc check bench bench-pipeline bench-cache bench-obs bench-obs-smoke bench-group bench-group-smoke bench-shard bench-shard-smoke bench-delta bench-delta-smoke bench-ec bench-ec-smoke experiments

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
# codec on each push instead of only replaying the committed seeds.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 10s ./internal/wire

# Documentation lint: every exported identifier in internal/* must have
# a doc comment (field-deep in group/ec25519/transport), every
# intra-repo link in the *.md files must resolve, and the benchmark
# history must match the committed records.
docs-check:
	$(GO) run ./cmd/docscheck

# Benchmark-record drift alone: fails when EXPERIMENTS.md's
# benchmark-history table and the BENCH_*.json files disagree — a row
# without a record, a record without a row, or a record missing its
# reproduction fields.
docs-drift:
	$(GO) run ./cmd/docscheck -drift

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

# Observability-overhead benchmark (the BENCH_PR6.json numbers): the
# same intersection with the endpoints detached (no obs session — the
# instrumentation must collapse to nil checks) vs attached (sessions,
# spans, latency histograms, flight recorder), plus the operation-level
# costs of the detached span path and one histogram record.
bench-obs:
	$(GO) test -run xxx -bench ObsOverhead -benchtime 3x .

# Short-mode smoke of the same benches (tiny sets, one iteration) so a
# regression that breaks the instrumented or detached path fails check.
bench-obs-smoke:
	$(GO) test -short -run xxx -bench ObsOverhead -benchtime 1x .

# Group-backend benchmark (the BENCH_PR7.json numbers): the same
# protocols end to end over each commutative-encryption backend —
# qr1024 (the paper's parameters) vs ec25519 — plus the per-operation
# C_e and hash-to-element costs, and the Montgomery-vs-big.Int modexp
# comparison that certifies the fixed-width gate.
bench-group:
	$(GO) test -run xxx -bench GroupBackend -benchtime 3x .
	$(GO) test -run xxx -bench MontVsBigExp -benchtime 50x ./internal/group

# Short-mode smoke of the backend benches (tiny sets, one iteration):
# a regression that breaks a backend's protocol path or the Montgomery
# ladder fails check.
bench-group-smoke:
	$(GO) test -short -run xxx -bench GroupBackend -benchtime 1x .
	$(GO) test -run xxx -bench MontVsBigExp -benchtime 1x ./internal/group

# Shard-parallel benchmark (the BENCH_PR8.json numbers): the same
# intersection over a modelled 4.5 Mbit/s link, classic single session
# (k=1) vs eight multiplexed shards (k=8), with the certified-closed-form
# wall estimates reported alongside; `experiments -exp E12` prints the
# paper-scale (|V|=1M, P=8) projection table.
bench-shard:
	$(GO) test -run xxx -bench IntersectionSharded -benchtime 3x .

# Short-mode smoke of the sharded bench (tiny sets, fast link, one
# iteration): a regression in the mux, the coordinator, or the k=1
# classic path fails check.
bench-shard-smoke:
	$(GO) test -short -run xxx -bench IntersectionSharded -benchtime 1x .

# Delta-maintenance benchmark (the BENCH_PR9.json numbers): a 1%-churn
# requery answered by the cache delta-upgrade path vs the S27 cold
# rebuild at |V_S| = 10k over ec25519, plus the standing-query push
# serving the same churn to a subscriber.
bench-delta:
	$(GO) test -run xxx -bench DeltaRequery -benchtime 3x -timeout 30m .

# Short-mode smoke of the delta bench (tiny set, one iteration): a
# regression in ApplyDelta, the upgrade path, or the subscription pump
# fails check.
bench-delta-smoke:
	$(GO) test -short -run xxx -bench DeltaRequery -benchtime 1x .

# ec25519 per-primitive micro-benchmarks: the field kernels (invert,
# sqrt-ratio), the point codec and map (MapToPoint, Decode, Encode),
# the C_e scalar multiplication, and the three ECGroup entry points the
# protocols call per element — each with allocs/op.  psibench's
# isect_ec_pipe is the end-to-end view of the same constants.
EC_BENCH = 'Fe(Invert|SqrtRatio)|MapToPoint|Decode|Encode|ScalarMult|EC(Apply|Contains|MapToElement)'

bench-ec:
	$(GO) test -run xxx -bench $(EC_BENCH) -benchmem ./internal/ec25519 ./internal/group

# One iteration of each, so CI compiles and runs them.
bench-ec-smoke:
	$(GO) test -run xxx -bench $(EC_BENCH) -benchtime 1x ./internal/ec25519 ./internal/group

# Code size: non-blank, non-comment, non-test Go lines per internal/*
# package — the number behind the roadmap's "net-negative line count"
# deliverable.  A simplification PR reports this before and after.
loc:
	@for d in internal/*/; do \
		files=$$(ls $$d*.go 2>/dev/null | grep -v _test.go); \
		if [ -n "$$files" ]; then \
			printf '%6d  %s\n' "$$(cat $$files | grep -cvE '^\s*(//.*)?$$')" "$${d%/}"; \
		fi; \
	done

check: build vet test race race-faults fuzz-smoke lint docs-drift bench-obs-smoke bench-group-smoke bench-shard-smoke bench-delta-smoke bench-ec-smoke

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Streaming-pipeline benchmark only (the BENCH_PR2.json numbers):
# legacy vs ChunkSize>0 intersection over a modelled T1 link at several
# RTTs.
bench-pipeline:
	$(GO) test -run xxx -bench IntersectionPipelined -benchtime 1x .

# Encrypted-set cache benchmark only (the BENCH_PR4.json numbers):
# the same equijoin with the sender recomputing its encrypted table
# every run (cold) vs replaying it from the cache (warm).
bench-cache:
	$(GO) test -run xxx -bench EquijoinCache -benchtime 1x .

experiments:
	$(GO) run ./cmd/experiments -exp all -quick -group 256
