GO ?= go

# Pinned lint tool versions, kept in sync with .github/workflows/ci.yml.
STATICCHECK_VERSION ?= v0.6.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build test check ci lint bench bench-smoke race persistence-torture fmt-check obs-check metrics-doc soak slo-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the fast pre-merge gate: vet everything, run the
# concurrency-sensitive suites (state commit pipeline, chain read/write
# paths, rpc, app) under the race detector, the upgrade-guard suites
# (layout-diff round-trip property included) plus the manager tier that
# exercises them end to end, then the crash-recovery fault-injection
# suites.
check:
	$(MAKE) fmt-check
	$(MAKE) metrics-doc
	$(GO) vet ./...
	$(GO) test -race ./internal/state/... ./internal/chain/... ./internal/rpc/... ./internal/app/... ./internal/xtrace/...
	$(GO) test -race -count 1 ./internal/upgrade/... ./internal/core/...
	$(MAKE) persistence-torture
	$(MAKE) obs-check

# ci mirrors .github/workflows/ci.yml exactly, so the merge gate is
# reproducible locally: the build-test matrix job, the lint job, the
# check job, and the bench-smoke job. If ci passes here, the workflow
# passes there.
ci:
	$(MAKE) build
	$(MAKE) test
	$(MAKE) lint
	$(MAKE) check
	$(MAKE) bench-smoke
	$(MAKE) slo-smoke
	$(MAKE) soak

# lint mirrors the ci.yml lint job: staticcheck plus govulncheck at the
# pinned versions above. Binaries already on PATH are preferred so the
# target works offline; otherwise the pinned module versions are
# resolved through `go run` (needs network once, then the module cache).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; \
	fi

# fmt-check fails the build if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# metrics-doc fails if a registered metric family is missing from the
# README's metrics reference table, or if the table lists a family that
# is no longer registered (rows: `go run ./cmd/metricsdoc -list`).
metrics-doc:
	$(GO) run ./cmd/metricsdoc

# obs-check is the instrumentation-overhead gate: it fails if the
# metrics layer or disabled span tracing slows the EthCall hot path by
# more than 5% (interleaved best-of-8 comparison per gate).
obs-check:
	OBS_CHECK=1 $(GO) test -run 'TestEthCallInstrumentationOverhead|TestEthCallTracingOverhead' -count 1 ./internal/chain/

# persistence-torture runs every fault-injection suite — torn log
# tails, flipped bytes, deleted/corrupted snapshots, damaged WALs —
# under the race detector.
persistence-torture:
	$(GO) test -race ./internal/blockdb/... ./internal/docstore/...
	$(GO) test -race -run 'Restart|Torture|Genesis|WAL' ./internal/chain/... ./internal/rpc/...

race:
	$(GO) test -race ./internal/state/... ./internal/chain/... ./internal/rpc/... ./internal/app/... ./internal/xtrace/...

# bench-host prints the parallelism the numbers were taken at (benchmark
# name suffixes also carry GOMAXPROCS, but only implicitly).
define BENCH_HOST
echo "bench host: $$(nproc) cores, GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)} ($$(uname -s)/$$(uname -m))"
endef

bench:
	@$(BENCH_HOST)
	$(GO) test -run xxx -bench . -benchtime 3x .
	$(GO) test -run xxx -bench 'StateRoot|Copy_COW|EthCall' ./internal/state/ ./internal/chain/
	$(GO) test -run xxx -bench Recovery -benchtime 3x ./internal/chain/
	$(GO) test -run xxx -bench 'ParallelEthCall|ReadsDuringSeal' -benchtime 1s ./internal/chain/
	$(GO) test -run xxx -bench MineLoopSubscribers -benchtime 20x ./internal/chain/

# bench-smoke is the CI-sized benchmark run: one iteration of each
# tracked benchmark, enough to catch panics and pathological
# regressions without burning runner minutes. Output lands in
# bench-smoke.txt (uploaded as a CI artifact).
bench-smoke:
	@{ $(BENCH_HOST); \
	$(GO) test -run xxx -bench 'StateRoot|EthCall|Recovery|ParallelEthCall|ReadsDuringSeal|MineLoopSubscribers' -benchtime 1x ./internal/state/ ./internal/chain/; } | tee bench-smoke.txt

# soak is the bounded-memory gate for the disk-backed state store: it
# grows the world to SOAK_ACCOUNTS accounts (default 100k; the paper
# experiment in EXPERIMENTS.md §P7 uses 1M) through per-block
# commit/evict cycles and fails if the process RSS ever exceeds
# SOAK_RSS_MB. Per-interval samples land in soak-rss.csv (uploaded as
# a CI artifact).
# slo-smoke is the latency/SLO gate for the serving tier: the loadgen
# drives SLO_USERS simulated read-only users, SLO_PAIRS full rental
# lifecycles and SLO_SUBS WebSocket newHeads subscribers against an
# in-process node for SLO_SECONDS, then fails unless read p99 stays
# under SLO_P99_READ with zero lifecycle errors, zero subscription
# gaps and zero out-of-order heads. Per-op percentiles land in
# loadgen.csv / loadgen.json (uploaded as a CI artifact).
SLO_USERS ?= 10000
SLO_PAIRS ?= 8
SLO_SUBS ?= 128
SLO_SECONDS ?= 30
SLO_P99_READ ?= 50ms
SLO_WATCH_LAG ?= 1
slo-smoke:
	$(GO) run ./cmd/loadgen -users $(SLO_USERS) -pairs $(SLO_PAIRS) \
		-subscribers $(SLO_SUBS) -duration $(SLO_SECONDS)s -think 2s \
		-gate-p99-read $(SLO_P99_READ) -gate-zero-drops \
		-gate-watch-lag $(SLO_WATCH_LAG) \
		-out loadgen.json -csv loadgen.csv
	@cat loadgen.csv

SOAK_ACCOUNTS ?= 100000
SOAK_RSS_MB ?= 512
soak:
	SOAK=1 SOAK_ACCOUNTS=$(SOAK_ACCOUNTS) SOAK_RSS_MB=$(SOAK_RSS_MB) SOAK_CSV=$(CURDIR)/soak-rss.csv \
		$(GO) test -run TestSoakDiskStateRSS -count 1 -timeout 60m -v ./internal/state/
