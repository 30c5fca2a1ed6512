GO ?= go

.PHONY: build test race vet fmt lint lint-stats test-sim test-resilience fuzz cover bench-module check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race tier is a standing requirement: the topology, acker, and kvstore
# are exercised concurrently by their tests, so this catches real interleaving
# bugs, not just annotation drift. -count=1 defeats the test cache on purpose.
race:
	$(GO) test -race -count=1 ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# vidlint is the repo's own analyzer (internal/lint): the per-function passes
# (lockcheck, atomiccheck, errcheck, goroutinecheck, clockcheck), the
# call-graph dataflow suite (lockorder, numcheck, ctxcheck) and the serving
# allocation budget (alloccheck). Zero findings is the merge bar: a finding
# is fixed or carries an inline escape hatch.
lint:
	$(GO) run ./cmd/vidlint ./...

# Per-pass discipline dashboard: findings and inline escape hatches in the
# tree. Run by `make check` so discipline drift (a creeping hatch count) is
# visible on every gate.
lint-stats:
	$(GO) run ./cmd/vidlint -stats ./...

# The deterministic end-to-end simulation tier (internal/sim): the full
# scenario matrix — transports, KV/bolt fault schedules, load shapes — under
# the race detector, including the replay-determinism byte-identical-state
# check. -count=1 so a digest regression can never hide behind the cache.
test-sim:
	$(GO) test -race -count=1 ./internal/sim/

# The failover tier: the resilient storage stack's own tests — primary/
# backup group failover (promotion, missed-delete replay on Rejoin),
# retry/backoff (exact seeded delays), breaker state machine (every
# transition on an injected clock), and the client redial regression —
# under the race detector, -count=1 so timing-sensitive state machines can
# never hide behind the test cache. The sim tier's replica-failover /
# shard-loss / breaker-trip-recover / degraded-serving scenarios exercise
# the same stack end to end.
test-resilience:
	$(GO) test -race -count=1 ./internal/kvstore -run 'Resilient|ShardGroup|Rejoin|Breaker|Backoff|Redial'

# Fuzz smoke: each target briefly, as a regression gate over the committed
# seeds plus a short exploration budget. Long exploratory runs are manual
# (raise FUZZTIME). The slate target's seeds are its 10k differential cases,
# which the fuzzer replays for baseline coverage (about 25s on two cores)
# before it explores; -fuzztime sums repeated units, so its 30s$(FUZZTIME) is
# that pass plus FUZZTIME. The HTTP target builds a system per case (about
# 1ms), so minimizing a new input to its default 60s would eat the budget;
# it gets 5s.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/kvstore -run '^$$' -fuzz '^FuzzDecodeEntries$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvstore -run '^$$' -fuzz '^FuzzEntryCursor$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvstore -run '^$$' -fuzz '^FuzzDecodeStrings$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvstore -run '^$$' -fuzz '^FuzzDecodeFloats$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvstore -run '^$$' -fuzz '^FuzzNetRequestFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvstore -run '^$$' -fuzz '^FuzzApplyOp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vecmath -run '^$$' -fuzz '^FuzzQuantize$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/feedback -run '^$$' -fuzz '^FuzzWeight$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bandit -run '^$$' -fuzz '^FuzzRewardCodec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bandit -run '^$$' -fuzz '^FuzzRewardEvent$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/recommend -run '^$$' -fuzz '^FuzzSlateMatchesReference$$' -fuzztime 30s$(FUZZTIME)
	$(GO) test ./cmd/recserve -run '^$$' -fuzz '^FuzzHTTP$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s

# Coverage floors: internal/lint is the merge bar for everything else, and
# internal/bandit decides what users see — both must hold >= 85% statement
# coverage. Each package's coverage line is checked individually; the awk
# exit keeps the gate self-contained (no tooling beyond go test).
#
# The sharded tier gets its own floor: whole-package kvstore coverage would
# let untested sharding code hide behind the mature codec/net/resilience
# tests, so the gate recomputes statement coverage from the profile over
# just the sharding files (shardmap, shardgroup, sharded) and holds them to
# the same >= 85%.
COVER_FLOOR ?= 85
SHARD_COVER_PROFILE ?= /tmp/vidrec-shard-cover.out
cover:
	@$(GO) test -cover ./internal/lint ./internal/bandit -count=1 | awk -v floor=$(COVER_FLOOR) ' \
		{ print } \
		/coverage:/ { pct = $$5; gsub(/%.*/, "", pct); \
			if (pct + 0 < floor + 0) { bad = 1; low = $$2 " " pct "%" } } \
		END { if (bad) { \
			printf "coverage %s is below the %d%% floor\n", low, floor; exit 1 } }'
	@$(GO) test -coverprofile=$(SHARD_COVER_PROFILE) -count=1 ./internal/kvstore >/dev/null
	@awk -v floor=$(COVER_FLOOR) ' \
		$$1 ~ /internal\/kvstore\/(shardmap|shardgroup|sharded)\.go:/ { \
			total += $$2; if ($$3 + 0 > 0) covered += $$2 } \
		END { if (total == 0) { \
				print "cover: no sharding statements in profile"; exit 1 } \
			pct = 100 * covered / total; \
			printf "coverage: internal/kvstore sharding files %.1f%% of statements\n", pct; \
			if (pct < floor + 0) { \
				printf "sharding coverage %.1f%% is below the %d%% floor\n", pct, floor; exit 1 } }' \
		$(SHARD_COVER_PROFILE)

# The end-to-end benchmark harness is a nested module (benchmark/go.mod,
# `replace vidrec => ../`) that links the internal core, demographic and
# recommend APIs it measures. Tier-1 `go test ./...` stops at the module
# boundary, so build, vet, test and lint it here against this tree: an API
# change that breaks the harness fails the gate instead of the next benchmark
# run. vidlint lints the module it is started in, so it runs from inside
# benchmark/, named by import path (the replace makes vidrec/cmd/vidlint
# resolvable there; the relative ../cmd/vidlint is outside that module).
bench-module:
	cd benchmark && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./... \
		&& $(GO) run vidrec/cmd/vidlint ./...

check: build vet fmt lint lint-stats cover test bench-module race test-sim test-resilience fuzz
