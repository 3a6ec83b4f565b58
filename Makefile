# Build and verification entry points. `make check` is the gate every
# change must pass: clean build, vet, the full test suite under the
# race detector (the phase-merged machine backend fans out across host
# goroutines, so races are correctness bugs here, not just hygiene),
# and the seeded fault-injection suite (the robustness gate: every
# fault class must be absorbed or surfaced as a typed error).

GO ?= go

.PHONY: all build vet vet-tdgraph vet-fast test race faults chaos determinism fuzz-smoke bench-module loc check bench benchsim bench-native clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-invariant analyzer suite (internal/analysis): mechanically
# enforces the determinism contract (no wall-clock / global rand /
# order-sensitive map iteration in sim/engine/core/accel/graph/algo/
# native),
# the %w error-wrapping contract, defer-unlock discipline, the
# fsync-before-ack ordering in wal/replica, stats counter-table
# registration, and the interprocedural v2 checks: inferred field
# guards (lockguard), blocking ops under a held mutex (lockhold),
# goroutine quiescence barriers in serve/replica/native (goroleak),
# and the zero-alloc native hot path (hotalloc). See DESIGN.md
# "Static-analysis ladder".
vet-tdgraph:
	$(GO) run ./cmd/tdgraph-vet ./...

# Incremental analyzer run for the edit loop: only packages whose .go
# files changed since the last clean pass, keyed by an mtime stamp.
# The first run (no stamp) covers the whole module; a run with
# findings leaves the stamp untouched so the offending packages stay
# in the next run's set. Advisory only — the interprocedural checks
# see just the changed packages here, so `make check` still runs the
# full-module suite.
VET_STAMP := .cache/vet-stamp

vet-fast:
	@mkdir -p .cache
	@touch $(VET_STAMP).next  # taken before the run: files edited while
	@# vet runs stay in the next run's set instead of slipping through.
	@if [ ! -f $(VET_STAMP) ]; then \
		echo "vet-fast: no stamp, running the full module"; \
		$(GO) run ./cmd/tdgraph-vet ./... && mv $(VET_STAMP).next $(VET_STAMP); \
	else \
		dirs=$$(find . -name '*.go' -newer $(VET_STAMP) \
			-not -path './.git/*' -not -path '*/testdata/*' \
			| xargs -rn1 dirname | sort -u); \
		if [ -z "$$dirs" ]; then \
			echo "vet-fast: no packages changed since last clean pass"; \
			rm -f $(VET_STAMP).next; \
		else \
			echo "vet-fast: $$dirs"; \
			$(GO) run ./cmd/tdgraph-vet $$dirs && mv $(VET_STAMP).next $(VET_STAMP); \
		fi; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Seeded fault-injection suite: injector unit tests, hardened
# ingestion/checkpoint/session tests, and the full "robust" experiment
# (all five acceptance classes, double-run determinism included).
faults:
	$(GO) test -count=1 -run 'Fault|Robust|Checkpoint|Session|Sanitize|Validat|Watchdog|Mutate|Corrupt|Hang|WAL|Serve|Backoff|Breaker|Queue|Retry|Pipeline|Conn|Frame|Tailer|Replicated|Quorum|Follower|Fenced|Reseed|Snap|Retain|Group' . ./internal/fault ./internal/stream ./internal/bench ./internal/sim ./internal/wal ./internal/serve ./internal/replica

# Chaos suite: seeded kill-anywhere crash/recovery trials over the
# durable ingestion pipeline, kill-the-primary replication failover
# trials, the self-healing reseed trials (primary killed
# mid-snapshot-transfer, follower crashed mid-install,
# replication-aware retention deleting shipped history under live
# followers), and the self-driving cluster trials (leader killed with
# no operator in the loop, asymmetric partitions, isolated leader
# healing back in — plus the election state-machine unit tests), and
# the overload-ladder trials (WAL volume filled mid-ingest — the
# leader degrades to read-only with typed retryable rejections and
# resumes once space frees; a deadline storm against a slow quorum —
# every pre-heal submission expires in flight yet completion stays
# exactly-once), and the group-commit count, serial-equivalence and
# follower fault-table tests, under the race detector. Proves no
# acknowledged batch is lost past the last fsync (or quorum) barrier,
# that the recovered, promoted, or reseeded node's vertex states are
# byte-identical to an uninterrupted run, that deposed primaries are
# fenced, and that every term has at most one leader.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Failover|Fenced|Reseed|Election|Node|Group' ./internal/serve ./internal/replica

# Determinism tests under the race detector: fixed seeds must give
# bit-identical results on both machine backends, any worker count.
determinism:
	$(GO) test -race -count=1 -run 'Determin|HostPar' ./...

# Short native-fuzz smoke over the binary decoders (one -fuzz target
# per invocation is a `go test` restriction): checkpoint loader (seeded
# with a torn and a bit-flipped meta payload, a file torn between the
# graph payload and its trailing CRC, a bit flip in that CRC, the
# retired v2 header and a whole file in the retired v3 framing), SNAP
# loader, WAL record/segment decoder (with the canonical-payload
# property: every accepted payload re-encodes to itself),
# recovery-vs-tailer agreement over mutated segment sets (same property
# per shipped record), replication frame codec, and the
# snapshot-transfer offer/chunk framing (seeds in the meta-less offer
# layout: total | crc | ledger).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSessionLoad$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSNAP$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentReaders$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzReplicaFrame$$' -fuzztime 10s ./internal/replica
	$(GO) test -run '^$$' -fuzz '^FuzzSnapFrame$$' -fuzztime 10s ./internal/replica

# benchmark/ is its own module (BENCHMARK.json runs `go run -C benchmark .`),
# so `go build ./...` at the root never compiles it: a root-module API
# change that breaks the serving benchmark is only visible here.
bench-module:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# The two sizes ROADMAP tracks: non-test and test Go lines, leaving out
# the benchmark module and the analyzer's fixture packages.
LOC_FIND := find . -name '*.go' -not -path './.git/*' -not -path './benchmark/*' -not -path '*/testdata/*'

loc:
	@echo "non-test Go lines: $$($(LOC_FIND) -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines:     $$($(LOC_FIND) -name '*_test.go' | xargs cat | wc -l)"

check: build vet vet-tdgraph race faults chaos bench-module

# Paper-figure benchmark sweep (see bench_test.go for the cell list).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Harness self-timing: inline vs phase-merged backends -> BENCH_sim.json.
benchsim:
	$(GO) run ./cmd/tdgraph-bench -simjson BENCH_sim.json

# Production apply path: incremental native session vs per-batch CSR
# rebuild across batch sizes -> BENCH_native.json.
bench-native:
	$(GO) run ./cmd/tdgraph-bench -nativejson BENCH_native.json

clean:
	$(GO) clean ./...
	rm -rf .cache
