# Build and verification entry points. `make check` is the gate every
# change must pass: clean build, vet, the full test suite under the
# race detector (the native engine's worker pool and the serve/replica
# goroutines share state, so races are correctness bugs here, not just
# hygiene), and the seeded fault-injection suite (the robustness gate:
# every fault class must be absorbed or surfaced as a typed error).

GO ?= go

.PHONY: all build vet vet-tdgraph test race faults chaos determinism fuzz-smoke bench-module loc figures examples check bench bench-native clean

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
# and the zero-alloc native hot path (hotalloc). Packages come from
# `go list` (./... plus the nested benchmark module); a package that
# does not type-check fails the rung with exit 2. See DESIGN.md
# "Static-analysis ladder".
vet-tdgraph:
	$(GO) run ./cmd/tdgraph-vet ./...

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
# follower fault-table tests, under the race detector. Every member in
# these suites serves on the native engine, as tdgraph-serve does, and
# is compared with a sim-engine reference run. Every replica chaos
# story ends in one oracle (internal/replica/oracle_test.go: one leader
# per term, every acked batch kept exactly once in every survivor's
# WAL, ledgers at most one entry ahead, states byte-identical to an
# uninterrupted run) and runs twice to the same digest. The cluster
# stories run on the manual clock, except the deadline storm: its
# subject, the client's in-flight expiry, is a real-time pipe deadline.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Failover|Fenced|Reseed|Election|Node|Group' ./internal/serve ./internal/replica

# Determinism tests under the race detector: double runs agree (fixed
# seeds give bit-identical results).
determinism:
	$(GO) test -race -count=1 -run 'Determin' ./...

# Short native-fuzz smoke over the binary decoders (one -fuzz target
# per invocation is a `go test` restriction): checkpoint loader (seeded
# with a torn and a bit-flipped meta payload, a file torn between the
# graph payload and its trailing CRC, a bit flip in that CRC, the
# retired v2 header and a whole file in the retired v3 framing), SNAP
# loader, graph.Store against the Builder over hub-skewed update
# streams (through every adjacency tier), the bulk store loaders against
# an AddEdge per edge over hub-skewed edge lists, WAL record/segment decoder
# (with the canonical-payload property: every accepted payload
# re-encodes to itself),
# recovery-vs-tailer agreement over mutated segment sets (same property
# per shipped record), replication frame codec, and the
# snapshot-transfer offer/chunk framing (seeds in the meta-less offer
# layout: total | crc | ledger).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSessionLoad$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSNAP$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzStoreMatchesBuilder$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzStoreFromEdges$$' -fuzztime 10s ./internal/graph
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

# Paper-figure golden check: every simulated experiment at -scale 0.06
# must print the output committed under internal/bench/testdata/figures/,
# apart from its wall-clock `# <id> completed in` line, so a pure
# simulator or harness refactor is byte-identical by construction.
# fig14 and benchnative time the host and are left out. Regenerate one
# golden with `go run ./cmd/tdgraph-bench -exp <id> -scale 0.06 | grep -v
# '^# [a-z0-9]* completed in ' > internal/bench/testdata/figures/<id>.txt`.
FIGURES := table1 table2 table3 fig3a fig3b fig3c fig4a fig4b fig10 fig11 \
	fig12 fig13 fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 fig23 \
	fig24a fig24b robust

figures:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	$(GO) build -o "$$bin/tdgraph-bench" ./cmd/tdgraph-bench && \
	for e in $(FIGURES); do \
		"$$bin/tdgraph-bench" -exp $$e -scale 0.06 > "$$bin/$$e.txt" || exit 1; \
		grep -v '^# [a-z0-9]* completed in ' "$$bin/$$e.txt" | \
			diff -u internal/bench/testdata/figures/$$e.txt - || { echo "figures: $$e differs from its golden"; exit 1; }; \
	done && echo "figures: $(words $(FIGURES)) experiments match their goldens"

# The four examples, run to completion: each checks its final states
# against a full recomputation (CC and SSSP exactly, PageRank to the
# accumulative 1e-4 tolerance) and exits nonzero on a mismatch, as
# quickstart does on its own check and simulator run.
EXAMPLES := quickstart roadnetwork socialnetwork pagerank-monitor

examples:
	@for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e || { echo "examples: $$e failed"; exit 1; }; \
	done

check: build vet vet-tdgraph race faults chaos bench-module examples

# Paper-figure benchmark sweep (see bench_test.go for the cell list).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Production apply path: incremental native session vs per-batch CSR
# rebuild across batch sizes -> BENCH_native.json.
bench-native:
	$(GO) run ./cmd/tdgraph-bench -nativejson BENCH_native.json

clean:
	$(GO) clean ./...
