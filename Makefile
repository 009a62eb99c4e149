GO ?= go

.PHONY: all build fmt vet test race fuzz-smoke chaos chaos-churn chaos-soak bench-gate profile vuln check

all: check

build:
	$(GO) build ./...

# Fails listing the files gofmt would rewrite.
fmt:
	@files="$$(gofmt -l .)"; test -z "$$files" || { echo "gofmt needed:"; echo "$$files"; exit 1; }

vet:
	$(GO) vet ./...

# Storage tests run twice: once per BlockStore backend. IPLS_STORE=fs
# points the storage suite at the content-addressed disk backend (blocks
# land in t.TempDir(), so the tree is cleaned up with the test).
test:
	$(GO) test ./...
	IPLS_STORE=fs $(GO) test ./internal/storage/...

# The whole tree under the race detector: role goroutines share slabs,
# network and directory state, and the crypto paths run parallel, so no
# package is left out. The storage suite follows IPLS_STORE, so CI's two
# matrix legs race both backends.
race:
	$(GO) test -race ./...

# Short fuzz passes: the parallel multiexp against the sequential one
# (the differential harness's randomized arm), the Montgomery field ops
# against math/big mod p on both curve primes, the scenario-plan parser
# (never panics; String∘Parse is a fixpoint), the slab-backed vector
# kernels against their one-element-at-a-time reference and the byte
# kernels against the Block path they replace, the limb merge
# kernel against decode → SumVecs → Encode, directory snapshot loading
# (never panics; Snapshot∘Restore is a fixpoint), and the three parsers of
# bytes that arrive from untrusted storage nodes: block decoding, DAG
# assembly from hostile blocks, and curve-point decoding. CI runs these as
# smoke tests; let them run longer locally with FUZZTIME.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -fuzz=FuzzMultiExpParallel -fuzztime $(FUZZTIME) ./internal/group
	$(GO) test -fuzz=FuzzFieldOps -fuzztime $(FUZZTIME) ./internal/group
	$(GO) test -fuzz=FuzzParseScenario -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -fuzz=FuzzVectorKernels -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -fuzz=FuzzMerge -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -fuzz=FuzzRestore -fuzztime $(FUZZTIME) ./internal/directory
	$(GO) test -fuzz=FuzzDecodeBlock -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -fuzz=FuzzAssembleHostile -fuzztime $(FUZZTIME) ./internal/dag
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/group

# Fault-injection suite under the race detector. The core recovery tests
# and the netsim and storage suites are raced by `make race` (on both
# storage backends in CI's matrix), so what is left is the
# membership-churn scenario.
chaos: chaos-churn

# Membership-churn scenario under the race detector: the ScenarioRunner
# tests (standby takeover, checkpoint bootstrap, repair, window edges)
# plus one full end-to-end run — storage departure, aggregator crash with
# failover, trainer crash and checkpoint-bootstrapped rejoin.
chaos-churn:
	$(GO) test -race -timeout 10m -run 'ScenarioRunner|SimChurn|Absent|Standby' ./internal/core
	$(GO) run -race ./cmd/iplssim -rounds 4 -trainers 8 -partitions 2 -aggregators 1 -storage-nodes 6 \
		-scenario "depart:ipfs-03@iter1,crash:agg-p0-0@iter1,crash:trainer-05@iter1,rejoin:trainer-05@iter2,rejoin:agg-p0-0@iter3"

# Composed-scenario soak under the race detector: one plan string drives
# membership churn, a storage slow window, a partition that opens and
# heals, and a Byzantine trainer whose tampered uploads the BatchVerify
# fallback must catch and quarantine — all in verifiable mode. The run
# fails on any panic, on an unhealed partition, and (via -min-accuracy)
# on a final model that did not converge despite the faults. -watch runs
# the round watchdog over the same span stream and prints its summary.
chaos-soak:
	$(GO) run -race ./cmd/iplssim -rounds 5 -trainers 8 -partitions 2 -aggregators 1 \
		-storage-nodes 6 -providers 2 -verifiable -min-accuracy 0.9 -watch \
		-scenario "crash:trainer-05@iter0,rejoin:trainer-05@iter2,slow:ipfs-00@iter0..1:5ms,partition:mainline|ipfs-01@iter1..2,corrupt:trainer-01@iter1..2"

# Per-phase benchmark regression gate: deterministic virtual-clock
# scenarios checked against the committed baselines at zero tolerance.
# Re-record after a deliberate perf change with:
#   go run ./cmd/iplsbench -baseline-out cmd/iplsbench/testdata/baselines/sim.json gate
bench-gate:
	$(GO) run -race ./cmd/iplsbench -baseline cmd/iplsbench/testdata/baselines/sim.json gate

# Phase-labeled CPU and heap profiles of the commitment bench (the
# paper's dominant cost). Slice by phase with:
#   go tool pprof -tags cpu.pprof
#   go tool pprof -tag_focus=phase=pedersen_commit cpu.pprof
profile:
	$(GO) run ./cmd/iplsbench -cpuprofile cpu.pprof -memprofile mem.pprof profile

# Known-vulnerability scan of the module graph and reachable call paths.
# Network-dependent (fetches the vuln DB), so it is a separate CI job
# rather than part of `check`.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

check: build fmt vet test race chaos bench-gate
