#!/usr/bin/env bash
# ci.sh — the repo's verification gate. Run before every merge:
#
#   ./ci.sh                      # vet + build + doc health + race tests (both
#                                # backends) + fuzz smoke + chaos + serve
#                                # smoke-run + benchmark rehearsal + stage
#                                # profile + perf gate
#   ./ci.sh --quick              # skip the race detector (slow on 1-CPU boxes)
#   ./ci.sh --update-baseline    # additionally refresh BENCH_baseline.json
#                                # after a passing gate (combinable with --quick)
#
# The test suite runs twice: once on the default GEMM backend (AVX2
# on capable amd64 hardware) and once with STEPPINGNET_NOSIMD=1
# forcing the scalar fallback, so the path non-AVX2 machines depend
# on cannot silently rot. A purego-tagged build additionally proves
# the no-assembly configuration still compiles.
#
# The perf step regenerates the benchmark numbers into a temp file
# and diffs them against the committed BENCH_baseline.json via
# `stepbench -compare`, which fails hard on allocs/op growth on any
# zero-alloc path and on ns/op regressions beyond the ±15% noise
# threshold — ±50% for the entries that cross the loopback — (ns/op is
# not gated when the committed baseline came from a different GEMM
# backend than this machine selects), and on the relations within the
# new file (the `relations` table in cmd/stepbench/compare.go: walk ≤
# 1.10 × forward at batch 1, on the LeNet and on VGG-16; a one-row rung
# panel ≤ 0.6 × a four-row one; batch-8 walk ≤ 8 × 0.75 × batch-1 walk
# on two cores or more, 8 × 1.05 × on one; a served answer resumed from
# a cached rung ≤ 0.15 × and a served deadline answer ≤ the batch-1
# walk + 15 µs; request decode ≤ 0.35 ×, cache key ≤ 0.05 × and a
# recognised input text ≤ 0.07 × strconv.ParseFloat on the same 768
# tokens; a cached hit over loopback ≤ the same POST to a handler that
# discards it + 0.28 × strconv; the same hit through a router ≤ 2.5 ×
# it, and ≤ its bytes/op + 8 KiB), and on allocs/op growth on
# http_b1_cached. The committed baseline passes the same relations
# (TestCommittedBaselineHoldsItsRelations). The committed
# baseline is only replaced under --update-baseline — and never
# cross-backend — so sub-threshold regressions cannot ratchet
# silently and a scalar box cannot clobber the avx2 reference; when a
# PR intentionally moves the numbers, refresh and commit the file so
# `git diff BENCH_baseline.json` shows the movement in review.
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
UPDATE_ARGS=()
for arg in "$@"; do
    case "$arg" in
    --quick) QUICK=1 ;;
    --update-baseline) UPDATE_ARGS=(-update) ;;
    *)
        echo "unknown flag: $arg" >&2
        exit 2
        ;;
    esac
done

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== doc health =="
# gofmt cleanliness repo-wide, an explicit vet of the serving packages
# (also covered by ./... above, but kept here so the doc-health step
# is self-contained), and the doc-comment gate: every exported
# identifier in internal/serve must carry a doc comment (enforced by
# an AST-walking test).
UNFORMATTED=$(gofmt -l .)
if [[ -n "$UNFORMATTED" ]]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi
go vet ./internal/serve ./cmd/stepserve
go test -count=1 -run TestExportedIdentifiersDocumented ./internal/serve

echo "== go build (purego fallback) =="
go build -tags purego ./...

# One pass per backend; the scalar pass additionally runs with
# -shuffle=on so test-order dependencies (leaked GOMAXPROCS tweaks,
# stale package-level thresholds, order-sensitive goroutine counts)
# surface in-repo instead of flaking on someone else's machine.
if [[ "$QUICK" == 1 ]]; then
    echo "== go test (no race) =="
    go test ./...
    echo "== go test, scalar backend, shuffled (no race) =="
    STEPPINGNET_NOSIMD=1 go test -count=1 -shuffle=on ./...
else
    echo "== go test -race =="
    go test -race ./...
    echo "== go test -race, scalar backend, shuffled =="
    STEPPINGNET_NOSIMD=1 go test -race -count=1 -shuffle=on ./...
fi

echo "== sharding equivalence (both backends) =="
# The cross-worker-count bitwise gate, run explicitly on both GEMM
# backends: the engine's image sharding over the plan grid, the
# kernels' row and column splits and the serving layer's batching must
# produce bit-identical outputs at every worker count regardless of
# which kernels dispatch selects.
SHARD_TESTS='TestImageShardingMatchesSerial|TestRowShardBitwiseInvariance|TestColumnShardBitwiseInvariance|TestParallelIm2ColMatchesSerial|TestBatch1WorkerSetMatchesSerial'
go test -count=1 -run "$SHARD_TESTS" ./internal/tensor ./internal/infer ./internal/serve
STEPPINGNET_NOSIMD=1 go test -count=1 -run "$SHARD_TESTS" ./internal/tensor ./internal/infer ./internal/serve

echo "== resume equivalence (both backends) =="
# The semantic cache's bitwise contract: a walk resumed from exported
# ladder state must equal a cold walk exactly — at the engine layer
# (property grid over odd shapes × worker counts), at the serving
# layer (deadline-stopped walk resumed by a later request), and the
# early exit must never change the predicted class.
RESUME_TESTS='TestResumeMatchesColdWalk|TestExportRowFromBatchedWalk|TestCachedResumeBitwiseEqualsCold|TestCacheHitServesStoredLogits|TestEarlyExitNeverChangesArgmax'
go test -count=1 -run "$RESUME_TESTS" ./internal/infer ./internal/serve
STEPPINGNET_NOSIMD=1 go test -count=1 -run "$RESUME_TESTS" ./internal/infer ./internal/serve

echo "== input numbers against strconv (full count) =="
# Ten million tokens, each bitwise against strconv.ParseFloat, and the
# fallback share on the benchmark generator's form. The race passes
# above run a twentieth of it: one goroutine, nothing for the detector.
go test -count=1 -run 'TestInputNumbersMatchStrconv|TestBenchmarkBodiesTakeTheFastPath' ./internal/cluster

echo "== fuzz smoke =="
# Ten seconds per fuzz target on top of the committed seed corpora:
# enough to shake out regressions in the hardened surfaces (the
# LatencyModel deadline math, the /infer handler chain, the request and
# answer codecs' agreement with encoding/json and the number reader's
# with strconv, the semantic cache's key/churn/resume paths) without
# stalling the gate. A real campaign runs them longer by hand.
go test -run='^$' -fuzz=FuzzLatencyModel -fuzztime=10s ./internal/governor
go test -run='^$' -fuzz=FuzzInferHandler -fuzztime=10s ./cmd/stepserve
go test -run='^$' -fuzz=FuzzDecodeInferRequest -fuzztime=10s ./internal/cluster
go test -run='^$' -fuzz=FuzzDecodeInferResponse -fuzztime=10s ./internal/cluster
go test -run='^$' -fuzz=FuzzInputNumber -fuzztime=10s ./internal/cluster
go test -run='^$' -fuzz=FuzzCacheResume -fuzztime=10s ./internal/serve/cache

echo "== chaos (default backend) =="
# The serving layer's randomized lifecycle storm always runs under the
# race detector (even with --quick) and under both GEMM backends:
# close/submit races are exactly where the backends' differing step
# timings shake out different interleavings. The cache storm rides
# along: LRU eviction, resumes and widens against a live submit stream,
# every answer checked bitwise against the cold walk.
go test -race -count=1 -run 'TestChaosRandomizedLifecycles|TestChaosCacheStaleness' ./internal/serve
echo "== chaos (scalar backend) =="
STEPPINGNET_NOSIMD=1 go test -race -count=1 -run 'TestChaosRandomizedLifecycles|TestChaosCacheStaleness' ./internal/serve

echo "== overload governor (default backend) =="
# The SLO-driven brownout loop always runs under the race detector on
# both GEMM backends: the deterministic controller unit tests, the
# serve-side drift scenario (calibration inflates 3× mid-run and the
# controller re-converges), the policy-swap/stats property test and
# the control-loop shutdown leak check.
GOV_TESTS='TestControl|TestPolicySwap'
go test -race -count=1 ./internal/governor
go test -race -count=1 -run "$GOV_TESTS" ./internal/serve
echo "== overload governor (scalar backend) =="
STEPPINGNET_NOSIMD=1 go test -race -count=1 ./internal/governor
STEPPINGNET_NOSIMD=1 go test -race -count=1 -run "$GOV_TESTS" ./internal/serve

echo "== cluster chaos (default backend) =="
# The distributed tier's fault storms always run under the race
# detector and under both GEMM backends: replica death, seeded random
# faults and router failover are exactly where backend-dependent step
# timings shake out different interleavings.
go test -race -count=1 -run 'TestClusterChaosKillOneReplica|TestExactlyOneAnswerUnderRandomFaults' ./internal/cluster
echo "== cluster chaos (scalar backend) =="
STEPPINGNET_NOSIMD=1 go test -race -count=1 -run 'TestClusterChaosKillOneReplica|TestExactlyOneAnswerUnderRandomFaults' ./internal/cluster

echo "== request buffers and the hop (both backends) =="
# Ten race runs each of what pooled request buffers and Remote's own
# exchange lean on: a buffer goes back to the pool only after Submit
# has returned, and a connection goes back only when its answer was
# read whole. The race detector sees no
# happens-before edge through a socket, so these run more than once.
HOP_TESTS='TestInferHandlerBufferReuse|TestRouterRetryKeepsRequestBytes|TestRemote'
go test -race -count=10 -run "$HOP_TESTS" ./internal/cluster
STEPPINGNET_NOSIMD=1 go test -race -count=10 -run "$HOP_TESTS" ./internal/cluster

echo "== shard hand-off (both backends) =="
# Ten race runs each of what the engine's polling hand-off leans on: a
# worker reads its mailbox only after the post, the caller reads the
# stage rows only after the count of unfinished shards reaches zero, a
# reused engine walks as a fresh one, and under one P nothing polls.
# Which of poll or park wins varies from run to run.
SHARD_HANDOFF_TESTS='TestImageShardingMatchesSerial|TestShardWorkersReleased|TestSmallStepsStaySerial|TestResetMatchesFreshEngine|TestShardingOnOneProc'
go test -race -count=10 -run "$SHARD_HANDOFF_TESTS" ./internal/infer
STEPPINGNET_NOSIMD=1 go test -race -count=10 -run "$SHARD_HANDOFF_TESTS" ./internal/infer

echo "== router e2e smoke =="
# Stand up three real replica processes (each with a semantic cache)
# and an affinity-routing router over them, then drive two
# loadgen phases: a mixed multi-target spray (router plus one replica
# directly, with a couple of slow-loris connections against the
# router) and a repeat-heavy phase whose hot keys must concentrate on
# the replicas their cache key hashes to — asserted from the loadgen's
# router view (affinity routed > 0, cluster-wide cache hits > 0). The
# bounded-load spill is covered deterministically by
# TestAffinitySpillEngagesAtBound. Everything shuts down with SIGTERM
# so the graceful-drain path executes. The subshell keeps the process
# cleanup trap local.
(
    E2E_TMP=$(mktemp -d)
    trap 'kill $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$E2E_TMP"' EXIT
    go build -o "$E2E_TMP/stepserve" ./cmd/stepserve
    REPLICA_FLAGS='-workers 1 -queue 16 -batch 4 -refresh 0 -cache 64'
    "$E2E_TMP/stepserve" -addr 127.0.0.1:18081 $REPLICA_FLAGS &
    "$E2E_TMP/stepserve" -addr 127.0.0.1:18082 $REPLICA_FLAGS &
    "$E2E_TMP/stepserve" -addr 127.0.0.1:18083 $REPLICA_FLAGS &
    "$E2E_TMP/stepserve" -addr 127.0.0.1:18080 \
        -route http://127.0.0.1:18081,http://127.0.0.1:18082,http://127.0.0.1:18083 -affinity &
    # The load generator waits for a healthy target itself, so no sleep
    # is needed between replica startup and the drive.
    "$E2E_TMP/stepserve" -loadgen -targets http://127.0.0.1:18080,http://127.0.0.1:18081 \
        -rps 150 -duration 2s -deadlines 5ms:0.8,50ms:0.2:hi -slow 2
    # Phase 2: repeat-heavy traffic through the router alone. The
    # report's affinity summary line is the assertion surface.
    "$E2E_TMP/stepserve" -loadgen -targets http://127.0.0.1:18080 \
        -rps 200 -duration 2s -deadlines 20ms:1 -repeat 0.6 | tee "$E2E_TMP/affinity.out"
    grep -E 'affinity: [1-9][0-9]* routed to HRW choice' "$E2E_TMP/affinity.out" >/dev/null ||
        { echo "router e2e: no affinity-routed requests reported" >&2; exit 1; }
    grep -E '[1-9][0-9]* cache hits\+resumes cluster-wide' "$E2E_TMP/affinity.out" >/dev/null ||
        { echo "router e2e: repeat traffic produced no replica cache reuse" >&2; exit 1; }
    kill -TERM $(jobs -p)
    wait
)

echo "== serve smoke-run (default backend) =="
# Drive the anytime serving layer briefly through the load generator
# with the burst scenario and an armed overload governor: calibration,
# admission, deadline scheduling, micro-batching, brownout control and
# graceful drain all execute, and the report exercises the SLO
# attainment columns. Run under both GEMM backends, like the test
# suite.
SMOKE_FLAGS='-loadgen -rps 300 -duration 1s -workers 1 -queue 16 -batch 4 -refresh 250ms
             -deadlines 500us:0.45,10ms:0.45,10ms:0.1:hi -scenario burst -slo 1:5ms:0.9 -control 20ms
             -cache 256 -exit-calibrate 32 -repeat 0.5'
go run ./cmd/stepserve $SMOKE_FLAGS
echo "== serve smoke-run (scalar backend) =="
STEPPINGNET_NOSIMD=1 go run ./cmd/stepserve $SMOKE_FLAGS

echo "== benchmark rehearsal =="
# What the driver does with a PR after the builder has left, in small:
# the benchmark module vets and tests against this checkout's packages,
# and every workload runs for two seconds, untraced and traced, through
# the real processes. A non-zero exit, a failed operation or an output
# that is not bitwise the reference walk's fails the gate here instead
# of costing the PR (17, 19 and 21 were each lost to exactly this run).
(cd benchmark && go vet ./... && go test ./...)
REHEARSAL=$(mktemp)
bash benchmark/run.sh -smoke >"$REHEARSAL" || { tail -n 40 "$REHEARSAL" >&2; rm -f "$REHEARSAL"; exit 1; }
VERDICTS=$(grep '^outputs_ok' "$REHEARSAL" || true)
rm -f "$REHEARSAL"
echo "$VERDICTS"
if [[ -z "$VERDICTS" ]] || grep -vqE '^outputs_ok true +attempted [0-9]+ +failed 0$' <<<"$VERDICTS"; then
    echo "benchmark rehearsal: a run failed operations or its output check" >&2
    exit 1
fi

echo "== stage profile =="
# Where a batch-1 walk's time goes, per plan stage and rung: recorded
# in the committed trajectory file under the label "head" for this box
# (num_cpu, backend, workers), not gated.
go run ./cmd/stepbench -exp profile -out BENCH_layers.json

echo "== perf baseline =="
trap 'rm -f BENCH_new.json' EXIT # the gate's scratch file, never committed
go run ./cmd/stepbench -bench BENCH_new.json
# -strict: a NEW zero-alloc benchmark missing from the committed
# baseline fails the gate, so added zero-alloc paths must enter the
# baseline (and its alloc protection) in the same PR that adds them.
go run ./cmd/stepbench -compare -strict ${UPDATE_ARGS[@]+"${UPDATE_ARGS[@]}"} BENCH_baseline.json BENCH_new.json
