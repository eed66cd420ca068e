#!/usr/bin/env sh
# Offline CI: build, test, lint. No network access is required (the
# workspace has no external dependencies).
#
# Usage: ci.sh [--stress] [--crash] [--paged] [--model]
#   --stress  additionally run the #[ignore] concurrency stress tests
#             (4 workers hammering mk/apply through GC safepoints).
#   --crash   additionally run a bounded slice of the fault-injection
#             crash/resume matrix (kill mid-snapshot/mid-rename/mid-log,
#             resume, assert tuple-identical results). Bound the number
#             of matrix cases with JEDD_CRASH_CASES (default 10 here;
#             the full matrix runs in the regular test suite).
#   --paged   additionally run the disk-backed pager suites: the
#             paged-vs-resident differential fuzz worlds, the
#             Table-2 analyses under a tiny JEDD_PAGE_CACHE budget
#             (asserting page_faults > 0 and tuple identity), the
#             kill-mid-eviction crash/resume path, and the
#             paged_capacity bench.
#   --model   additionally run the full deterministic model-checking
#             sweep (jedd-sync scheduler): every model suite at worker
#             counts 2 and 4 under PCT priority preemption, the
#             bounded-exhaustive DFS protocols, and a JEDD_SCHED-seeded
#             replay of the differential fuzzer and budget-trip parity.
#             Every run also executes a short smoke slice of these
#             suites; --model is the wide sweep.
set -eu

cd "$(dirname "$0")"

STRESS=0
CRASH=0
PAGED=0
MODEL=0
for arg in "$@"; do
    case "$arg" in
        --stress) STRESS=1 ;;
        --crash) CRASH=1 ;;
        --paged) PAGED=1 ;;
        --model) MODEL=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

# The synchronization seam is load-bearing for everything the model
# scheduler proves, so its lint runs first and unconditionally.
echo "==> seam lint (crates/bdd must sync through jedd-sync)"
tools/seam_lint.sh --self-test
tools/seam_lint.sh

echo "==> cargo build --release"
# --workspace so member binaries (the jeddc CLI used by the lint stage
# below) are built too; the root manifest is a package + workspace, and a
# bare `cargo build` would only build the facade crate.
cargo build --release --workspace --offline

# The whole suite runs three times: once on the sequential kernel, once
# with 2 workers (the count the pointsto_2t benchmark runs) and once with
# 4 workers on the shared-table parallel kernel (cutoff lowered so
# test-sized operands actually engage it; the effective worker count is
# clamped to the hardware, so on hosts with fewer than 4 CPUs the 4-worker
# pass exercises the clamp path). The differential fuzzer in
# tests/differential.rs and the JEDD_THREADS=1,2,4,8 determinism test in
# crates/analyses are part of every pass.
echo "==> cargo test (workspace, JEDD_THREADS=1)"
JEDD_THREADS=1 cargo test --workspace --offline -q

echo "==> cargo test (workspace, JEDD_THREADS=2)"
JEDD_THREADS=2 JEDD_PAR_CUTOFF=64 cargo test --workspace --offline -q

echo "==> cargo test (workspace, JEDD_THREADS=4)"
JEDD_THREADS=4 JEDD_PAR_CUTOFF=64 cargo test --workspace --offline -q

# A fourth pass on the chain-reduced kernel: JEDD_CHAIN=1 flips every
# env-default universe to the CBDD backend (ZDD managers built by the
# suites stay plain unless constructed chained), so the entire workspace
# suite re-runs with chain nodes in the arena. Chained managers keep the
# parallel path off and degrade reordering to collection by design; the
# suites assert that contract rather than fight it.
echo "==> cargo test (workspace, JEDD_CHAIN=1)"
JEDD_CHAIN=1 cargo test --workspace --offline -q

# The extended differential fuzzer: more cases than the in-pass default,
# on the sequential kernel and with 4 workers. Each run covers all four
# decision-diagram kinds (BDD/ZDD and, via the chained suites, CBDD/CZDD)
# against the BTreeSet oracle, including the thread sweeps with mid-run
# GC/reorder churn. Bound with JEDD_FUZZ_CASES.
echo "==> extended differential fuzzer (JEDD_FUZZ_CASES=${JEDD_FUZZ_CASES:-512})"
JEDD_FUZZ_CASES="${JEDD_FUZZ_CASES:-512}" JEDD_THREADS=1 \
    cargo test --offline -q --test differential
JEDD_FUZZ_CASES="${JEDD_FUZZ_CASES:-512}" JEDD_THREADS=4 JEDD_PAR_CUTOFF=64 \
    cargo test --offline -q --test differential

# Order-search smoke: the kernel's chain suite includes the order lab's
# search (sifting + window-3 + hot-window restarts) on a pessimal order;
# JEDD_ORDER_SEARCH_ROUNDS bounds the restart count so CI stays cheap.
echo "==> order-search smoke (JEDD_ORDER_SEARCH_ROUNDS=${JEDD_ORDER_SEARCH_ROUNDS:-1})"
JEDD_ORDER_SEARCH_ROUNDS="${JEDD_ORDER_SEARCH_ROUNDS:-1}" \
    cargo test -p jedd-bdd --test chain --offline -q
JEDD_ORDER_SEARCH_ROUNDS="${JEDD_ORDER_SEARCH_ROUNDS:-1}" \
    cargo test -p jedd-analyses --test learned_order --offline -q

# Model-checking smoke slice, every run: the jedd-sync scheduler's own
# protocol suites (race detector, lock-order cycles, DFS lost-update)
# plus the kernel's bounded-exhaustive model checks at 2 threads. The
# wide sweep lives behind --model.
echo "==> model-check smoke (jedd-sync + kernel model suites)"
cargo test -p jedd-sync --features model --offline -q
cargo test -p jedd-bdd --features model --test model_check --offline -q
cargo test -p jedd-bdd --features model --lib --offline -q model_tests

if [ "$MODEL" = 1 ]; then
    echo "==> model sweep (PCT, threads {2,4}; exhaustive tiny protocols)"
    # The kernel suites internally sweep threads 2 and 4 under PCT and
    # run the DFS-exhaustive protocols.
    cargo test -p jedd-bdd --features model --test model_check --offline -q
    cargo test -p jedd-bdd --features model --lib --offline -q model_tests
    JEDD_SCHED="${JEDD_SCHED:-2}" JEDD_SCHED_STRATEGY=pct \
        cargo test --features model --offline -q --test differential \
        differential_fuzz_scheduled_replay_is_bit_identical
    JEDD_SCHED="${JEDD_SCHED:-2}" JEDD_SCHED_STRATEGY=pct \
        cargo test -p jedd-analyses --features model --offline -q --test budget_parity \
        budget_trip_parity_replays_bit_identically_under_jedd_sched
fi

if [ "$STRESS" = 1 ]; then
    echo "==> stress tests (ignored set)"
    JEDD_THREADS=4 cargo test --workspace --offline -q -- --ignored
fi

if [ "$CRASH" = 1 ]; then
    echo "==> crash/resume smoke (JEDD_CRASH_CASES=${JEDD_CRASH_CASES:-10})"
    JEDD_CRASH_CASES="${JEDD_CRASH_CASES:-10}" \
        cargo test -p jedd-analyses --test crash_resume --offline -q
fi

if [ "$PAGED" = 1 ]; then
    echo "==> paged kernel (pager unit/property tests)"
    cargo test -p jedd-bdd --test pager --offline -q
    echo "==> paged kernel (differential fuzz worlds)"
    # The paged fuzz worlds run tiny/medium/unbounded frame budgets on
    # both the plain and the chain-reduced backend against the resident
    # world and the BTreeSet oracle, with GC churn mid-case.
    cargo test --offline -q --test differential differential_fuzz_paged_worlds
    echo "==> paged kernel (analyses paged-vs-resident contract)"
    cargo test -p jedd-analyses --test paged --offline -q
    # The env seam: JEDD_PAGE_CACHE turns every env-default universe
    # into a paged one; the ignored test asserts it faults under the
    # budget and still matches a resident run tuple-for-tuple.
    JEDD_PAGE_CACHE=4 \
        cargo test -p jedd-analyses --test paged --offline -q -- --ignored
    echo "==> paged kernel (kill-mid-eviction crash/resume)"
    cargo test -p jedd-analyses --test crash_resume --offline -q \
        paged_run_killed_mid_eviction_resumes_tuple_identical
fi

echo "==> jeddc --lint --deny warnings (embedded analysis corpus)"
# The five Table-1 module combinations (mirroring jedd_src::modules())
# must be lint-clean: jeddlint gating its own shipped analyses keeps the
# corpus honest about dead stores, redundant ops and forced replaces.
JEDDC=target/release/jeddc
SRC=crates/analyses/jedd-src
"$JEDDC" --lint --deny warnings "$SRC/prelude.jedd" "$SRC/vcr.jedd"
"$JEDDC" --lint --deny warnings "$SRC/prelude.jedd" "$SRC/hierarchy.jedd"
"$JEDDC" --lint --deny warnings "$SRC/prelude.jedd" "$SRC/pointsto.jedd"
"$JEDDC" --lint --deny warnings "$SRC/prelude.jedd" "$SRC/sideeffect.jedd" "$SRC/callgraph.jedd"
"$JEDDC" --lint --deny warnings "$SRC/prelude.jedd" "$SRC/callgraph.jedd"

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings
# jeddc is the user-facing compiler crate; its API docs are load-bearing,
# so missing docs are a hard error there (warn-level elsewhere).
cargo clippy -p jeddc --offline -- -D warnings -D missing-docs

echo "==> benchmark smoke (benchmark/, every workload at seeds 0 and 1)"
# The end-to-end benchmark is a package of its own (outside the
# workspace); its smoke test runs each workload once with the traced pass
# and checks every declared metric, zero failed calls and that span self
# times sum to wall clock. It times real analyses, so it needs --release.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> bench smoke (BENCH_kernel.json)"
# Few-sample bench runs double as integration tests of the kernel's
# replace path and cache counters; headline numbers land in
# BENCH_kernel.json via the in-tree JSON reporter. Every section of this
# run carries the same JEDD_BENCH_RUN stamp, and the reporter prunes any
# group stamped by an earlier run — so groups from renamed or retired
# benchmarks (e.g. the old parallel_apply shape) cannot linger in the
# report and skew trajectory tooling.
rm -f BENCH_kernel.json
JEDD_BENCH_RUN="$(date +%s)-$$"
export JEDD_BENCH_RUN
JEDD_BENCH_SAMPLES=3 JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench replace_cost --offline
JEDD_BENCH_SAMPLES=3 JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench pointsto_overhead --offline
# The fixpoint bench asserts naive/semi-naive agreement tuple-for-tuple
# and that semi-naive never takes more rounds, so a delta-engine
# regression fails CI here.
JEDD_BENCH_SAMPLES=3 JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench fixpoint_seminaive --offline
# The shared-table kernel bench validates thread-count-independence of
# the fixpoint and records per-thread-count (1/2/4/8) wall clocks plus
# the 1-vs-4 ratio. The >= 1.5x speedup gate arms itself
# (jedd_bench::speedup_gate: >= 4 CPUs, or a JEDD_BENCH_GATE=1/0
# override) and records gate_armed/gate_reason in the JSON report, so a
# disarmed single-CPU run is visible rather than silently green.
JEDD_BENCH_SAMPLES=1 JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench kernel_shared_table --offline
# The chain-reduction bench runs every Table-2 analysis on the plain and
# the chain-reduced kernel, asserts tuple identity and that the best
# chained node count never loses to the best plain one, and times the
# order lab's cold search against a persisted-order warm start (which
# must perform zero sifting sweeps and beat the cold run).
JEDD_BENCH_SAMPLES=1 JEDD_ORDER_SEARCH_ROUNDS="${JEDD_ORDER_SEARCH_ROUNDS:-1}" \
    JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench chain_reduction --offline
# sifting and var_order report their ablation numbers through the same
# stamped JSON so the order-lab trajectory is tracked run over run.
JEDD_BENCH_SAMPLES=1 JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench sifting --offline
JEDD_BENCH_SAMPLES=1 JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench var_order --offline
# The paged-capacity bench validates the disk-backed pager's headline
# claim in every CI run: the points-to analysis completes under a
# 4-frame resident budget (1024 node slots, far below its live working
# set), faults pages, and lands tuple-identical to the resident run.
# Wall clocks and page-fault/eviction counters join the report.
JEDD_BENCH_SAMPLES=1 JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench paged_capacity --offline
test -s BENCH_kernel.json

echo "==> OK"
