#!/usr/bin/env sh
# Offline CI: build, test, lint. No network access is required (the
# workspace has no external dependencies).
#
# Usage: ci.sh [--crash] [--paged]
#   --crash   additionally run a bounded slice of the fault-injection
#             crash/resume matrix (kill mid-snapshot/mid-rename/mid-log,
#             resume, assert tuple-identical results). Bound the number
#             of matrix cases with JEDD_CRASH_CASES (default 10 here;
#             the full matrix runs in the regular test suite).
#   --paged   additionally run the disk-backed pager suites: the
#             pager unit/property tests, the Table-2 analyses under a
#             tiny JEDD_PAGE_CACHE budget (asserting page_faults > 0
#             and tuple identity), and the kill-mid-eviction
#             crash/resume path. The paged cells of the mode matrix
#             run in every pass.
set -eu

cd "$(dirname "$0")"

CRASH=0
PAGED=0
for arg in "$@"; do
    case "$arg" in
        --crash) CRASH=1 ;;
        --paged) PAGED=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo build --release"
# --workspace so member binaries (the jeddc CLI used by the lint stage
# below) are built too; the root manifest is a package + workspace, and a
# bare `cargo build` would only build the facade crate.
cargo build --release --workspace --offline

echo "==> cargo test (workspace)"
cargo test --workspace --offline -q

# The extended mode matrix: more seeds per cell than the in-pass
# default. Every cell of kernel {plain, chained} x storage {resident,
# paged at 2/16/unbounded frames} x budget {none, tight} x churn {off,
# on} is checked against the BTreeSet oracle and the ZDD family after
# every step; the five differential_fuzz_* tests split the cells between
# them. JEDD_FUZZ_CASES scales every cell's seed count (`cases` in the
# test file): at 512 the resident cells without budget or churn run 512
# seeds and the paged churn cells 64, as the per-mode rigs did.
echo "==> extended mode matrix (JEDD_FUZZ_CASES=${JEDD_FUZZ_CASES:-512})"
JEDD_FUZZ_CASES="${JEDD_FUZZ_CASES:-512}" \
    cargo test --offline -q --test differential differential_fuzz

# Order-search smoke: the kernel's chain suite includes the order lab's
# search (sifting + window-3 + hot-window restarts) on a pessimal order;
# JEDD_ORDER_SEARCH_ROUNDS bounds the restart count so CI stays cheap.
echo "==> order-search smoke (JEDD_ORDER_SEARCH_ROUNDS=${JEDD_ORDER_SEARCH_ROUNDS:-1})"
JEDD_ORDER_SEARCH_ROUNDS="${JEDD_ORDER_SEARCH_ROUNDS:-1}" \
    cargo test -p jedd-bdd --test chain --offline -q
JEDD_ORDER_SEARCH_ROUNDS="${JEDD_ORDER_SEARCH_ROUNDS:-1}" \
    cargo test -p jedd-analyses --test learned_order --offline -q

if [ "$CRASH" = 1 ]; then
    echo "==> crash/resume smoke (JEDD_CRASH_CASES=${JEDD_CRASH_CASES:-10})"
    JEDD_CRASH_CASES="${JEDD_CRASH_CASES:-10}" \
        cargo test -p jedd-analyses --test crash_resume --offline -q
fi

if [ "$PAGED" = 1 ]; then
    echo "==> paged kernel (pager unit/property tests)"
    cargo test -p jedd-bdd --test pager --offline -q
    echo "==> paged kernel (JEDD_PAGE_CACHE seam)"
    # The env seam: JEDD_PAGE_CACHE turns every env-default universe
    # into a paged one; the ignored test asserts it faults under the
    # budget and still matches a resident run tuple-for-tuple.
    JEDD_PAGE_CACHE=4 \
        cargo test --offline -q --test differential -- --ignored
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
# regression fails CI here. Its jeddc group does the same for the
# executor's semi-naive statements: `driver::run_jedd` on javac in the
# default mode against Strategy::Naive, asserting every global relation
# agrees and that the default mode creates fewer kernel nodes.
JEDD_BENCH_SAMPLES=3 JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench fixpoint_seminaive --offline
# The chain-reduction bench runs every Table-2 analysis on the plain and
# the chain-reduced kernel, asserts tuple identity and that the best
# chained node count never loses to the best plain one, and on compress
# times the order lab's cold search against a persisted-order warm start
# (which must perform zero sifting sweeps and beat the cold run).
JEDD_BENCH_SAMPLES=1 JEDD_ORDER_SEARCH_ROUNDS="${JEDD_ORDER_SEARCH_ROUNDS:-1}" \
    JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench chain_reduction --offline
# Fact loading: from_tuples (one minterm per tuple, ORed in along its own
# path without the op cache) against the fold of Relation::tuple unions on
# the base relations of the five Table-2 presets, plain and chained; it
# asserts both build the same diagram, relation by relation.
JEDD_BENCH_SAMPLES=3 JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench tuple_load --offline
# Table 1's combined assignment problem: SAT size and best compile and
# solve times of the five analyses' mini-Jedd sources.
JEDD_BENCH_SAMPLES=3 JEDD_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p jedd-bench --bench domain_assignment --offline
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
