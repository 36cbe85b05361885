#!/usr/bin/env sh
# The tier-1 gate as a single command — or stage by stage.
#
#   scripts/ci.sh                 run every stage
#   scripts/ci.sh build test      run only the named stages
#   CI_SKIP_BENCH=1 scripts/ci.sh skip the benchmark floors (escape
#                                 hatch for machines whose disk/timer
#                                 behaviour makes floors meaningless)
#
# Stages (each is a named step in .github/workflows/ci.yml so failures
# are attributable at a glance):
#
#   fmt     cargo fmt --check over the whole workspace
#   clippy  cargo clippy --all-targets with warnings promoted to errors
#   build   release build of the whole workspace (vendored deps only,
#           no network access required)
#   test    the full test suite (unit, integration, property suites)
#   docs    rustdoc -D warnings + every doctest + every file path the
#           docs quote exists (scripts/check_docs.sh)
#   cluster the multi-node scenario gate: 2 partitions x (durable
#           primary + durable follower) over real sockets, one primary
#           killed and its follower promoted — no acked write lost,
#           scatter-gather intact, subscriptions resume exactly-once —
#           plus the differential property suite proving a partitioned
#           cluster is indistinguishable from one cache
#   repeat  the suites whose flows ring the reactor's doorbell from
#           many threads at once or hand an unregistration's reply from
#           an automaton's drain back to a connection, REPEATS (10)
#           passes each in release, with pass counts: a lost wake or a
#           lost hand-off is a race that one tier-1 pass can miss
#   psbench the end-to-end benchmark's smoke run (benchmark/smoke.sh):
#           all four psbench workloads, briefly, with their correctness
#           oracles — SIGKILL-and-recover, follower-equals-primary
#   bench   the benchmark floors: every row of the FLOORS table below
#
# Every floor is parsed hard by the bench crate's `check_floor` binary:
# a missing or unparsable metric fails the gate — a bench that did not
# produce its number never counts as a pass.
set -eu

cd "$(dirname "$0")/.."

# ---------------------------------------------------------------------
# Stage plumbing: run_stage <name> <fn> wraps a stage with wall-clock
# timing; the summary at the end shows where the gate spends its time.
# ---------------------------------------------------------------------
STAGES_RUN=""
TIMINGS=""

run_stage() {
    stage_name=$1
    stage_fn=$2
    echo ""
    echo "==> stage: ${stage_name}"
    stage_start=$(date +%s)
    "${stage_fn}"
    stage_end=$(date +%s)
    stage_secs=$((stage_end - stage_start))
    TIMINGS="${TIMINGS}${stage_name}:${stage_secs}s "
    STAGES_RUN="${STAGES_RUN}${stage_name} "
}

# The benchmark floors, one per row:
#
#   bench-binary  json-file  key  floor  description
#
# `stage_bench` runs each cep_bench binary once (it writes its json
# file at the repository root) and then holds every one of its rows to
# `key >= floor`. This table is the only list of floors there is: the
# skip path prints these same rows.
FLOORS='
bench_query     BENCH_query.json     window_speedup         10.0  100k-row 1% window speedup over a full scan
bench_fanout    BENCH_fanout.json    speedup                10.0  indexed dispatch speedup at 1000 automata / 1% selectivity
bench_wal       BENCH_wal.json       group_commit_mean_group_size 4.0   records per fsync at 16 concurrent inserters
bench_wal       BENCH_wal.json       pipelined_mean_group_size 4.0   records per fsync for one connection with 64 inserts in flight
bench_repl      BENCH_repl.json      converged              1     replication stream drained to zero staleness
bench_repl      BENCH_repl.json      follower_read_ratio    0.5   follower/primary read-throughput ratio
bench_rpc       BENCH_rpc.json       rpc_speedup_16         10.0  pipelined/serial-baseline read speedup at 16 connections
bench_protect   BENCH_protect.json   protect_fairness_ratio 0.5   paced-client flooded/isolated throughput ratio
bench_cluster   BENCH_cluster.json   cluster_speedup_2      1.6   2-partition durable write speedup
'

# ---------------------------------------------------------------------
# Stages.
# ---------------------------------------------------------------------
stage_fmt() {
    cargo fmt --all -- --check
}

stage_clippy() {
    cargo clippy --all-targets -- -D warnings
}

stage_build() {
    cargo build --release
}

stage_test() {
    cargo test -q
}

stage_docs() {
    sh scripts/check_docs.sh
}

stage_bench() {
    ran=""
    while read -r bin json key floor desc; do
        [ -n "${bin}" ] || continue
        if [ "${CI_SKIP_BENCH:-0}" = "1" ]; then
            # Every floor that would have run is named: a skipped gate
            # must read as "N floors NOT checked", never as a quiet pass.
            echo "SKIPPED (CI_SKIP_BENCH=1): ${bin} ${json} ${key} >= ${floor} (${desc})"
            continue
        fi
        if [ "${bin}" != "${ran}" ]; then
            echo "--> bench: ${bin}"
            cargo run --release -p cep_bench --bin "${bin}" </dev/null
            ran=${bin}
        fi
        # check_floor parses the snapshot with a real number scanner and
        # fails hard when the key is absent, unparsable, or below the
        # floor.
        cargo run --release -q -p cep_bench --bin check_floor -- \
            "${json}" "${key}" "${floor}" "${desc}" </dev/null
    done <<EOF
${FLOORS}
EOF
}

# Each entry is the argument list of one `cargo test` invocation.
REPEATS=10
REPEAT_SUITES='
--test rpc_chaos
--test checkpoint_race
--test notification_delivery
--test protection_chaos
--test fanout_stress
-p psrpc --lib poll::tests
'

stage_repeat() {
    cargo test --release -q --no-run --test rpc_chaos --test checkpoint_race \
        --test notification_delivery --test protection_chaos --test fanout_stress
    cargo test --release -q --no-run -p psrpc --lib
    failed=0
    while read -r suite; do
        [ -n "${suite}" ] || continue
        passes=0
        i=0
        while [ "${i}" -lt "${REPEATS}" ]; do
            # Word splitting of ${suite} into cargo arguments is intended.
            # shellcheck disable=SC2086
            if out=$(cargo test --release -q ${suite} 2>&1); then
                passes=$((passes + 1))
            else
                echo "${out}" | tail -n 30
            fi
            i=$((i + 1))
        done
        echo "${suite}: ${passes}/${REPEATS} passed"
        [ "${passes}" -eq "${REPEATS}" ] || failed=1
    done <<EOF
${REPEAT_SUITES}
EOF
    [ "${failed}" -eq 0 ]
}

stage_psbench() {
    sh benchmark/smoke.sh
}

stage_cluster() {
    # The multi-node scenario gate: 2 partitions x (durable primary +
    # durable follower) over real sockets; one partition primary is
    # killed and its follower promoted — no acked write may be lost,
    # scatter-gather must keep serving every row, and cross-partition
    # subscriptions must resume exactly-once. Alongside it, the
    # differential property suite proving a partitioned cluster is
    # indistinguishable from one big cache.
    cargo test --release -q --test cluster_failover --test cluster_equivalence
}

# ---------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------
if [ $# -eq 0 ]; then
    set -- fmt clippy build test docs cluster repeat psbench bench
fi

for stage in "$@"; do
    case "${stage}" in
        fmt)     run_stage fmt     stage_fmt ;;
        clippy)  run_stage clippy  stage_clippy ;;
        build)   run_stage build   stage_build ;;
        test)    run_stage test    stage_test ;;
        docs)    run_stage docs    stage_docs ;;
        cluster) run_stage cluster stage_cluster ;;
        repeat)  run_stage repeat  stage_repeat ;;
        psbench) run_stage psbench stage_psbench ;;
        bench)   run_stage bench   stage_bench ;;
        *)
            echo "unknown stage '${stage}' (known: fmt clippy build test docs cluster repeat psbench bench)" >&2
            exit 2
            ;;
    esac
done

echo ""
echo "stage timings: ${TIMINGS}"
echo "CI gate passed (${STAGES_RUN})"
