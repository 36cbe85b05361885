#!/usr/bin/env sh
# Smoke-test the benchmark: build psbench offline and drive all four
# workloads briefly with their correctness oracles (kill-and-recover
# included). Numbers are not reported; the exit status is the verdict.
# Takes under 20 s after the build. Not yet wired into scripts/ci.sh.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- smoke "$@"
