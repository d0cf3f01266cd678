#!/usr/bin/env bash
# The repo benchmark, one command:
#
#   benchmark/run.sh [--seed N] [--quick] [--out FILE]
#       builds in release mode, runs every workload, checks the outputs,
#       prints every metric as `name value unit` and writes the result file;
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one contract run (BENCHMARK.json's `command`): the last line of
#       standard output is the result object;
#   benchmark/run.sh compare A.json B.json
#       applies the end-to-end bounds to two result files.
#
# Exits non-zero if the build fails (as it must where the crates are
# missing) or any output check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
