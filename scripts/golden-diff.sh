#!/usr/bin/env bash
# Regression-diff the flight-recorder stream against the committed
# golden log: rerun the golden scenario (fixed seed) and require the
# fresh event stream to be byte-identical. Any divergence prints the
# first differing event with its causal chain and exits non-zero.
#
#   scripts/golden-diff.sh           check (used by check.sh and CI)
#   scripts/golden-diff.sh --regen   re-record the golden log after an
#                                    intentional behaviour change
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=tests/golden/events-seed42.jsonl
FRESH=target/golden-fresh.jsonl

run_scenario() {
  # Keep in sync with tests/golden/README.md and
  # crates/cli/tests/golden_diff.rs.
  cargo run -q -p radar-cli --bin radar -- simulate \
    --objects 16 --rate 0.05 --duration 150 --seed 42 \
    --events "$1" >/dev/null
}

if [[ "${1:-}" == "--regen" ]]; then
  run_scenario "$GOLDEN"
  echo "regenerated $GOLDEN ($(wc -l <"$GOLDEN") lines)"
  exit 0
fi

mkdir -p target
run_scenario "$FRESH"
cargo run -q -p radar-cli --bin radar -- events diff "$GOLDEN" "$FRESH"
