#!/usr/bin/env bash
# Full repository health check: format, lints, tests, docs, examples,
# golden-log diff, invariant audits.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --check
echo "== clippy (workspace, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings
echo "== tests (debug) =="
cargo test --workspace
echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
echo "== examples build and run =="
# Building proves the examples compile against the API; running them
# proves the API still does what they print (~17 s on two cores; none
# writes a file).
cargo build --release --examples
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  echo "-- $name"
  "target/release/examples/$name" > /dev/null
done
echo "== golden event-log regression diff =="
./scripts/golden-diff.sh
echo "== replica-set invariant audit (golden log + faulted run) =="
# The paper's correctness contract (notify after create, before
# delete) must hold on the committed golden log and on a faulted
# run — crashes, purges and re-replication are exactly where an
# unnotified drop would slip through. Exit code 2 names the seqs.
mkdir -p target
cargo run -q -p radar-cli --bin radar -- objects audit \
  tests/golden/events-seed42.jsonl
printf 'min-replicas 2\ndeclare-dead-after 30\nhost-down 5 60 180\nhost-down 12 120\n' \
  > target/audit-faults.txt
cargo run -q -p radar-cli --bin radar -- simulate \
  --objects 16 --rate 0.05 --duration 150 --seed 42 \
  --faults target/audit-faults.txt --events target/audit-faulted.jsonl \
  >/dev/null
cargo run -q -p radar-cli --bin radar -- objects audit target/audit-faulted.jsonl
echo "== a streamed log is complete (summary + watch, no sequence gaps) =="
# The recorder streams every event, so a log straight from --events has
# no gaps; a gap note here means an event was lost on the way.
for command in summary watch; do
  cargo run -q -p radar-cli --bin radar -- events "$command" \
    target/audit-faulted.jsonl > target/audit-faulted-"$command".txt
  if grep -q 'missing from this log' target/audit-faulted-"$command".txt; then
    echo "FAIL: events $command reports sequence gaps in a streamed log"
    exit 1
  fi
done
echo "== invariant audit of an update-heavy type-1 run =="
# Provider updates against the default (all type-1, primary-copy)
# catalog: the auditor additionally checks that every update is issued
# from a directory-known primary and that every non-wasted delivery
# lands on a host that still holds the replica — the drop/delivery race
# is exactly where stale bookkeeping would surface.
cargo run -q -p radar-cli --bin radar -- simulate \
  --objects 16 --rate 0.05 --duration 150 --seed 42 --update-rate 2 \
  --events target/audit-updates.jsonl >/dev/null
grep -q '"type":"provider-update"' target/audit-updates.jsonl \
  || { echo "FAIL: update-heavy run emitted no provider updates"; exit 1; }
cargo run -q -p radar-cli --bin radar -- objects audit target/audit-updates.jsonl
echo "== protocol-health baseline (BENCH_protocol_health.json) =="
# The ledger-enabled golden run is deterministic, so its
# protocol_health report section doubles as a committed churn/audit
# baseline.
cargo run -q -p radar-cli --bin radar -- simulate \
  --objects 16 --rate 0.05 --duration 150 --seed 42 --ledger --json \
  > target/report-ledger.json
# protocol_health is the report's final section; re-wrapping the tail
# in braces yields a standalone JSON document.
{ echo '{'; sed -n '/^  "protocol_health": {$/,$p' target/report-ledger.json; } \
  > BENCH_protocol_health.json
echo "wrote BENCH_protocol_health.json"
echo "== every experiment at unit-test scale (CSVs + BENCH_policies.json) =="
# Runs all 20 experiment commands at the unit-test scale (~4 s on two
# cores): each must print its `==` header and write its CSVs. The
# `policies` command regenerates BENCH_policies.json, gated on its
# shape: every placement policy must appear under at least the
# read-only and write-heavy mixes.
tmp=target/experiments-tiny
rm -rf "$tmp"
cargo run -q --release -p radar-bench --bin experiments -- --tiny all --out "$tmp" \
  > target/experiments-tiny.txt
headers="$(grep -c '^== .* ==$' target/experiments-tiny.txt || true)"
if [ "$headers" -ne 20 ]; then
  echo "FAIL: experiments --tiny all printed $headers of 20 command headers"
  exit 1
fi
for csv in table2 fig7 fig8a fig8b fig9 baselines baselines_swamp \
  ablation_constant ablation_thresholds ablation_period demand_shift updates \
  policies redirectors heterogeneous links storage variance faults fig6_summary \
  fig6_hot-sites fig6_hot-pages fig6_zipf fig6_regional; do
  [ -s "$tmp/$csv.csv" ] || { echo "FAIL: experiments wrote no $csv.csv"; exit 1; }
done
echo "experiments --tiny all: 20 commands, 24 CSVs"
for policy in radar availability cluster; do
  grep -q "\"placement\": \"$policy\"" BENCH_policies.json \
    || { echo "FAIL: placement policy $policy missing from sweep"; exit 1; }
done
for mix in read-only mixed write-heavy; do
  grep -q "\"mix\": \"$mix\"" BENCH_policies.json \
    || { echo "FAIL: consistency mix $mix missing from sweep"; exit 1; }
done
echo "BENCH_policies.json covers 3 policies x 3 mixes"
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  echo "== regenerated artifacts equal the committed ones =="
  # Both artifacts above are deterministic, so regenerating them must
  # leave the tree as it was: a tracked artifact that depends on the
  # host (a timing, a core count) fails here instead of dirtying every
  # checkout that runs this script.
  git diff --exit-code -- 'BENCH_*.json'
fi
echo "ALL CHECKS PASSED"
