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
echo "== the benchmark package builds against the workspace and passes its tests =="
# benchmark/ is an outside consumer of the workspace API (it drives
# HostState, the Redirector, Simulation and the CLI's JSON directly), so
# a signature it relies on cannot change unnoticed, and its own tests
# (estimator, digest, spans, JSON, fault generator, allocation budget)
# run against the workspace as it is. Cargo rewrites its lock file when
# the workspace's dependency graph has moved on; the lock is restored
# byte for byte, pass or fail, so this script leaves the tree as found.
lock="$(mktemp)"
cp benchmark/Cargo.lock "$lock"
status=0
CARGO_TARGET_DIR=target/benchmark \
  cargo build --release --offline --manifest-path benchmark/Cargo.toml || status=1
if [ "$status" -eq 0 ]; then
  CARGO_TARGET_DIR=target/benchmark \
    cargo test --release --offline --manifest-path benchmark/Cargo.toml || status=2
fi
cp "$lock" benchmark/Cargo.lock
rm -f "$lock"
[ "$status" -ne 1 ] || { echo "FAIL: the benchmark package does not build"; exit 1; }
[ "$status" -ne 2 ] || { echo "FAIL: the benchmark package's tests fail"; exit 1; }
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
# Runs a command with its output discarded, sampling its peak RSS
# (VmHWM, KB) from /proc every 50 ms into $peak; returns its exit code.
sample_peak_rss() {
  "$@" > /dev/null &
  local pid=$! hwm
  peak=0
  while hwm="$(awk '/^VmHWM:/ { print $2 }' "/proc/$pid/status" 2>/dev/null)" \
    && [ -n "$hwm" ]; do
    peak="$hwm"
    sleep 0.05
  done
  wait "$pid"
}
echo "== a million objects bootstrap and run (release) =="
# Per-object state costs bytes, not heap blocks. The gate is that a
# 10^6-object bootstrap and run exits 0; its peak RSS (~96 MB today)
# is printed so a multi-hundred-MB spike shows in the log, with no
# threshold.
cargo build -q --release -p radar-cli --bin radar
sample_peak_rss target/release/radar simulate --objects 1000000 --duration 1 --rate 1 --seed 1 \
  || { echo "FAIL: simulate --objects 1000000 exited non-zero"; exit 1; }
echo "simulate --objects 1000000: peak RSS $((peak / 1024)) MB (sampled every 50 ms)"
echo "== a crash below the replica floor (release) =="
# One host stays down past declare-dead-after, so the re-replication
# sweep copies every object up to min-replicas 2 and the placement
# runs drop most copies again. A link cut and its repair rebuild the
# routing view twice mid-run. Peak RSS is printed, with no threshold.
mkdir -p target
printf 'min-replicas 2\ndeclare-dead-after 30\nhost-down 5 60\nlink-down 3 4 100 200\n' > target/flood-faults.txt
sample_peak_rss target/release/radar simulate --objects 10000 --duration 300 --seed 1 \
  --faults target/flood-faults.txt \
  || { echo "FAIL: simulate with a crash below the replica floor exited non-zero"; exit 1; }
echo "simulate --objects 10000 with one crash: peak RSS $((peak / 1024)) MB (sampled every 50 ms)"
echo "== the protocol-health ledger on a long cold run (release) =="
# The ledger keeps no history, so its memory follows the objects and
# the live replicas, not the run length (~32 MB today). A per-object
# history shows here as a peak of a hundred MB or more. Printed, with
# no threshold.
sample_peak_rss target/release/radar simulate --objects 100000 --rate 2 --duration 3000 --seed 1 \
  --ledger \
  || { echo "FAIL: simulate --ledger on 100000 objects exited non-zero"; exit 1; }
echo "simulate --objects 100000 --ledger: peak RSS $((peak / 1024)) MB (sampled every 50 ms)"
echo "== objects churn streams a large log (release) =="
# `objects churn` folds the log line by line, so its memory is the
# ledger's, not the log's (~3 MB today on this ~60 MB log; reading the
# log whole took about twice its size). Printed, with no threshold.
target/release/radar simulate --objects 2000 --rate 10 --duration 240 --seed 1 \
  --events target/churn-large.jsonl > /dev/null
sample_peak_rss target/release/radar objects churn target/churn-large.jsonl \
  || { echo "FAIL: objects churn on a large log exited non-zero"; exit 1; }
echo "objects churn on a $(( $(wc -c < target/churn-large.jsonl) / 1048576 )) MB log: peak RSS $((peak / 1024)) MB (sampled every 50 ms)"
rm -f target/churn-large.jsonl
echo "== non-test lines per crate (printed, not gated) =="
# The line budget ROADMAP's "least code" aim is judged by, printed
# beside the peak-RSS lines so both come from the run that checks the
# tree.
./scripts/loc.sh
echo "== golden event-log regression diff =="
./scripts/golden-diff.sh
echo "== stream order with both threads on one core =="
# Observers fold on a thread of their own. Pinned to one core, the
# simulation and observer threads are interleaved by the OS instead of
# running side by side; the recorded stream must not move a byte.
taskset -c 0 cargo test -q --test trace_identity --test event_order_identity
taskset -c 0 cargo test -q -p radar-sim --test observer_determinism
echo "== cost of a full trace (printed, not gated) =="
# ROADMAP item 5 aims at a full trace within 1.5x a bare run: the wall
# ratio of a 120-s paper-scale run with --events /dev/null --ledger to
# the same run without observers, the fastest of three runs each (one
# run swings by a third on a shared host).
wall_ms() {
  local start elapsed best=""
  for _ in 1 2 3; do
    start="$(date +%s%N)"
    "$@" > /dev/null
    elapsed=$(( ($(date +%s%N) - start) / 1000000 ))
    if [ -z "$best" ] || [ "$elapsed" -lt "$best" ]; then best="$elapsed"; fi
  done
  echo "$best"
}
paper=(target/release/radar simulate --objects 10000 --rate 40 --seed 1 --duration 120)
bare_ms="$(wall_ms "${paper[@]}")"
traced_ms="$(wall_ms "${paper[@]}" --events /dev/null --ledger)"
awk -v b="$bare_ms" -v t="$traced_ms" \
  'BEGIN { printf "full trace: %d ms traced / %d ms bare = %.2fx\n", t, b, t / b }'
echo "== replica-set invariant audit (golden log + faulted runs) =="
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
# A baseline's unusable pick falls back to the primary copy, which may
# install a replica there, so the baselines' faulted runs are audited
# too.
for policy in round-robin closest random; do
  cargo run -q -p radar-cli --bin radar -- simulate \
    --objects 16 --rate 0.05 --duration 150 --seed 42 --policy "$policy" \
    --faults target/audit-faults.txt --events target/audit-faulted-"$policy".jsonl \
    >/dev/null
  cargo run -q -p radar-cli --bin radar -- objects audit target/audit-faulted-"$policy".jsonl
done
# The placement baselines drive the directory through the same
# placement environment as the paper's algorithm; audit them under
# crashes, a declare-dead purge and a consistency mix with updates.
printf 'declare-dead-after 30\nhost-down 5 60 180\nhost-down 12 120\n' \
  > target/audit-placement-faults.txt
for placement in availability cluster; do
  cargo run -q -p radar-cli --bin radar -- simulate \
    --objects 60 --rate 0.2 --duration 400 --seed 3 --placement "$placement" \
    --consistency mixed --update-rate 1 --faults target/audit-placement-faults.txt \
    --events target/audit-faulted-"$placement".jsonl >/dev/null
  cargo run -q -p radar-cli --bin radar -- objects audit target/audit-faulted-"$placement".jsonl
done
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
# `policies` command writes BENCH_policies.json under --out and nowhere
# else; the copy at the root is regenerated from it, gated on its
# shape: every placement policy must appear under at least the
# read-only and write-heavy mixes.
tmp=target/experiments-tiny
rm -rf "$tmp"
committed="$(mktemp)"
cp BENCH_policies.json "$committed"
cargo run -q --release -p radar-bench --bin experiments -- --tiny all --out "$tmp" \
  > target/experiments-tiny.txt
status=0
cmp -s "$committed" BENCH_policies.json || status=$?
rm -f "$committed"
[ "$status" -eq 0 ] \
  || { echo "FAIL: experiments wrote BENCH_policies.json outside --out"; exit 1; }
[ -s "$tmp/BENCH_policies.json" ] \
  || { echo "FAIL: experiments wrote no BENCH_policies.json under --out"; exit 1; }
cp "$tmp/BENCH_policies.json" BENCH_policies.json
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
# Stdout is the same bytes run to run and at any thread count, so it is
# pinned to the committed copy, less the one line that names the
# BENCH_policies.json it wrote. Regenerate the golden file only for an intended
# change to an experiment's output.
grep -v '^wrote .*BENCH_policies\.json$' target/experiments-tiny.txt \
  | diff -u tests/golden/experiments-tiny.txt - \
  || { echo "FAIL: experiments --tiny all differs from tests/golden/experiments-tiny.txt"; exit 1; }
echo "experiments --tiny all: stdout equals tests/golden/experiments-tiny.txt"
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
