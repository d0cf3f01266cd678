#!/usr/bin/env bash
# Non-test lines of Rust per crate under crates/*/src, and their total.
# Each file is cut at its first `#[cfg(test)]` line, so inline unit-test
# modules (which this workspace keeps at the end of a file) are not
# counted; blank lines and comments are. Usage: scripts/loc.sh [ROOT]
# (ROOT defaults to the repository this script lives in).
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
total=0
for dir in "$root"/crates/*/src; do
  crate="$(basename "$(dirname "$dir")")"
  lines=0
  while IFS= read -r -d '' file; do
    n="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
    lines=$((lines + n))
  done < <(find "$dir" -name '*.rs' -print0)
  printf '%-10s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
