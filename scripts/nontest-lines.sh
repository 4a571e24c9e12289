#!/bin/sh
# Non-test lines per source file under crates/*/src: every line of a file
# above its first module-level `#[cfg(test)]` (one at column 0), or the
# whole file when it has none. Prints one line per file, a subtotal per
# crate and the total. The deletion ledger in DESIGN.md §6 quotes it.
#
# Usage: scripts/nontest-lines.sh [crate ...]    (default: every crate)
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi

total=0
for crate in "$@"; do
    sub=0
    for f in $(find "crates/$crate/src" -name '*.rs' | sort); do
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        printf '%7d  %s\n' "$n" "$f"
        sub=$((sub + n))
    done
    printf '%7d  crates/%s/src\n\n' "$sub" "$crate"
    total=$((total + sub))
done
printf '%7d  total\n' "$total"
