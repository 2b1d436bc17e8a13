#!/bin/sh
# Non-test code lines, the ruler CHANGES.md's SIZE lines use ("PR 15's
# method"): per file, stop at the first `#[cfg(test)]`, drop lines that
# are blank or start with `//` (comments and docs). Prints one row per
# file and a total.
#
#   tools/loc.sh                  # every crate's src (and the root src)
#   tools/loc.sh crates/net/src   # one directory
cd "$(dirname "$0")/.." || exit 1
[ $# -eq 0 ] && set -- src crates/*/src
for dir in "$@"; do
    find "$dir" -name '*.rs' | sort | xargs awk '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        !test && !/^[[:space:]]*(\/\/|$)/ { n[FILENAME]++; total++ }
        END {
            for (f in n) printf "%6d %s\n", n[f], f | "sort -k2"
            close("sort -k2")
            printf "%6d %s\n", total, dir
        }' dir="$dir"
done
