#!/usr/bin/env bash
# Prints the test line count of the workspace: every `.rs` file under
# `tests/` and `crates/*/tests/`, whole, plus every `crates/*/src/**/*.rs`
# file counted from its first `#[cfg(test)]` line to its end — the lines
# `scripts/nontest_lines.sh` leaves out of the same files.
#
# Usage: scripts/test_lines.sh [repo root]   (default: this script's repo)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"
{
    find tests crates/*/tests -name '*.rs' -print0 2>/dev/null |
        sort -z |
        xargs -0 cat |
        wc -l
    find crates -path 'crates/*/src/*' -name '*.rs' -print0 |
        sort -z |
        xargs -0 awk '
            FNR == 1 { counting = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 1 }
            counting { n++ }
            END { print n + 0 }
        '
} | awk '{ total += $1 } END { print total + 0 }'
