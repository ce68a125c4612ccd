#!/usr/bin/env bash
# Prints the non-test line count of the workspace crates: every
# `crates/*/src/**/*.rs` file counted up to its first `#[cfg(test)]`
# line, or whole when it has none (so `access_engine/tests.rs`, a test
# module in a file of its own, counts whole).
#
# Usage: scripts/nontest_lines.sh [repo root]   (default: this script's repo)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"
find crates -path 'crates/*/src/*' -name '*.rs' -print0 |
    sort -z |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' |
    awk '{ total += $1 } END { print total + 0 }'
