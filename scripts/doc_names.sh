#!/usr/bin/env bash
# Fails when a backticked Rust path in README.md or the verify notes
# (.claude/skills/verify/SKILL.md) names an item that no longer exists:
# every name of an inline-code path `a::b::c` (and of a trailing
# `a::{b, c}` group) must appear as a word in some file under crates/,
# tests/, examples/ or benchmark/src. Fenced code blocks are not read.
# ROADMAP.md and CHANGES.md name removed items on purpose and are not
# checked.
#
# Usage: scripts/doc_names.sh [repo root]   (default: this script's repo)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"
known=$(mktemp)
trap 'rm -f "$known"' EXIT
grep -rhoE '[A-Za-z_][A-Za-z0-9_]*' crates tests examples benchmark/src | sort -u > "$known"
perl -0777 -ne '
    s/^```.*?^```//gms;
    while (/`([^`]+)`/g) {
        (my $span = $1) =~ s/\s+/ /g;
        while ($span =~ /\b([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*::(?:\{[^}]*\}|[A-Za-z_]\w*))/g) {
            my $path = $1;
            print "$_\t$ARGV: `$path`\n" for $path =~ /[A-Za-z_]\w*/g;
        }
    }
' README.md .claude/skills/verify/SKILL.md |
    sort -u |
    awk -F '\t' -v known="$known" '
        BEGIN { while ((getline w < known) > 0) seen[w] = 1 }
        !($1 in seen) { print "no such name `" $1 "` in " $2; bad = 1 }
        END { exit bad }
    '
