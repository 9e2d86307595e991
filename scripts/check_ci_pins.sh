#!/usr/bin/env bash
# Checks that every test the CI workflow pins by name still exists.
#
# A step such as `go test -run 'TestA|TestB' ./pkg` passes when TestB has
# been renamed or deleted: Go matches nothing for that name and runs the
# rest. This script reads every `-run` list in the workflow, keeps the
# entries that are exact names (Test/Fuzz/Benchmark/Example followed by
# identifier characters, optionally anchored with ^ and $), and fails unless
# each one has a `func Name(` in some _test.go file of the repository.
# Entries that are patterns rather than names, such as 'Alloc' or NONE, are
# skipped.
#
# Run from the repository root:
#
#   scripts/check_ci_pins.sh [workflow]   # default .github/workflows/ci.yml
set -euo pipefail

wf="${1:-.github/workflows/ci.yml}"
if [ ! -f "$wf" ]; then
    echo "check_ci_pins: no workflow at $wf (run from the repository root)" >&2
    exit 2
fi

pinned=$(grep -oE -- "-run(=| +)('[^']*'|[^' ]+)" "$wf" |
    sed -E "s/^-run(=| +)//; s/^'//; s/'\$//" |
    tr '|' '\n' |
    sed -E 's/^\^//; s/\$$//' |
    grep -E '^(Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*$' |
    sort -u || true)

defined=$(grep -rhoE --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build \
    '^func (Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*\(' . |
    sed -E 's/^func //; s/\($//' | sort -u)

missing=$(comm -23 <(printf '%s\n' "$pinned" | sed '/^$/d') <(printf '%s\n' "$defined"))
count=$(printf '%s\n' "$pinned" | sed '/^$/d' | wc -l)
if [ -n "$missing" ]; then
    echo "check_ci_pins: $wf pins tests that no _test.go file defines:" >&2
    printf '  %s\n' $missing >&2
    exit 1
fi
echo "check_ci_pins: all $count pinned test names in $wf resolve"
