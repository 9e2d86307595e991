#!/usr/bin/env bash
# Pinned PR 7 rank-stage benchmark protocol (BENCH_PR7.json).
#
# Invariants this script exists to pin:
#   - Each measurement runs SOLO in a fresh `go test` process. The cold rows
#     derive their per-iteration stimulus seeds from the iteration index, so
#     a second in-process run (-count) would restart at the same seeds and
#     silently rehit the stimulus memo — only a fresh process is cold.
#   - Fixed -benchtime (iteration count, not wall time) so every run does
#     identical work.
#   - Rounds interleave the rows (fingerprint, then cold, per round):
#     adjacent runs see similar machine load, so slow load drift spreads
#     over both rows instead of skewing whichever row ran later.
#   - Median of 3 rounds; single runs on shared machines jitter ±10%.
#   - The script records; it gates nothing and exits 0 whatever it measures.
#
# Usage: scripts/bench_pr7.sh [output.json]
# Writes the machine-readable result row set to output.json (default
# /tmp/bench_pr7_raw.json) and echoes progress to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME=${BENCHTIME:-1000x}
ROUNDS=${ROUNDS:-3}
OUT=${1:-/tmp/bench_pr7_raw.json}

rows=(fingerprint cold)

run_once() { # $1 row name -> "ns bytes allocs" from one fresh process
    local name=$1 line
    line=$(go test ./internal/core/ -run '^$' -bench "^BenchmarkRankStage/${name}\$" \
        -benchtime "$BENCHTIME" -benchmem 2>/dev/null |
        awk -v want="BenchmarkRankStage/${name}" \
            '$1 == want || index($1, want "-") == 1 {print $3, $5, $7}')
    [ -n "$line" ] || { echo "no output for row ${name}" >&2; exit 1; }
    echo "$line"
}

median() { sort -n | awk '{a[NR]=$1} END{print a[int((NR+1)/2)]}'; }

declare -A NSRUNS BYRUNS ALRUNS
for ((r = 1; r <= ROUNDS; r++)); do
    echo "round ${r}/${ROUNDS} (benchtime ${BENCHTIME}, one fresh process per row)..." >&2
    for row in "${rows[@]}"; do
        read -r ns by al <<<"$(run_once "$row")"
        echo "  ${row}: ${ns} ns/op, ${by} B/op, ${al} allocs/op" >&2
        NSRUNS[$row]+="${ns} "
        BYRUNS[$row]+="${by} "
        ALRUNS[$row]+="${al} "
    done
done

declare -A NS BY AL
for row in "${rows[@]}"; do
    NS[$row]=$(printf '%s\n' ${NSRUNS[$row]} | median)
    BY[$row]=$(printf '%s\n' ${BYRUNS[$row]} | median)
    AL[$row]=$(printf '%s\n' ${ALRUNS[$row]} | median)
done

{
    echo '{'
    echo "  \"benchtime\": \"${BENCHTIME}\", \"rounds\": ${ROUNDS},"
    sep=,
    for row in "${rows[@]}"; do
        [ "$row" = "${rows[-1]}" ] && sep=
        echo "  \"${row}\": {\"ns_per_op\": ${NS[$row]}, \"bytes_per_op\": ${BY[$row]}, \"allocs_per_op\": ${AL[$row]}}${sep}"
    done
    echo '}'
} >"$OUT"
echo "wrote ${OUT} (cold rank: median ${NS[cold]} ns/op)" >&2
