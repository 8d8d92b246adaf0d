#!/usr/bin/env bash
# Interleaved A/B run of one perfbench workload: BASE against HEAD.
#
#   scripts/ab.sh BASE WORKLOAD [PAIRS] [SECONDS] [SEED]
#
# BASE is any git revision; HEAD is the change, so commit what is to
# be measured first. Both are checked out as detached worktrees at
# .bench_build/ab/src-{base,change} and each is built by its own
# `bash perfbench/run.sh` into .bench_build/ab/{base,change}, then
# checked with one short run that is not recorded. The paths are fixed
# because cargo keys a path package's artifacts by its location: each
# run replaces the last run's artifacts instead of adding a copy, and
# a lock allows one run at a time per checkout. Then PAIRS pairs
# (default 10) of SECONDS-long `--trace 0` runs (default:
# BENCHMARK.json's run_seconds) at SEED (default 2013): the base runs
# first in odd pairs and the change in even ones, so a slow phase of a
# shared host falls on both sides.
# Last, one `--trace 1` run per side gives the per-layer metrics.
#
# The raw record goes to BENCH_<date>-<workload>.json at the repo root,
# or .2, .3, ... when that exists; it holds every result line and no
# derived number. scripts/benchdiff.sh then judges it, and this script
# exits with its status. Exit 2 on bad arguments, an unknown BASE,
# uncommitted edits to tracked files or another run holding the lock.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

usage() {
    echo "ab.sh: $1" >&2
    echo "usage: scripts/ab.sh BASE WORKLOAD [PAIRS] [SECONDS] [SEED]" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 5 ] || usage "wrong number of arguments"
WORKLOAD="$2"
PAIRS="${3:-10}"
RUN_SECONDS="${4:-$(jq -r .run_seconds BENCHMARK.json)}"
SEED="${5:-2013}"
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || usage "PAIRS must be a positive integer, not $PAIRS"
[[ "$RUN_SECONDS" =~ ^[0-9]+(\.[0-9]+)?$ ]] || usage "SECONDS must be a number, not $RUN_SECONDS"
[[ "$SEED" =~ ^[0-9]+$ ]] || usage "SEED must be a non-negative integer, not $SEED"
BASE_SHA="$(git rev-parse --verify --quiet "$1^{commit}")" || usage "$1 is not a commit"
CHANGE_SHA="$(git rev-parse HEAD)"
git diff --quiet HEAD || usage "tracked files have uncommitted edits; HEAD is what gets measured"

AB="$ROOT/.bench_build/ab"
mkdir -p "$AB"
exec 9>"$AB/lock"
flock -n 9 || usage "another scripts/ab.sh run holds $AB/lock"
# Removing the directories and pruning unregisters both worktrees on
# every exit path, however far the run got, and clears what a killed
# run left behind.
cleanup() { rm -rf "$AB/src-base" "$AB/src-change" "$AB/runs.jsonl"; git worktree prune; }
cleanup
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --quiet --detach "$AB/src-base" "$BASE_SHA"
git worktree add --quiet --detach "$AB/src-change" "$CHANGE_SHA"

run() { # run SIDE TRACE SECONDS: perfbench's provenance and result lines
    (cd "$AB/src-$1" && CARGO_TARGET_DIR="$AB/$1" bash perfbench/run.sh \
        --workload "$WORKLOAD" --seed "$SEED" --seconds "$3" --trace "$2") | tail -n 2
}
record() { # record SIDE TRACE PAIR POSITION
    echo "ab.sh: $1, trace $2, pair $3" >&2
    run "$1" "$2" "$RUN_SECONDS" | jq -cs --arg side "$1" --argjson trace "$2" \
        --argjson pair "$3" --argjson position "$4" \
        '{side: $side, trace: $trace, pair: $pair, position: $position,
          provenance: .[0].provenance, result: .[1]}' >>"$AB/runs.jsonl"
}

for side in base change; do
    echo "ab.sh: building and checking $side" >&2
    run "$side" 0 0 >/dev/null
done
for pair in $(seq "$PAIRS"); do
    if [ $((pair % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    position=1
    for side in $order; do
        record "$side" 0 "$pair" "$position"
        position=2
    done
done
record base 1 0 0
record change 1 0 0

DATE="$(date +%F)"
OUT="BENCH_$DATE-$WORKLOAD.json"
n=2
while [ -e "$OUT" ]; do
    OUT="BENCH_$DATE-$WORKLOAD.$n.json"
    n=$((n + 1))
done
(
    set -o noclobber
    jq -s --arg date "$DATE" --arg workload "$WORKLOAD" --arg seed "$SEED" \
        --arg seconds "$RUN_SECONDS" --arg pairs "$PAIRS" \
        --arg nproc "$(nproc)" --arg rustc "$(rustc --version)" \
        --arg base "$BASE_SHA" --arg change "$CHANGE_SHA" '
        . as $runs
        | def side($name; $sha):
            [$runs[] | select(.side == $name)] as $own
            | { sha: $sha,
                provenance: ($own | map(select(.trace == 0)) | .[0].provenance),
                runs: ($own | map(select(.trace == 0) | {pair, position, result})),
                traced: ($own | map(select(.trace == 1)) | .[0].result) };
        { date: $date, workload: $workload, seed: ($seed | tonumber),
          seconds: ($seconds | tonumber), pairs: ($pairs | tonumber),
          nproc: ($nproc | tonumber), rustc: $rustc,
          base: side("base"; $base), change: side("change"; $change) }' \
        "$AB/runs.jsonl" >"$OUT"
)
echo "wrote $OUT"
scripts/benchdiff.sh "$OUT"
