#!/usr/bin/env bash
# Judges one A/B report written by scripts/ab.sh.
#
#   scripts/benchdiff.sh BENCH_<date>-<workload>.json
#
# For each end-to-end metric BENCHMARK.json lists, prints the base and
# change medians with their q1–q3 (quartiles interpolate linearly), the
# pairs the change won (ties count for neither), the bound with the
# metric's better direction, and one verdict:
#
#   regression     the change's median is worse than the base's by more
#                  than the bound, and the base's q1–q3 spread is within it
#                  or every change run reads worse than every base run
#   unresolved     the base's spread is wider than the bound, unless every
#                  change run reads better than every base run
#   gain           the change won at least 9/10 of the pairs and the
#                  medians differ by more than the base's q1–q3 spread
#   no regression  otherwise
#
# Exit 1 on any regression, on any run that is not "correct":true, or
# when the change failed a larger share of its operations than the base;
# exit 2 when FILE is unreadable or not an A/B report; otherwise 0.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: scripts/benchdiff.sh FILE" >&2; exit 2; }
FILE="$1"
if ! jq -e '[.base, .change] | all(.runs | type == "array" and length > 0)
        and (map(.runs | map(.pair) | sort) | .[0] == .[1])' "$FILE" >/dev/null 2>&1; then
    echo "benchdiff: $FILE is unreadable or not an A/B report from scripts/ab.sh" >&2
    exit 2
fi

REPORT="$(jq -r --slurpfile manifest "$(dirname "$0")/../BENCHMARK.json" '
    def q($p): length as $n | sort as $s | ($p * ($n - 1)) as $i | ($i | floor) as $k
        | $s[$k] + (if $k + 1 < $n then ($s[$k + 1] - $s[$k]) * ($i - $k) else 0 end);
    def num: if fabs >= 1000 or . == 0 then round
        else pow(10; 3 - (fabs | log10 | floor)) as $m | . * $m | round / $m end
        | tostring;
    def spread: "\(q(0.5) | num) (\(q(0.25) | num)–\(q(0.75) | num))";
    def pad($w): tostring | if length < $w then . + " " * ($w - length) else . end;
    def runs: [.runs[].result, .traced];
    def failed_share: runs | (map(.failed) | add) / (map(.attempted) | add);
    . as $r
    | [$manifest[0].end_to_end[]
       | .name as $name
       # Signed so that smaller reads better, whichever way the metric points.
       | (if .better == "lower" then 1 else -1 end) as $sign
       | ([$r.base, $r.change]
          | map(.runs | sort_by(.pair) | map(.result.metrics[$name].value))) as [$b, $c]
       | ($b | q(0.5)) as $mb | ($c | q(0.5)) as $mc
       | (($b | q(0.75)) - ($b | q(0.25))) as $iqr
       | (.bound * ($mb | fabs)) as $limit
       | ([range($b | length) as $i | select($sign * ($c[$i] - $b[$i]) < 0)] | length) as $won
       | (($c | map($sign * .) | max) < ($b | map($sign * .) | min)) as $all_better
       | (($c | map($sign * .) | min) > ($b | map($sign * .) | max)) as $all_worse
       | { name: $name, bound: "\(.bound * 100)% \(.better)", $b, $c, won: "\($won)/\($b | length)",
           verdict: (if $sign * ($mc - $mb) > $limit and ($iqr <= $limit or $all_worse) then "regression"
             elif $iqr > $limit and ($all_better | not) then "unresolved"
             elif $won * 10 >= ($b | length) * 9 and $sign * ($mb - $mc) > $iqr then "gain"
             else "no regression" end) }] as $rows
    | "\(.workload), seed \(.seed), \(.pairs) pairs of \(.seconds) s runs, nproc \(.nproc), \(.rustc)",
      "base \(.base.sha)  change \(.change.sha)",
      ([["metric", "base median (q1–q3)", "change median (q1–q3)", "won", "bound", "verdict"]]
       + ($rows | map([.name, (.b | spread), (.c | spread), .won, .bound, .verdict]))
       | .[] | "\(.[0] | pad(16))\(.[1] | pad(28))\(.[2] | pad(28))\(.[3] | pad(7))\(.[4] | pad(12))\(.[5])"),
      ($rows[] | select(.verdict == "regression") | "FAIL: \(.name) regressed"),
      (["base", "change"][] as $side | $r[$side] | runs | map(select(.correct != true)) | length
       | select(. > 0) | "FAIL: \(.) \($side) run(s) not correct"),
      (if ($r.change | failed_share) > ($r.base | failed_share)
       then "FAIL: the change failed a larger share of operations than the base" else empty end)
' "$FILE")"
echo "$FILE: $REPORT"
case "$REPORT" in *"FAIL: "*) exit 1 ;; esac
