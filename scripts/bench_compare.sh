#!/usr/bin/env bash
# Compare the repository benchmark (perfbench/run.py) between a parent
# commit and the working tree.
#
# usage: scripts/bench_compare.sh [-n PAIRS] [-s SEED] <parent-ref> [workload...]
#
# The parent is checked out with `git worktree` into a temporary
# directory.  For each workload (default: every workload in
# BENCHMARK.json) the script runs PAIRS (default 10) pairs of
#   python3 perfbench/run.py --workload W --seed SEED --seconds 15 --trace 0
# on both sides, alternating which side runs first, then prints each
# side's median and quartiles per end-to-end metric, how many pairs the
# change won, and the verdict:
#   gain       the change won >= 9/10 of the pairs (ties count for
#              neither) and its median is better by more than the
#              distance between the parent's quartiles;
#   worse      the change's median is worse than the parent's by more
#              than the metric's BENCHMARK.json bound;
#   unresolved either side's quartile spread exceeds the bound and not
#              every change run beats every parent run, so "no worse"
#              cannot be told apart from noise;
#   same       none of the above.
# Raw run outputs stay in the printed temporary directory.
set -euo pipefail

usage() {
    sed -n '5s/^# //p' "$0" >&2
    exit 2
}

pairs=10
seed=2026
seconds=15
while getopts "n:s:h" opt; do
    case "$opt" in
        n) pairs=$OPTARG ;;
        s) seed=$OPTARG ;;
        *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || usage
parent_ref=$1
shift

repo=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$repo/BENCHMARK.json")
fi

tmp=$(mktemp -d)
parent_dir="$tmp/parent"
git -C "$repo" worktree add --detach --quiet "$parent_dir" "$parent_ref"
cleanup() {
    git -C "$repo" worktree remove --force "$parent_dir" 2>/dev/null || true
    git -C "$repo" worktree prune
}
trap cleanup EXIT
echo "parent $(git -C "$parent_dir" rev-parse --short HEAD) vs working tree;" \
    "$pairs pairs, seed $seed, ${seconds}s runs; raw outputs in $tmp" >&2

run_side() {  # side workload pair
    local dir=$repo out="$tmp/$2.$1.$3.out"
    [ "$1" = parent ] && dir=$parent_dir
    if ! (cd "$dir" && python3 perfbench/run.py --workload "$2" --seed "$seed" \
            --seconds "$seconds" --trace 0) >"$out" 2>&1; then
        echo "run failed: $1 $2 pair $3 (see $out)" >&2
        exit 1
    fi
    tail -n 1 "$out" >>"$tmp/$2.$1.jsonl"
}

for workload in "${workloads[@]}"; do
    for ((pair = 0; pair < pairs; pair++)); do
        if ((pair % 2 == 0)); then
            order=(parent change)
        else
            order=(change parent)
        fi
        for side in "${order[@]}"; do
            echo "  $workload pair $((pair + 1))/$pairs: $side" >&2
            run_side "$side" "$workload" "$pair"
        done
    done
done

python3 - "$repo/BENCHMARK.json" "$tmp" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

bench = json.loads(Path(sys.argv[1]).read_text())
tmp = Path(sys.argv[2])


def load(workload, side):
    lines = (tmp / f"{workload}.{side}.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


header = (
    f"{'workload':<17}{'metric':<23}{'parent median [q1, q3]':<34}"
    f"{'change median [q1, q3]':<34}{'change':>8}{'won':>8}  verdict"
)
print(header)
print("-" * len(header))
for workload in sys.argv[3:]:
    runs = {side: load(workload, side) for side in ("parent", "change")}
    for side, side_runs in runs.items():
        wrong = sum(1 for run in side_runs if not run["correct"])
        if wrong:
            print(f"{workload}: {side} failed its output check in {wrong} runs")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q1, p_q3 = quartiles(parent)
        c_q1, c_q3 = quartiles(change)
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        relative = (c_med - p_med) / p_med
        spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
        if sign > 0:
            all_better = min(change) > max(parent)
        else:
            all_better = max(change) < min(parent)
        if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
            verdict = "gain"
        elif -sign * relative > bound:
            verdict = f"worse (bound {bound:.0%})"
        elif spread > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "same"
        print(
            f"{workload:<17}{name:<23}"
            f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':<34}"
            f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':<34}"
            f"{relative:>+8.1%}{f'{wins}/{len(parent)}':>8}  {verdict}"
        )
EOF
