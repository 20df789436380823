#!/usr/bin/env bash
# Run every workload of BENCHMARK.json untraced and traced; print one
# "<workload> trace=<0|1> <result JSON>" line each.
# usage: bash perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
status=0
for w in $(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    for trace in 0 1; do
        if out=$(python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"); then
            echo "$w trace=$trace $(tail -n 1 <<<"$out")"
        else
            echo "$w trace=$trace FAILED"; status=1
        fi
    done
done
exit $status
