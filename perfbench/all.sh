#!/bin/sh
# Run every workload in turn: sh perfbench/all.sh [seed] [seconds] [trace]
set -e
for workload in heawood heawood_noisy dc30 ac_trials; do
    python3 "$(dirname "$0")/run.py" --workload "$workload" \
        --seed "${1:-0}" --seconds "${2:-16}" --trace "${3:-0}"
done
