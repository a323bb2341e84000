#!/usr/bin/env bash
# Run every workload once, one process each:
#   bash perfbench/run_all.sh [seed] [seconds] [trace]
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in si-train tc-cv annotate-ptc; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
        --seconds "${2:-25}" --trace "${3:-0}"
done
