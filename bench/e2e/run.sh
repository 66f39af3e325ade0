#!/usr/bin/env bash
# Builds bench_e2e, then runs every workload untraced and then traced,
# printing one result line per run (see run.py).
#
#   bench/e2e/run.sh [SEED]
set -euo pipefail
cd "$(dirname "$0")/../.."
seed="${1:-4242}"
for trace in 0 1; do
  for workload in batch_select batch_score daemon_daily daemon_recheck; do
    printf '%s trace=%s: ' "$workload" "$trace"
    python3 bench/e2e/run.py --workload "$workload" --seed "$seed" --trace "$trace" | tail -n 1
  done
done
