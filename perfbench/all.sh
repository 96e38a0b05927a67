#!/usr/bin/env bash
# Runs every workload in turn with the same arguments, from the repository
# root:
#
#   bash perfbench/all.sh --seed 1 --seconds 25 --trace 0
#
# Each workload prints its metrics and its JSON result line; the exit code
# is nonzero if any workload failed a check or could not be measured.
set -uo pipefail

status=0
for workload in grid_analytic grid_sim orchestrate_slice daemon_mixed; do
    bash perfbench/run.sh --workload "$workload" "$@" || status=1
done
exit "$status"
