#!/usr/bin/env bash
# Builds the release resilience-cli and the harness from source, then runs
# the harness with the given arguments:
#
#   bash perfbench/run.sh --workload grid_analytic --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line on stdout is the harness's JSON result.
set -euo pipefail

# Both builds share one target directory, relative to the repository root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet -p resilience-cli --bin resilience-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --cli "$target/release/resilience-cli" \
    --out-dir "$target/perfbench" "$@"
