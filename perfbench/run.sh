#!/usr/bin/env bash
# Builds `rdrp-cli` and the benchmark from source, then runs one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); the last line of standard output is the
# result JSON.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/cli ] || [ ! -f perfbench/Cargo.toml ]; then
    echo "perfbench: run from the repository root (Cargo.toml and crates/ are missing)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release -q --manifest-path Cargo.toml -p rdrp-cli >&2
cargo build --offline --release -q --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --cli "$CARGO_TARGET_DIR/release/rdrp-cli" "$@"
