#!/usr/bin/env bash
# Builds `qv` and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash e2e_layers/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Both binaries land in $CARGO_TARGET_DIR/release (default: target/),
# where the benchmark finds `qv` next to itself.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p qurator-cli >&2
cargo build --release --offline --quiet --manifest-path e2e_layers/Cargo.toml >&2
exec "$target/release/e2e_layers" "$@"
