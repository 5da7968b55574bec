#!/usr/bin/env bash
# The benchmark's single command: builds the package (offline, release)
# and hands every argument to it. See README.md, or src/main.rs for usage.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# run from; pin it to where this script was called from before moving.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/graphsi-macrobench" --bench-dir "$here" "$@"
