#!/usr/bin/env bash
# Builds the release binaries the benchmark drives and the fracbench
# runner, then runs it:
#
#   bash fracbench/run.sh --workload fig10-fmaj --seed 1 --seconds 12 --trace 0
#   bash fracbench/run.sh --repeats 5 --out before.jsonl
#
# Run from the repository root. Build output goes to stderr, so the last
# stdout line of a single-workload run is its JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p fracdram-experiments -p fracdram-serve \
    --bin fig10_fmaj_stability --bin fig11_puf_hd --bin population --bin fracdram-serve >&2
cargo build --release --offline --quiet --manifest-path fracbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fracbench" run "$@"
