#!/usr/bin/env bash
# Builds the benchmark package from source and runs it. Every argument goes
# to the binary:
#
#   benchmark/run.sh --workload spend_closed [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --pass FILE [--trace 1]     all four workloads, medians to FILE
#   benchmark/run.sh --selfcheck                 two full passes, compared to the bounds
#
# Honours CARGO_TARGET_DIR (relative to the repository root); without it the
# build goes to benchmark/target. Needs no network: the package depends only
# on ../crates.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/smartchain-benchmark" "$@"
