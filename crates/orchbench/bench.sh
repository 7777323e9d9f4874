#!/usr/bin/env bash
# The command BENCHMARK.json names. The driver calls it from the root of a
# checkout as
#   bash crates/orchbench/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# It builds both binaries from source (a no-op when they are fresh) and runs
# the untraced one, which hands a --trace 1 run to its traced sibling. The
# last line of stdout is the result object; a failed build or run exits
# non-zero without one.
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo build --release --offline --quiet -p orchbench --bins
exec "${CARGO_TARGET_DIR:-target}/release/orchbench" "$@"
