#!/usr/bin/env bash
# Builds the cmpsim benchmark and runs it from the repository root.
#
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                         [--out DIR] [--quick] [--check]
#
# Without --workload it runs every workload, each in its own process (so
# peak RSS is per workload): the untraced run, then the traced one unless
# --trace picks one. Cargo output goes to stderr; stdout carries only the
# benchmark's METRIC lines and result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/cmpsim-benchmark"

case " $* " in
  *" --workload "*) exec "$bin" "$@" ;;
  *" --trace "*) traces=("") ;;
  *) traces=("--trace 0" "--trace 1") ;;
esac
for workload in matrix alt_observed; do
  for trace in "${traces[@]}"; do
    # shellcheck disable=SC2086 # $trace is empty or two words by design
    "$bin" --workload "$workload" $trace "$@"
  done
done
