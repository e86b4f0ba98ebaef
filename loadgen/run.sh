#!/usr/bin/env bash
# The single documented entry point of the end-to-end benchmark.
#
#   loadgen/run.sh                 full run: five workloads, 10 s windows,
#                                  writes loadgen/out/result-<commit>.json
#   loadgen/run.sh --smoke         1 s windows, answers checked, metrics printed
#                                  but not compared; under 20 s — the CI line
#   loadgen/run.sh --repeat 5      five runs per workload with medians and
#                                  quartiles (feed two such files to compare)
#   loadgen/run.sh trace           the separate traced run: per-layer ledger,
#                                  spans in loadgen/out/trace-<workload>.jsonl
#   loadgen/run.sh compare A B     hold result file B against A
#
# Any other flag (--seed N, --workload W, --seconds S) is passed through.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cargo_run=(cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" --)

case "${1:-}" in
  trace | compare | budgets)
    exec "${cargo_run[@]}" "$@"
    ;;
  *)
    mkdir -p "$here/out"
    exec "${cargo_run[@]}" run --commit "$commit" \
      --out "$here/out/result-$commit.json" "$@"
    ;;
esac
