#!/usr/bin/env sh
# Ratio benchmarks (bench/main.ml): build, then run every leg from the
# repository root. Each leg writes BENCH_<leg>.json and appends its rows
# to BENCH_LOG.tsv; a failed check exits nonzero and stops the run.
set -e
cd "$(dirname "$0")/.."
dune build bench/main.exe
for leg in pdhg tree bundling avail faults; do
  ./_build/default/bench/main.exe "$leg"
done
