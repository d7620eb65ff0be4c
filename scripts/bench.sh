#!/usr/bin/env sh
# Performance evidence refresh: run the LP-substrate benchmark (which
# reads the *previous* BENCH_sweep.json as its end-to-end baseline) and
# then the sweep benchmark (which overwrites it), in that order, and
# append a timestamped summary row to BENCH_LOG.tsv so regressions are
# visible across revisions. The sweep benchmark also re-runs the sweep
# under an injected-fault spec (worker crashes + poisoned PDHG cells);
# the row records that leg's overhead and fallback-path counts so the
# cost of the recovery machinery is tracked alongside raw speed. The
# obs benchmark then pins the instrumentation overhead (null sink and
# JSONL trace) so the always-on guards stay effectively free. The tree
# benchmark times the exact tree DP against the forced LP producers on
# the same cells, so the third producer's speedup claim stays measured.
# The avail benchmark prices the availability layer: degradation-replay
# throughput, the reference placement's fragility, and the scenario LP's
# overhead over a plain nominal sweep. The online benchmark runs the epoch-driven placement
# service twice (warm-started vs cold class-bound re-solves, PDHG
# forced) and records the sustained epoch rate and the warm-start
# speedup, so the online service's responsiveness claim stays measured.
set -e
cd "$(dirname "$0")/.."

dune build bench/main.exe
./_build/default/bench/main.exe lp
./_build/default/bench/main.exe sweep
./_build/default/bench/main.exe obs
./_build/default/bench/main.exe tree
./_build/default/bench/main.exe scale
./_build/default/bench/main.exe avail
./_build/default/bench/main.exe online

# One summary row: pull the headline numbers out of the two JSON files.
json_num() { # json_num FILE KEY (anchored so KEY never matches a suffix)
  sed -n "s/^ *\"$2\": *\([0-9.eE+-]*\).*/\1/p" "$1" | head -n 1
}
# Same, but scoped to the "faulted" object — several keys (parallel_s,
# worker_deaths, the solve-path counts) appear in both the clean and the
# faulted sections, and json_num would take the clean one first.
json_num_faulted() { # json_num_faulted FILE KEY
  # The solve-path and pool counters sit on one line each, so the key is
  # matched anywhere in the line, not only at line start.
  sed -n '/"faulted"/,$p' "$1" \
    | sed -n "s/.*\"$2\": *\([0-9.eE+-][0-9.eE+-]*\).*/\1/p" | head -n 1
}
# And scoped to the "deadline" object (budget_s, elapsed_s, the quality
# counts), which also shares key names with earlier sections. Booleans
# are matched separately since json_num only takes numbers.
json_num_deadline() { # json_num_deadline FILE KEY
  sed -n '/"deadline"/,$p' "$1" \
    | sed -n "s/^ *\"$2\": *\([0-9.eE+-]*\).*/\1/p" | head -n 1
}
json_bool_deadline() { # json_bool_deadline FILE KEY
  sed -n '/"deadline"/,$p' "$1" \
    | sed -n "s/^ *\"$2\": *\(true\|false\).*/\1/p" | head -n 1
}
# Quality counters live on one line inside the deadline object's
# "quality" map, so match the key anywhere in the line.
json_qcount_deadline() { # json_qcount_deadline FILE KEY
  sed -n '/"deadline"/,$p' "$1" \
    | sed -n "s/.*\"$2\": *\([0-9][0-9]*\).*/\1/p" | head -n 1
}

log=BENCH_LOG.tsv
header='timestamp\tcommit\tpdhg_iters_per_s\tper_iteration_speedup\tsweep_sequential_s\tend_to_end_speedup\tsweep_parallel_s\tfaulted_parallel_s\tfault_overhead_ratio\tfault_pdhg_retries\tfault_simplex_fallbacks\tfault_worker_deaths\tfault_respawns\tdeadline_budget_s\tdeadline_elapsed_s\tdeadline_within_budget\tdeadline_time_budget_cells\tdeadline_iter_budget_cells\tobs_null_overhead_ratio\tobs_jsonl_overhead_ratio\ttree_dp_s\ttree_lp_s\ttree_dp_speedup\tscale_nodes\tscale_objects\tscale_sweep_s\tscale_bundle_ratio\tavail_scenarios\tavail_replay_s\tavail_fragility\tonline_epochs_s\tonline_warm_speedup'
# An early bench.sh rotated to an unnumbered "$log.old", which the next
# rotation would clobber. Fold any such straggler into the numbered
# scheme before rotating.
if [ -e "$log.old" ]; then
  n=1
  while [ -e "$log.old.$n" ]; do n=$((n + 1)); done
  mv "$log.old" "$log.old.$n"
  echo "migrated legacy $log.old to $log.old.$n"
fi
# Rotate a log whose header predates the current column set rather than
# appending rows that no longer line up with it. Numbered suffixes so a
# rotation never clobbers an earlier generation's history.
if [ -f "$log" ] && [ "$(head -n 1 "$log")" != "$(printf "$header\n" | head -n 1)" ]; then
  n=1
  while [ -e "$log.old.$n" ]; do n=$((n + 1)); done
  mv "$log" "$log.old.$n"
  echo "rotated stale $log to $log.old.$n"
fi
if [ ! -f "$log" ]; then
  printf "$header\n" > "$log"
fi
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n' \
  "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  "$commit" \
  "$(json_num BENCH_lp.json fused_iters_per_s)" \
  "$(json_num BENCH_lp.json per_iteration_speedup)" \
  "$(json_num BENCH_lp.json sequential_s)" \
  "$(json_num BENCH_lp.json end_to_end_speedup)" \
  "$(json_num BENCH_sweep.json parallel_s)" \
  "$(json_num_faulted BENCH_sweep.json parallel_s)" \
  "$(json_num_faulted BENCH_sweep.json overhead_ratio)" \
  "$(json_num_faulted BENCH_sweep.json pdhg-retry)" \
  "$(json_num_faulted BENCH_sweep.json simplex-fallback)" \
  "$(json_num_faulted BENCH_sweep.json worker_deaths)" \
  "$(json_num_faulted BENCH_sweep.json respawns)" \
  "$(json_num_deadline BENCH_sweep.json budget_s)" \
  "$(json_num_deadline BENCH_sweep.json elapsed_s)" \
  "$(json_bool_deadline BENCH_sweep.json within_budget)" \
  "$(json_qcount_deadline BENCH_sweep.json time-budget)" \
  "$(json_qcount_deadline BENCH_sweep.json iter-budget)" \
  "$(json_num BENCH_obs.json null_sink_overhead_ratio)" \
  "$(json_num BENCH_obs.json jsonl_sink_overhead_ratio)" \
  "$(json_num BENCH_tree.json tree_dp_s)" \
  "$(json_num BENCH_tree.json tree_lp_s)" \
  "$(json_num BENCH_tree.json tree_dp_speedup)" \
  "$(json_num BENCH_scale.json scale_nodes)" \
  "$(json_num BENCH_scale.json scale_objects)" \
  "$(json_num BENCH_scale.json scale_sweep_s)" \
  "$(json_num BENCH_scale.json bundle_ratio)" \
  "$(json_num BENCH_avail.json avail_scenarios)" \
  "$(json_num BENCH_avail.json avail_replay_s)" \
  "$(json_num BENCH_avail.json avail_fragility)" \
  "$(json_num BENCH_online.json online_epochs_s)" \
  "$(json_num BENCH_online.json online_warm_speedup)" \
  >> "$log"
echo "appended to $log:"
tail -n 1 "$log"
# The migration above must have retired every unnumbered rotation; a
# straggler here means a regression in this script's own bookkeeping.
if [ -e "$log.old" ]; then
  echo "error: unnumbered $log.old left behind" >&2
  exit 1
fi
