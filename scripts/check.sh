#!/usr/bin/env sh
# Full local gate: build everything (including the benchmark executable,
# so bench-only breakage fails here and not at measurement time), run the
# whole test suite (unit, property, differential, fault-injection, and
# golden round-trip tests), then re-run the fault-injection suite at both
# pool widths — recovered sweeps must be byte-identical to unfaulted
# ones whether the pool is sequential or four workers wide.
set -e
cd "$(dirname "$0")/.."
dune build
dune build bench/main.exe
dune runtest

# Bench stage: the tree and pdhg legs of bench/main.ml take seconds and
# exit nonzero on a broken check (tree-DP routing, LP bound <= DP
# optimum, the C sweeps' PDHG bound equal to the OCaml reference's).
# They run from a scratch directory, so no committed BENCH file or
# BENCH_LOG.tsv is written. First, both executables must carry the C
# kernels (PDHG's two sweeps, the simplex's pivot, reduced-cost and
# Bland loops) at 32-byte-aligned addresses: their build flags align
# them, so their speed does not move with the size of the code linked
# before them, and a build that lost those flags fails here.
echo "== bench stage: C kernel alignment, tree and pdhg legs =="
for exe in bin/experiments.exe bench/main.exe; do
  for sym in pdhg_column_sweep pdhg_row_sweep simplex_pivot \
    simplex_recompute_reduced simplex_iterate; do
    addr=$(nm "_build/default/$exe" | sed -n "s/^\([0-9a-f]*\) T $sym\$/\1/p")
    [ -n "$addr" ] && [ $((0x$addr % 32)) -eq 0 ] \
      || { echo "bench stage: $sym in $exe is missing or not 32-byte aligned (${addr:-absent})"; exit 1; }
  done
done
benchdir=_build/bench-check
rm -rf "$benchdir"
mkdir -p "$benchdir"
(cd "$benchdir" && ../default/bench/main.exe tree && ../default/bench/main.exe pdhg) \
  > "$benchdir/bench.out"
[ -s "$benchdir/BENCH_tree.json" ] && [ -s "$benchdir/BENCH_pdhg.json" ] \
  || { echo "bench stage: a leg wrote no report"; exit 1; }
echo "bench stage OK: $(grep -c ' ok: ' "$benchdir/bench.out") checks held"

echo "== faults stage: injection suite at --jobs 1 =="
FAULTS_JOBS=1 ./_build/default/test/test_faults.exe
echo "== faults stage: injection suite at --jobs 4 =="
FAULTS_JOBS=4 ./_build/default/test/test_faults.exe

# Obs stage (DESIGN.md §11): instrumentation must not change what a
# sweep computes (the untraced and traced CSVs are byte-identical), and
# the trace merged from four workers must be byte-identical to the
# sequential one — logical-mode events carry no clocks, so any diff is
# a merge bug. The traces must also be well-formed: every line a JSON
# object, span begins balanced by span ends. The untraced CSV must also
# match the committed one from an earlier build, so a change that moves
# every run the same way still shows. fig3 on GROUP is traced the same
# way, since its deployment planner solves its phase-one LP on the cell
# chain's LP leg outside the sweep.
echo "== obs stage: traced sweep at --jobs 1 and 4 =="
well_formed() {
  lines=$(wc -l < "$1")
  bad=$(grep -cv '^{"scope":".*}$' "$1" || true)
  begins=$(grep -c '"kind":"B"' "$1")
  ends=$(grep -c '"kind":"E"' "$1")
  [ "$lines" -gt 0 ] && [ "$bad" -eq 0 ] && [ "$begins" -eq "$ends" ] \
    || { echo "obs stage: malformed trace $1 ($lines lines, $bad bad, $begins B vs $ends E)"; exit 1; }
}
obsdir=_build/obs-check
rm -rf "$obsdir"
mkdir -p "$obsdir"
./_build/default/bin/experiments.exe fig2 --quick --scale 0.02 \
  --jobs 1 -w web --csv "$obsdir/plain" > /dev/null
./_build/default/bin/experiments.exe fig2 --quick --scale 0.02 \
  --jobs 1 -w web --csv "$obsdir/j1" --trace "$obsdir/j1.jsonl" > /dev/null
./_build/default/bin/experiments.exe fig2 --quick --scale 0.02 \
  --jobs 4 -w web --csv "$obsdir/j4" --trace "$obsdir/j4.jsonl" > /dev/null
cmp test/fixtures/fig2-web-quick.csv "$obsdir/plain/fig2-web.csv" \
  || { echo "obs stage: figure output differs from the committed fixture"; exit 1; }
cmp "$obsdir/plain/fig2-web.csv" "$obsdir/j1/fig2-web.csv" \
  || { echo "obs stage: tracing changed the figure output"; exit 1; }
cmp "$obsdir/j1/fig2-web.csv" "$obsdir/j4/fig2-web.csv" \
  || { echo "obs stage: figure output differs across --jobs"; exit 1; }
cmp "$obsdir/j1.jsonl" "$obsdir/j4.jsonl" \
  || { echo "obs stage: merged trace differs between --jobs 1 and 4"; exit 1; }
for j in 1 4; do
  ./_build/default/bin/experiments.exe fig3 --quick --scale 0.005 \
    --jobs "$j" -w group --trace "$obsdir/fig3-j$j.jsonl" > /dev/null
done
cmp "$obsdir/fig3-j1.jsonl" "$obsdir/fig3-j4.jsonl" \
  || { echo "obs stage: fig3 group trace differs between --jobs 1 and 4"; exit 1; }
well_formed "$obsdir/fig3-j4.jsonl"
fig3_lines=$lines
well_formed "$obsdir/j4.jsonl"
echo "obs stage OK: $lines events, $begins spans, traces and CSVs identical; fig3 group trace ($fig3_lines events) identical across --jobs"

# Figures stage: fig1, fig2 and fig3 at a tiny scale must print what an
# earlier build printed, to the byte apart from clocks, and write the
# same CSVs. The mask replaces only the timing table's wall(s) column and
# the summary line's task-wall, elapsed and speedup; the solver, iters
# and quality columns stay pinned, and so do fig3 WEB's one line (no
# deployment meets its goal at this scale) and every progress line. The
# tree figure's CSV is pinned too, and its stdout must be the same at
# --jobs 1 and 4 once the clocks and the jobs count are masked. Each run
# writes its CSV to a directory named csv beside it, so the "wrote" lines
# match the fixtures.
echo "== figures stage: fig1-3 and figtree against the committed fixtures =="
figdir=_build/figures-check
rm -rf "$figdir"
mkdir -p "$figdir"
mask_clocks() {
  sed -E \
    -e 's/ +[0-9]+\.[0-9]{3}( +[0-9]+  [-a-z]+ +[-a-z]+)$/ WALL\1/' \
    -e 's/task-wall [0-9.]+s  elapsed [0-9.]+s  speedup [0-9.]+x/task-wall T  elapsed T  speedup T/' \
    "$1"
}
for fig in fig1 fig2 fig3; do
  for w in web group; do
    run="$figdir/$fig-$w"
    mkdir -p "$run"
    (cd "$run" && ../../default/bin/experiments.exe "$fig" --quick \
      --scale 0.005 --jobs 1 -w "$w" --csv csv > stdout)
    mask_clocks "test/fixtures/$fig-$w-s0.005.out" > "$run/want"
    mask_clocks "$run/stdout" > "$run/got"
    cmp "$run/want" "$run/got" \
      || { echo "figures stage: $fig $w stdout differs from the committed fixture"; exit 1; }
  done
done
for csv in fig1-web fig1-group fig2-web fig2-group fig3-group; do
  cmp "test/fixtures/$csv-s0.005.csv" "$figdir/$csv/csv/$csv.csv" \
    || { echo "figures stage: $csv.csv differs from the committed fixture"; exit 1; }
done
for j in 1 4; do
  run="$figdir/figtree-j$j"
  mkdir -p "$run"
  (cd "$run" && ../../default/bin/experiments.exe figtree --jobs "$j" \
    --csv csv > stdout)
  cmp test/fixtures/figtree-n24-s2004.csv "$run/csv/figtree-n24-s2004.csv" \
    || { echo "figures stage: figtree CSV at --jobs $j differs from the committed fixture"; exit 1; }
  mask_clocks "$run/stdout" | sed -E 's/  jobs [0-9]+$/  jobs N/' > "$run/masked"
done
cmp "$figdir/figtree-j1/masked" "$figdir/figtree-j4/masked" \
  || { echo "figures stage: figtree stdout differs across --jobs"; exit 1; }
echo "figures stage OK: 6 figure outputs and 5 CSVs identical to the fixtures, figtree identical across --jobs"

# Deadline stage: a budgeted figure sweep must finish within its budget
# plus one cell's grace, degrade cells to looser-but-still-certified
# bounds, and pass the from-scratch certificate recheck (--certify makes
# any overrun or failed recheck exit nonzero) — at both pool widths.
for j in 1 4; do
  echo "== deadline stage: governed sweep + certificate recheck at --jobs $j =="
  out=_build/deadline-check-j$j.out
  ./_build/default/bin/experiments.exe fig2 --quick --scale 0.02 \
    --deadline 10 --certify --jobs "$j" -w web > "$out"
  grep -E 'deadline|certificates' "$out"
done

# Tree stage: on seeded tree instances the closest-allocation DP is the
# exact optimum, so validate --family tree checks every other producer
# against it (simplex/PDHG/Lagrangian below, rounded LP and heuristics
# above) and exits nonzero on any inversion. The validate output prints
# no wall clocks, so sequential and four-worker runs must agree to the
# byte — any diff is sweep nondeterminism.
echo "== tree stage: DP-vs-LP agreement at --jobs 1 and 4 =="
treedir=_build/tree-check
rm -rf "$treedir"
mkdir -p "$treedir"
./_build/default/bin/experiments.exe validate --family tree --count 3 \
  --jobs 1 > "$treedir/j1.out"
./_build/default/bin/experiments.exe validate --family tree --count 3 \
  --jobs 4 > "$treedir/j4.out"
cmp "$treedir/j1.out" "$treedir/j4.out" \
  || { echo "tree stage: validate output differs across --jobs"; exit 1; }
grep -q 'all checks passed' "$treedir/j1.out" \
  || { echo "tree stage: bound ordering violations"; exit 1; }
echo "tree stage OK: $(grep -c 'tree-dp' "$treedir/j1.out") DP cells, outputs identical across --jobs"

# Scale stage: the bundled Lagrangian sweep (DESIGN.md §13) prints no
# wall clocks on stdout (timings go to stderr), so a run must match the
# committed output of an earlier build to the byte — any diff moved a
# bound, a solve count or the bundling. --check additionally gates the
# decomposition on a small instance: the dual must sit below the exact
# simplex optimum (bound sandwich) and the bundled bound must equal the
# forced-unbundled one bit for bit (the family is homogeneous). The
# default instance (229 nodes, 10,000 objects, about a second) is pinned
# too, since it is the one the figure reports.
echo "== scale stage: bundled Lagrangian sweep against the committed output =="
scaledir=_build/scale-check
rm -rf "$scaledir"
mkdir -p "$scaledir"
./_build/default/bin/experiments.exe figscale --objects 2000 --check \
  > "$scaledir/figscale.out" 2> /dev/null
cmp test/fixtures/figscale-2000.out "$scaledir/figscale.out" \
  || { echo "scale stage: figscale output differs from the committed fixture"; exit 1; }
./_build/default/bin/experiments.exe figscale \
  > "$scaledir/figscale-10000.out" 2> /dev/null
cmp test/fixtures/figscale-10000.out "$scaledir/figscale-10000.out" \
  || { echo "scale stage: default figscale output differs from the committed fixture"; exit 1; }
grep -q 'scale checks passed' "$scaledir/figscale.out" \
  || { echo "scale stage: bound-sandwich or bundling-exactness gate failed"; exit 1; }
echo "scale stage OK: $(sed -n 's/^bundling: .*(\(.*\)x).*/\1/p' "$scaledir/figscale.out")x and $(sed -n 's/^bundling: .*(\(.*\)x).*/\1/p' "$scaledir/figscale-10000.out")x bundle ratios, outputs identical to the fixtures"

# Avail stage: the availability validation family checks the sampler's
# determinism, the all-up/monotonicity laws of the degraded re-pricer,
# the scenario LP's lower-bound validity against every evaluated
# placement, and the k-failure survival flags. It runs sequentially and
# prints no wall clocks (scenario sampling, assessment and replay are
# all seeded FNV decisions), so a run must match the committed output of
# an earlier build to the byte.
echo "== avail stage: availability validation against the committed output =="
availdir=_build/avail-check
rm -rf "$availdir"
mkdir -p "$availdir"
./_build/default/bin/experiments.exe validate --family avail --count 6 \
  > "$availdir/avail.out"
cmp test/fixtures/validate-avail-6.out "$availdir/avail.out" \
  || { echo "avail stage: validate output differs from the committed fixture"; exit 1; }
grep -q 'all checks passed' "$availdir/avail.out" \
  || { echo "avail stage: availability law violations"; exit 1; }
echo "avail stage OK: $(grep -c 'k2:' "$availdir/avail.out") placements checked, output identical to the fixture"

# Figavail stage: the availability figure fans out once, one task per
# deployed heuristic. Its stdout carries no wall clocks (timings go to
# stderr), so the sequential and four-worker runs must both match the
# committed output of an earlier build to the byte — this is what checks
# that the per-heuristic map keeps its order.
echo "== figavail stage: fragility frontier at --jobs 1 and 4 =="
figavaildir=_build/figavail-check
rm -rf "$figavaildir"
mkdir -p "$figavaildir"
for j in 1 4; do
  ./_build/default/bin/experiments.exe figavail --scale 0.01 -w both \
    --jobs "$j" > "$figavaildir/j$j.out" 2> /dev/null
  cmp test/fixtures/figavail-quick.out "$figavaildir/j$j.out" \
    || { echo "figavail stage: output at --jobs $j differs from the committed fixture"; exit 1; }
done
echo "figavail stage OK: $(grep -c ' steps$' "$figavaildir/j1.out") heuristics ranked, outputs identical to the fixture at --jobs 1 and 4"

# Usage stage: out-of-range numeric flags are rejected at parse time
# with cmdliner's usage-error status (124), not an uncaught exception
# mid-run (125) or a run that checks nothing and passes. serve has no
# --jobs: its epochs run in one process, and no warm-start switch: every
# epoch bound is solved cold. Its goal flags take exactly what the cost
# model accepts, so NaN is a usage error too. select runs no sweep, so it
# takes only the tracing flags, never the sweep ones. There is no worker
# subcommand, no flag naming remote workers and no network fault kind:
# the pool is local only. serve's --topo and --trace-file go together,
# and --strategies takes registry names only. A replay whose files do
# not parse, or disagree on the node count, is a reported error (123).
echo "== usage stage: out-of-range flags are usage errors =="
expect_usage_error() {
  status=0
  ./_build/default/bin/experiments.exe "$@" > /dev/null 2>&1 || status=$?
  [ "$status" -eq 124 ] \
    || { echo "usage stage: '$*' exited $status, want 124"; exit 1; }
}
expect_usage_error figavail --scenarios 0
expect_usage_error serve --intervals 100
expect_usage_error validate --family tree --count 0
expect_usage_error serve --jobs 2
expect_usage_error serve --no-warm
expect_usage_error serve --fraction 1.5
expect_usage_error serve --fraction nan
expect_usage_error serve --tlat nan
expect_usage_error select --jobs 2
expect_usage_error select --certify
expect_usage_error select --deadline 5
expect_usage_error worker --listen 0
expect_usage_error fig2 --workers 127.0.0.1:1
expect_usage_error fig2 --inject drop=0.1
expect_usage_error serve --topo test/fixtures/golden.topo
expect_usage_error serve --strategies bogus
expect_file_error() {
  status=0
  ./_build/default/bin/experiments.exe serve --topo "$1" --trace-file "$2" \
    > /dev/null 2>&1 || status=$?
  [ "$status" -eq 123 ] \
    || { echo "usage stage: serve on $1 and $2 exited $status, want 123"; exit 1; }
}
usagedir=_build/usage-check
rm -rf "$usagedir"
mkdir -p "$usagedir"
printf 'not a topology\n' > "$usagedir/garbage.topo"
expect_file_error "$usagedir/garbage.topo" test/fixtures/golden.trace
expect_file_error test/fixtures/golden.topo test/fixtures/golden.trace
# A missing replay file is a reported error too, and its one line names
# the path once.
missing=/nonexistent.topo
status=0
./_build/default/bin/experiments.exe serve --topo "$missing" \
  --trace-file test/fixtures/golden.trace > /dev/null 2> "$usagedir/missing.err" \
  || status=$?
[ "$status" -eq 123 ] \
  || { echo "usage stage: serve on a missing topology exited $status, want 123"; exit 1; }
[ "$(grep -o "$missing" "$usagedir/missing.err" | wc -l)" -eq 1 ] \
  || { echo "usage stage: the missing-file error does not name its path exactly once"; cat "$usagedir/missing.err"; exit 1; }
echo "usage stage OK: out-of-range flags exit 124, bad replay files 123"

# Journal stage (DESIGN.md §9): crash recovery and kill-and-resume on
# local fork workers. A four-worker fig2 sweep in which every cell's
# first attempt crashes its worker must print the CSV of the sequential
# run, and its robustness line must show the deaths. Then the parent
# itself is killed right after its second checkpoint (ckill_after=2,
# exit 96); a re-run with the same journal must restore the recorded
# cells and again print the sequential CSV to the byte. The fault
# decisions are keyed by (seed, kind, cell key) only, so the schedule is
# the same every time.
echo "== journal stage: crash recovery and kill-and-resume on local workers =="
journaldir=_build/journal-check
rm -rf "$journaldir"
mkdir -p "$journaldir/seq" "$journaldir/crash" "$journaldir/resume" "$journaldir/journal"
./_build/default/bin/experiments.exe fig2 --quick --scale 0.01 \
  --jobs 1 -w web --csv "$journaldir/seq" > /dev/null
./_build/default/bin/experiments.exe fig2 --quick --scale 0.01 \
  --jobs 4 -w web --inject seed=11,crash=1 \
  --csv "$journaldir/crash" > "$journaldir/crash.out"
cmp "$journaldir/seq/fig2-web.csv" "$journaldir/crash/fig2-web.csv" \
  || { echo "journal stage: crash-recovered run differs from sequential"; exit 1; }
grep -q '^robustness .*deaths=[1-9]' "$journaldir/crash.out" \
  || { echo "journal stage: no worker deaths recorded under crash=1"; exit 1; }
kill_status=0
./_build/default/bin/experiments.exe fig2 --quick --scale 0.01 \
  --jobs 4 -w web --inject seed=11,crash=1,ckill_after=2 \
  --journal "$journaldir/journal" --csv "$journaldir/resume" \
  > /dev/null 2>&1 || kill_status=$?
[ "$kill_status" -eq 96 ] \
  || { echo "journal stage: injected kill exited $kill_status, want 96"; exit 1; }
[ -n "$(ls "$journaldir/journal")" ] \
  || { echo "journal stage: no journal left by the killed run"; exit 1; }
./_build/default/bin/experiments.exe fig2 --quick --scale 0.01 \
  --jobs 4 -w web --inject seed=11,crash=1 \
  --journal "$journaldir/journal" --csv "$journaldir/resume" \
  > "$journaldir/resume.out"
cmp "$journaldir/seq/fig2-web.csv" "$journaldir/resume/fig2-web.csv" \
  || { echo "journal stage: resumed run differs from sequential"; exit 1; }
grep -q 'resumed=[1-9]' "$journaldir/resume.out" \
  || { echo "journal stage: resume did not restore cells from the journal"; exit 1; }
echo "journal stage OK: crash-recovered and resumed CSVs identical to the sequential run"

# Online stage (DESIGN.md §15): the epoch-driven placement service must
# be a pure function of (trace, epoch size, strategy set) — its stdout
# carries no wall clocks (timings go to stderr), so a run must match the
# committed output of an earlier build to the byte, and every reported
# regret must be nonnegative (serve itself exits nonzero on a negative
# one). Every epoch bound is the offline bound of what the epoch has
# seen, so the final epoch must print the same lines at any epoch size:
# a run at --epoch-intervals 12 (one epoch over the whole trace) must
# match the final epoch of the committed run at 4. The offline
# deployments themselves are pinned by digest in dune runtest
# (fixtures/strategy_deployments.golden).
echo "== online stage: serve against the committed output =="
onlinedir=_build/online-check
rm -rf "$onlinedir"
mkdir -p "$onlinedir"
for k in 4 12; do
  ./_build/default/bin/experiments.exe serve -w web --scale 0.01 \
    --intervals 12 --epoch-intervals "$k" \
    --strategies greedy-global,greedy-replica,lru-caching \
    > "$onlinedir/serve-k$k.out" 2> /dev/null
done
cmp test/fixtures/serve-web-quick.out "$onlinedir/serve-k4.out" \
  || { echo "online stage: serve output differs from the committed fixture"; exit 1; }
grep -q ' 9 bound solves$' "$onlinedir/serve-k4.out" \
  || { echo "online stage: serve did not complete its 9 bound solves"; exit 1; }
# The indented lines of a run's last epoch.
final_epoch() {
  awk '/^epoch /{s=""; next} /^  /{s=s $0 "\n"} END{printf "%s", s}' "$1"
}
final_epoch "$onlinedir/serve-k4.out" > "$onlinedir/final-k4"
final_epoch "$onlinedir/serve-k12.out" > "$onlinedir/final-k12"
[ -s "$onlinedir/final-k4" ] && cmp "$onlinedir/final-k4" "$onlinedir/final-k12" \
  || { echo "online stage: the final epoch depends on the epoch size"; exit 1; }
# A replay on a 64-node line (40 ms hops, origin 0; five readers, two
# of them at nodes 62 and 63) with serve's default strategies, caching
# among them: the cache replay has no node limit, so the run must exit
# 0 and match its committed output to the byte.
status=0
./_build/default/bin/experiments.exe serve --topo test/fixtures/line64.topo \
  --trace-file test/fixtures/line64.trace --intervals 4 --epoch-intervals 2 \
  > "$onlinedir/serve-line64.out" 2> /dev/null || status=$?
[ "$status" -eq 0 ] \
  || { echo "online stage: serve on the 64-node line exited $status, want 0"; exit 1; }
cmp test/fixtures/serve-line64.out "$onlinedir/serve-line64.out" \
  || { echo "online stage: 64-node serve output differs from the committed fixture"; exit 1; }
echo "online stage OK: $(grep -c '^epoch ' "$onlinedir/serve-k4.out") epochs identical to the fixture, final epoch identical at --epoch-intervals 12, 64-node replay identical to its fixture"

# Examples stage: the examples are the library's user-facing entry
# points, and the only callers of Methodology.select and
# plan_deployment and of an average-latency goal run end to end. They
# print no clocks and run no pool, so each stdout must match the
# committed output of an earlier build to the byte. remote_office is
# left out: it takes minutes. ROADMAP item 2 will move deployment's
# GROUP bounds and must regenerate test/fixtures/example-deployment.out.
echo "== examples stage: example outputs against the committed fixtures =="
exampledir=_build/examples-check
rm -rf "$exampledir"
mkdir -p "$exampledir"
for name in quickstart cost_extensions average_latency deployment; do
  ./_build/default/examples/$name.exe > "$exampledir/$name.out"
  cmp "test/fixtures/example-$name.out" "$exampledir/$name.out" \
    || { echo "examples stage: $name output differs from the committed fixture"; exit 1; }
done
echo "examples stage OK: 4 examples identical to their fixtures"
