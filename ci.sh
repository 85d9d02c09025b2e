#!/bin/sh
# Minimal CI: build, full test suite (unit + qcheck + integration, including
# the slow exhaustive experiments), a smoke run of the CLI with the
# parallel engine enabled, and the perf-regression gate: the current run's
# machine-readable report diffed against the committed BENCH_0.json
# baseline. Checks are gated hard at any tolerance; timings use a generous
# tolerance here because the baseline was recorded on different hardware
# (use `predlab compare old.json new.json` with the default 50% tolerance
# when both reports come from the same machine).
set -eux

dune build
dune runtest
dune exec bin/predlab.exe -- run EQ4 --jobs 2
# Paper-reproduction gate: one `predlab all --jobs 1`, whose 30 section
# digests must match predbench/golden/paper_all.digests (the harness exits
# 1 on any mismatch). The RW.CACHE and FIG1 bench kernels, fast and exact,
# must still run; the fast FIG1 kernel times a grid cell, as `eval`,
# `sample` and `all` address cells.
dune exec predbench/e2e.exe -- --workload paper_all --seconds 0 --seed 1
dune exec bench/main.exe -- --only RW.CACHE
dune exec bench/main.exe -- --only FIG1/
# Exploration-work gate: RW.CACHE's fast search steps only each depth's
# distinct finals and their relabelled copies, 6,639 transitions in all,
# where a search that re-enumerates every start state at every depth steps
# 3,757,678. The count is the same at every --jobs and on every host, so
# unlike a wall-clock bound it cannot flake.
dune exec bin/predlab.exe -- run RW.CACHE --jobs 1 --format json \
  > _build/rw-cache.json
rw_evals=$(sed -n 's/^ *"evals": \([0-9]*\)$/\1/p' _build/rw-cache.json)
test "$rw_evals" -le 20000
# Determinism gate: the timer decides where matrix rows run (batched rows
# inline or fanned out, scalar rows fanned out), and sampled cells fan out
# through one shared engine grid, so the experiments on those paths must
# print the same report at --jobs 1 and --jobs 4 once the [wall ...]
# timing line and the (jobs=N) summary are removed.
for id in FIG1 FIG1.FAST EXT.EXTENT TAB1.R2 EXT.ATLAS DEF.SAMPLE DEF.CERT; do
  for jobs in 1 4; do
    dune exec bin/predlab.exe -- run "$id" --jobs "$jobs" > "_build/det-$jobs.raw"
    sed -e '/^[[:space:]]*\[wall/d' -e 's/ (jobs=[0-9]*)$//' \
      "_build/det-$jobs.raw" > "_build/det-$jobs.txt"
  done
  diff _build/det-1.txt _build/det-4.txt
done
# Lint gate: every shipped workload must be free of error-severity findings
# (the JSON doc is kept as a build artifact), and the linter itself must
# still catch the pinned dirty fixture — a linter that stops finding
# anything would otherwise pass CI silently.
dune exec bin/predlab.exe -- lint --format json > _build/lint.json
if dune exec bin/predlab.exe -- lint --fixture dirty > /dev/null 2>&1; then
  echo "lint failed to flag the dirty fixture" >&2
  exit 1
fi
dune exec bin/predlab.exe -- stats --jobs 2 --format json > _build/current.json
# `stats` runs under the supervisor: a v2 report with one record per
# registered experiment, compared here against the v1 baseline.
grep -q '^  "version": 2,$' _build/current.json
experiments=$(dune exec bin/predlab.exe -- list | wc -l)
total=$(sed -n 's/^  "experiments_total": \([0-9]*\),$/\1/p' _build/current.json)
test "$total" -eq "$experiments"
dune exec bin/predlab.exe -- compare BENCH_0.json _build/current.json --tolerance 400

# Trajectory gate. Each committed BENCH_<k>.json point (bench/main.exe --json)
# is compared against its predecessor: timings are non-gating at this
# tolerance (compare only flags slowdowns), but any check regression gates
# hard, and so does a point with fast-engine kernels but no passing
# FIG1.FAST oracle (Regression.fast_gate), so a hand-edited or stale point
# cannot slip through.
k=1
while [ -e "BENCH_$k.json" ]; do
  dune exec bin/predlab.exe -- compare "BENCH_$((k - 1)).json" "BENCH_$k.json" \
    --tolerance 400
  k=$((k + 1))
done

# Sampling gates. DEF.SAMPLE is the oracle that lets a sampled estimate be
# trusted where no exhaustive sweep double-checks it: exhaustive
# Pr/SIPr/IIPr/mean inside the reported CIs, tails bracketing [BCET, WCET],
# and the whole report bit-identical across jobs and reruns at a fixed
# seed. The CLI smoke re-asserts containment end to end (`sample --check`
# exits 1 on any value outside its CI), and the sampling microbenchmark
# kernels must still run.
dune exec bin/predlab.exe -- run DEF.SAMPLE --jobs 2
dune exec bin/predlab.exe -- sample --check --jobs 2 clamp popcount
# Cross-jobs identity end to end: at a fixed seed the CLI's sample document
# over the whole registry is the same bytes at --jobs 1, 2 and 8 (more
# domains than cores), once the report's own top-level "jobs" echo is
# removed.
for jobs in 1 2 8; do
  dune exec bin/predlab.exe -- sample --format json --seed 3 --jobs "$jobs" \
    > "_build/sample-seed3-$jobs.raw"
  sed '/^  "jobs": [0-9]*,$/d' "_build/sample-seed3-$jobs.raw" \
    > "_build/sample-seed3-$jobs.json"
done
cmp _build/sample-seed3-1.json _build/sample-seed3-2.json
cmp _build/sample-seed3-1.json _build/sample-seed3-8.json
dune exec bench/main.exe -- --only DEF.SAMPLE

# Certifier gates. DEF.CERT is the oracle that lets a static certificate
# be trusted without an exhaustive sweep: flat-machine Invariant verdicts
# coincide exactly with exhaustive timing invariance, every bracket and
# spread bound contains the observations, the sampled CIs are consistent
# with the certified Pr lower bound, and the single-path transform kills
# the branch channel. The CLI smoke keeps the JSON report as an artifact,
# re-asserts the pinned flat-invariant set, and checks both fixture
# directions — a certifier that stops contradicting the leaky fixture
# would otherwise pass CI silently.
dune exec bin/predlab.exe -- run DEF.CERT --jobs 2
dune exec bin/predlab.exe -- certify --format json > _build/certify.json
dune exec bin/predlab.exe -- certify --fixture leakfree > /dev/null
if dune exec bin/predlab.exe -- certify --fixture leaky > /dev/null 2>&1; then
  echo "certify failed to contradict the leaky fixture" >&2
  exit 1
fi
dune exec bin/predlab.exe -- certify --require-invariant \
  fibonacci call_chain state_machine
dune exec bench/main.exe -- --only CERT

# Supervision gates. A fault injected into one experiment must not take the
# run down: the other experiments complete, the failure is classified in the
# v2 JSON report, and the exit code is the documented 3.
rm -f _build/faulted.json _build/ci.jsonl _build/resumed.json
set +e
dune exec bin/predlab.exe -- all --jobs 2 --inject experiment:EQ4=raise \
  --journal _build/ci.jsonl --out _build/faulted.json --format json
status=$?
set -e
test "$status" -eq 3
grep -q '"status": "crashed"' _build/faulted.json
# Every experiment but the injected one completed.
test "$(grep -c '"status":"completed"' _build/ci.jsonl)" -eq "$((experiments - 1))"
# Resume from that journal with the fault gone: only EQ4 re-runs, the final
# report is clean, and the journal gains exactly the one re-run line.
lines_before=$(wc -l < _build/ci.jsonl)
dune exec bin/predlab.exe -- all --jobs 2 --resume --journal _build/ci.jsonl \
  --out _build/resumed.json --format json
test "$(wc -l < _build/ci.jsonl)" -eq "$((lines_before + 1))"
# Journal lines are version 2: the report record behind a two-field header.
grep -q '"schema":"predlab/journal","version":2' _build/ci.jsonl
grep -q '"resumed": true' _build/resumed.json
if grep -q '"status": "crashed"' _build/resumed.json; then
  echo "resume left a crashed experiment in the final report" >&2
  exit 1
fi
# A resumed report, whose records partly come from the journal, must
# compare as cleanly against the v1 baseline as the `stats` report above.
dune exec bin/predlab.exe -- compare BENCH_0.json _build/resumed.json --tolerance 400
# An --out path that cannot be written is a usage error (exit 2, the flag
# named), not an uncaught exception, and the failed write leaves no temp
# file behind.
mkdir -p _build/ci-out-dir
rm -f _build/ci-out-dir.tmp _build/ci-out.err
set +e
dune exec bin/predlab.exe -- all --jobs 2 --out _build/ci-out-dir \
  2> _build/ci-out.err
status=$?
set -e
test "$status" -eq 2
grep -q -- '--out' _build/ci-out.err
test ! -e _build/ci-out-dir.tmp
# Chaos gate: a seeded fault campaign across the whole registry must degrade
# gracefully (every failure classified, retries recover transients) or the
# supervisor has regressed.
dune exec bin/predlab.exe -- chaos --jobs 2 --seed 1

# Serve-daemon session. The daemon is exercised end to end over its socket:
# a repeated cell query must flip from cache miss to cache hit (asserted
# both in the per-response `cached` flag and in the stats counters), the
# sample/lint/certify result documents must be byte-identical to the one-shot CLI's
# --format json output at the same --jobs, and shutdown must be clean (exit
# 0, socket unlinked). The daemon runs from the built binary directly so
# the backgrounded process does not contend for dune's build lock.
PREDLAB=_build/default/bin/predlab.exe
# `query` checks its float flags before it connects, so these probes need
# no daemon: a confidence or tolerance the one-shot commands refuse is a
# usage error (124), and a non-finite deadline, which JSON cannot spell,
# exits 2 naming it instead of escaping as an uncaught exception (125).
NOSOCK=_build/no-daemon.sock
"$PREDLAB" query --socket "$NOSOCK" --confidence=nan sample clamp 2> /dev/null \
  && probe_status=0 || probe_status=$?
test "$probe_status" -eq 124
"$PREDLAB" query --socket "$NOSOCK" --tolerance=-5 \
  compare BENCH_0.json BENCH_0.json 2> /dev/null \
  && probe_status=0 || probe_status=$?
test "$probe_status" -eq 124
# The shared tolerance converter refuses NaN without calling it negative.
"$PREDLAB" compare --tolerance=nan BENCH_0.json BENCH_0.json \
  2> _build/compare-nan.err && probe_status=0 || probe_status=$?
test "$probe_status" -eq 124
if grep -q 'negative' _build/compare-nan.err; then
  echo "a NaN tolerance was reported as negative" >&2
  exit 1
fi
"$PREDLAB" query --socket "$NOSOCK" --deadline=inf stats \
  2> _build/query-inf.err && probe_status=0 || probe_status=$?
test "$probe_status" -eq 2
grep -q 'non-finite' _build/query-inf.err
grep -q -- '--deadline' _build/query-inf.err
# A request flag beside --raw would never reach the daemon, so the pair is
# a usage error (2) naming both flags, refused before any connect.
"$PREDLAB" query --socket "$NOSOCK" --deadline 1 --raw '{"op":"stats"}' \
  2> _build/query-raw.err && probe_status=0 || probe_status=$?
test "$probe_status" -eq 2
grep -q -- '--raw' _build/query-raw.err
grep -q -- '--deadline' _build/query-raw.err
# So would an OP argument beside --raw: the same usage error, naming --raw.
"$PREDLAB" query --socket "$NOSOCK" --raw '{"op":"stats"}' stats \
  2> _build/query-raw-args.err && probe_status=0 || probe_status=$?
test "$probe_status" -eq 2
grep -q -- '--raw' _build/query-raw-args.err
SOCK=_build/predlab-ci.sock
rm -f "$SOCK"
"$PREDLAB" serve --socket "$SOCK" --jobs 2 --conns 4 &
SERVE_PID=$!
"$PREDLAB" query --socket "$SOCK" eval clamp 0 0 > _build/serve-miss.json
grep -q '"cached": false' _build/serve-miss.json
"$PREDLAB" query --socket "$SOCK" eval clamp 0 0 > _build/serve-hit.json
grep -q '"cached": true' _build/serve-hit.json
"$PREDLAB" query --socket "$SOCK" stats > _build/serve-stats.json
hits=$(sed -n 's/^ *"memo_hits": \([0-9]*\),*$/\1/p' _build/serve-stats.json)
misses=$(sed -n 's/^ *"memo_misses": \([0-9]*\),*$/\1/p' _build/serve-stats.json)
test "$hits" -ge 1
test "$misses" -ge 1
# No close in the daemon found its descriptor already closed.
grep -q '"fd_errors": 0' _build/serve-stats.json
# Byte-identity: the daemon's sample/lint result documents are the CLI's.
"$PREDLAB" query --socket "$SOCK" sample clamp > _build/serve-sample.json
"$PREDLAB" sample --jobs 2 --format json clamp > _build/cli-sample.json
cmp _build/serve-sample.json _build/cli-sample.json
for op in lint certify; do
  "$PREDLAB" query --socket "$SOCK" "$op" clamp > "_build/serve-$op.json"
  "$PREDLAB" "$op" --format json clamp > "_build/cli-$op.json"
  cmp "_build/serve-$op.json" "_build/cli-$op.json"
done
# The daemon's regression gate: a report compared against itself passes.
"$PREDLAB" run --format json EQ4 > _build/serve-compare-base.json
"$PREDLAB" query --socket "$SOCK" compare \
  _build/serve-compare-base.json _build/serve-compare-base.json \
  > _build/serve-compare.json
grep -q '"passed": true' _build/serve-compare.json
# A per-request deadline overrun is classified, and the daemon survives it.
"$PREDLAB" query --socket "$SOCK" --deadline 0.000001 run EQ4 \
  > _build/serve-timeout.json && serve_status=0 || serve_status=$?
test "$serve_status" -eq 3
grep -q '"timed_out": 1' _build/serve-timeout.json
# An unknown experiment id is a usage error over the socket too (exit 2).
"$PREDLAB" query --socket "$SOCK" run NOSUCH 2> /dev/null \
  && unknown_status=0 || unknown_status=$?
test "$unknown_status" -eq 2
# A refusal without a status (an unknown op) is exit 1, and its message
# reaches stderr.
"$PREDLAB" query --socket "$SOCK" --raw '{"op":"frobnicate"}' \
  2> _build/serve-unknown-op.err && unknown_status=0 || unknown_status=$?
test "$unknown_status" -eq 1
grep -q 'unknown op "frobnicate"' _build/serve-unknown-op.err
# Concurrency: four simultaneous clients on the --conns 4 pool, each
# response byte-identical to the one-shot CLI document — worker domains
# share the engine table but never each other's responses.
PAR_PIDS=
for i in 1 2 3 4; do
  "$PREDLAB" query --socket "$SOCK" sample clamp > "_build/serve-par-$i.json" &
  PAR_PIDS="$PAR_PIDS $!"
done
for pid in $PAR_PIDS; do
  wait "$pid"
done
for i in 1 2 3 4; do
  cmp "_build/serve-par-$i.json" _build/cli-sample.json
done
"$PREDLAB" query --socket "$SOCK" shutdown > /dev/null
wait "$SERVE_PID"
test ! -e "$SOCK"

# Frame bound and graceful drain. A daemon with a small --max-frame must
# reject an over-cap request with the structured oversized envelope (exit
# 1, message names the cap) while staying alive for the next query; a
# SIGTERM must then drain it cleanly: exit 0 and the socket unlinked.
SOCK2=_build/predlab-ci-frame.sock
rm -f "$SOCK2"
"$PREDLAB" serve --socket "$SOCK2" --jobs 1 --conns 2 --max-frame 4096 &
FRAME_PID=$!
BIG=$(awk 'BEGIN { for (i = 0; i < 5000; i++) printf "x" }')
set +e
"$PREDLAB" query --socket "$SOCK2" certify "$BIG" 2> _build/serve-oversized.err
frame_status=$?
set -e
test "$frame_status" -eq 1
grep -q "frame exceeds 4096 bytes" _build/serve-oversized.err
"$PREDLAB" query --socket "$SOCK2" stats > _build/serve-frame-stats.json
grep -q '"oversized_frames": 1' _build/serve-frame-stats.json
grep -q '"fd_errors": 0' _build/serve-frame-stats.json
kill -TERM "$FRAME_PID"
wait "$FRAME_PID"
test ! -e "$SOCK2"

# Serve chaos gate: the seeded campaign (adversarial clients, armed
# serve.* fault sites) must report graceful degradation, exit 0.
"$PREDLAB" chaos --plane serve --seed 1

# Serve bench kernels (including the concurrent-throughput daemon round)
# must still run.
dune exec bench/main.exe -- --only SERVE
