#!/usr/bin/env bash
# Offline CI: formatting, lints, build, and the full test suite.
# Everything below runs with no network.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== panic-site ratchet: non-test panic sites may only go down =="
# Counts .unwrap() / .expect( / panic!( / unreachable!( / todo!( /
# unimplemented!( and the assert family (assert!( / assert_eq!( /
# assert_ne!( and their debug_ forms) in crates/*/src, in each file's
# lines before its first #[cfg(test)], skipping // comment lines (doc
# examples included). Lower PANIC_SITES_MAX when the count falls.
PANIC_SITES_MAX=128
panic_sites=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_test = 0 }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && !/^[ \t]*\/\// {
        line = $0
        n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\(|unimplemented!\(|(debug_)?assert(_eq|_ne)?!\(/, "", line)
    }
    END { print n + 0 }')
echo "non-test panic sites: $panic_sites (max $PANIC_SITES_MAX)"
test "$panic_sites" -le "$PANIC_SITES_MAX"

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== window stream: the two-thread tests, repeated to shake out ordering races =="
# The window-stream tests race the producer thread against the decision
# loop (which fills windows itself when the producer is behind), and
# each run interleaves them differently; skip_window's exactness
# property checks the draw-only pass the producer plans with, and the
# window-book tests check that a run reading the windows another run
# drew and booked renders that run's bits. A hundred rounds of the
# core::windows tests, the zero-allocation stream and book tests and the
# skip_window property take 15–30 s on two vCPUs; the engine's book
# tests, about 70 runs a round (3.5 s), run in every fifth round.
mkdir -p target/ci
for round in $(seq 100); do
    for filter in "-p thermogater --lib windows::" "--test zero_alloc a_window_stream" \
        "--test zero_alloc a_booked_window" "-p workload --lib skip_window" \
        "-p thermogater --lib -- engine::tests::interleaved_policies engine::tests::the_spec_table"; do
        if [[ $filter == *engine::tests* ]] && ((round % 5 != 0)); then
            continue
        fi
        # shellcheck disable=SC2086 # each filter is several words
        cargo test --release -q $filter > target/ci/window_races.txt 2>&1 ||
            { cat target/ci/window_races.txt; exit 1; }
    done
done

echo "== telemetry smoke: traced run + machine-readable validation =="
TELEMETRY_DIR="$(mktemp -d)"
trap 'rm -rf "$TELEMETRY_DIR"' EXIT
cargo run --release -q -p experiments --bin simulate -- \
    --bench lu_ncb --policy oracvt --duration-ms 3 --grid 32 --windows 4 \
    --frames 25 --quiet --telemetry="$TELEMETRY_DIR"
test -s "$TELEMETRY_DIR/trace.jsonl"
test -s "$TELEMETRY_DIR/manifest.json"
# One run replays one trace: a calibrated synthetic run generates it once.
test "$(grep -c '"name":"workload.trace"' "$TELEMETRY_DIR/trace.jsonl")" -eq 1
cargo run --release -q -p experiments --bin tg-obs -- validate "$TELEMETRY_DIR" \
    --require span_start,span_end,counter,gauge,histogram,gating,emergency,solve,progress,frame

echo "== tg-obs: summarize, export =="
cargo run --release -q -p experiments --bin tg-obs -- summarize "$TELEMETRY_DIR"
cargo run --release -q -p experiments --bin tg-obs -- export "$TELEMETRY_DIR" \
    --out "$TELEMETRY_DIR/series.csv"
test -s "$TELEMETRY_DIR/series.csv"

echo "== tg-obs: live leg (watch determinism, rules gating, --json, run diff) =="
TG_OBS="$PWD/target/release/tg-obs"
RULES_SMOKE="$PWD/crates/experiments/tests/fixtures/rules_smoke.json"
RULES_FAILING="$PWD/crates/experiments/tests/fixtures/rules_failing.json"
# Two identical smoke runs in separate parent dirs: watch is
# invoked from each parent with the same relative path so the rendered
# `run:` header matches between them.
mkdir -p "$TELEMETRY_DIR/wa" "$TELEMETRY_DIR/wb"
for w in wa wb; do
    cargo run --release -q -p experiments --bin simulate -- \
        --bench lu_ncb --policy oracvt --duration-ms 3 --grid 32 --windows 4 \
        --frames 25 --quiet --telemetry="$TELEMETRY_DIR/$w/run"
done
for w in wa wb; do
    (cd "$TELEMETRY_DIR/$w" && "$TG_OBS" watch run --once \
        --rules "$RULES_SMOKE" --status-every 100 > watch.txt)
    # The final summary below the marker is byte-identical to batch
    # summarize on the same finished trace.
    sed '1,/^--- summary ---$/d' "$TELEMETRY_DIR/$w/watch.txt" > "$TELEMETRY_DIR/$w/watch_tail.txt"
    (cd "$TELEMETRY_DIR/$w" && "$TG_OBS" summarize run > summarize.txt)
    cmp "$TELEMETRY_DIR/$w/watch_tail.txt" "$TELEMETRY_DIR/$w/summarize.txt"
done
# The watch section (status lines + rule tallies) contains only
# deterministic aggregates — never wall-clock — so it must render
# byte-identically across the two independent runs.
sed -n '1,/^--- summary ---$/p' "$TELEMETRY_DIR/wa/watch.txt" > "$TELEMETRY_DIR/head_a.txt"
sed -n '1,/^--- summary ---$/p' "$TELEMETRY_DIR/wb/watch.txt" > "$TELEMETRY_DIR/head_b.txt"
cmp "$TELEMETRY_DIR/head_a.txt" "$TELEMETRY_DIR/head_b.txt"
# check: the committed smoke rules pass the smoke run (exit 0)…
"$TG_OBS" check "$TELEMETRY_DIR/wa/run" --rules "$RULES_SMOKE"
# …and the deliberately-failing rules file must exit exactly 1 (a rule
# violation, not a usage error) naming the failed rules on stderr.
set +e
"$TG_OBS" check "$TELEMETRY_DIR/wa/run" --rules "$RULES_FAILING" \
    > "$TELEMETRY_DIR/check_fail.txt" 2> "$TELEMETRY_DIR/check_fail.err"
rc=$?
set -e
test "$rc" -eq 1
grep -q '^failed: unreachable-event-count$' "$TELEMETRY_DIR/check_fail.err"
# summarize --json: stable machine-readable summary, identical across
# invocations of the same trace.
"$TG_OBS" summarize "$TELEMETRY_DIR/wa/run" --json --out "$TELEMETRY_DIR/sum_a.json"
"$TG_OBS" summarize "$TELEMETRY_DIR/wa/run" --json --out "$TELEMETRY_DIR/sum_b.json"
cmp "$TELEMETRY_DIR/sum_a.json" "$TELEMETRY_DIR/sum_b.json"
grep -q '"schema":"thermogater.summary/v1"' "$TELEMETRY_DIR/sum_a.json"
# diff: the two independent seeded runs (frames on) gate clean, since
# every counter and count they emit is deterministic.
"$TG_OBS" diff "$TELEMETRY_DIR/wa/run" "$TELEMETRY_DIR/wb/run"

echo "== tg-obs: timeline/flame/top (Perfetto export + deterministic profiler) =="
# timeline must emit Chrome Trace JSON (validated internally before it
# is written; the grep is a belt-and-braces shape check), flame must
# emit non-empty collapsed stacks, and the structural `top` report must
# be byte-identical across two identical seeded runs.
cargo run --release -q -p experiments --bin tg-obs -- timeline "$TELEMETRY_DIR" \
    --out "$TELEMETRY_DIR/timeline.json"
grep -q '"traceEvents"' "$TELEMETRY_DIR/timeline.json"
cargo run --release -q -p experiments --bin tg-obs -- flame "$TELEMETRY_DIR" \
    --out "$TELEMETRY_DIR/profile.folded"
test -s "$TELEMETRY_DIR/profile.folded"
mkdir -p "$TELEMETRY_DIR/rerun"
cargo run --release -q -p experiments --bin simulate -- \
    --bench lu_ncb --policy oracvt --duration-ms 3 --grid 32 --windows 4 \
    --frames 25 --quiet --telemetry="$TELEMETRY_DIR/rerun"
cargo run --release -q -p experiments --bin tg-obs -- top "$TELEMETRY_DIR" \
    --out "$TELEMETRY_DIR/top_a.txt"
cargo run --release -q -p experiments --bin tg-obs -- top "$TELEMETRY_DIR/rerun" \
    --out "$TELEMETRY_DIR/top_b.txt"
cmp "$TELEMETRY_DIR/top_a.txt" "$TELEMETRY_DIR/top_b.txt"

echo "== tg-serve: content-addressed scenario service (cold vs warm batch) =="
# The full 14 × 8 tiny grid as a request file: the cold pass simulates
# all 112 scenarios, the warm pass must answer every one from the
# content-addressed cache — byte-identical stdout and, per the trace's
# serve.* counters, zero engine executions.
SERVE_DIR="$TELEMETRY_DIR/serve"
mkdir -p "$SERVE_DIR"
for b in barnes chol fft fmm lu_cb lu_ncb oc_cp oc_ncp radio radix rayt volr water_n water_s; do
    for p in naive oract oracv oracvt pract pracvt allon offchip; do
        echo "$b $p"
    done
done > "$SERVE_DIR/batch.txt"
cargo build --release -q -p experiments --bin tg-serve
TG_SERVE="$PWD/target/release/tg-serve"
"$TG_SERVE" --batch="$SERVE_DIR/batch.txt" --tiny --quiet \
    --cache="$SERVE_DIR/cache" --telemetry="$SERVE_DIR/cold" \
    > "$SERVE_DIR/cold.txt" 2> "$SERVE_DIR/cold.err"
grep -q 'scenarios=112 hits=0 misses=112' "$SERVE_DIR/cold.err"
# The cold trace interleaves 112 cells on per-cell tracks: spans must
# pair per (track, name) and the manifest must count every line.
"$PWD/target/release/tg-obs" validate "$SERVE_DIR/cold" \
    --require span_start,span_end,counter,gauge,histogram,gating,emergency,solve,progress
"$TG_SERVE" --batch="$SERVE_DIR/batch.txt" --tiny --quiet \
    --cache="$SERVE_DIR/cache" --telemetry="$SERVE_DIR/warm" \
    > "$SERVE_DIR/warm.txt" 2> "$SERVE_DIR/warm.err"
cmp "$SERVE_DIR/cold.txt" "$SERVE_DIR/warm.txt"
grep -q 'scenarios=112 hits=112 misses=0 coalesced=0 invalid=0' "$SERVE_DIR/warm.err"
# The warm trace itself proves zero engine runs.
grep -q '"name":"serve.misses","delta":0' "$SERVE_DIR/warm/trace.jsonl"
grep -q '"name":"serve.hits","delta":112' "$SERVE_DIR/warm/trace.jsonl"
# A request no engine can run is a malformed line, not a crash: the line
# after it is still answered (from the warm cache), and the exit is 2.
set +e
printf 'lu_ncb allon grid=0\nfft allon\n' | "$TG_SERVE" --tiny --threads=1 --quiet \
    --cache="$SERVE_DIR/cache" > "$SERVE_DIR/bad.txt" 2> "$SERVE_DIR/bad.err"
rc=$?
set -e
test "$rc" -eq 2
grep -q 'malformed request "lu_ncb allon grid=0"' "$SERVE_DIR/bad.err"
test "$(wc -l < "$SERVE_DIR/bad.txt")" -eq 1

echo "== repro: the artefact registry renders its output deterministically =="
# Two passes over every artefact at the tiny config (the second from a
# warm sweep cache) must print byte-identical output, detail tables and
# summary table alike; the summary has one row per registry entry (the
# ids `--help` lists, in order), and an unknown id is a usage error.
mkdir -p target/ci
cargo build --release -q -p experiments --bin repro
REPRO="$PWD/target/release/repro"
"$REPRO" all --tiny > target/ci/repro_a.md 2> target/ci/repro_a.err
"$REPRO" all --tiny > target/ci/repro_b.md 2> target/ci/repro_b.err
cmp target/ci/repro_a.md target/ci/repro_b.md
"$REPRO" --help | sed -n 's/^ids: //p' | tr ' ' '\n' > target/ci/repro_ids.txt
sed -n '/^| ID |/,$p' target/ci/repro_a.md | tail -n +3 | cut -d '|' -f 2 | tr -d ' ' \
    > target/ci/repro_rows.txt
cmp target/ci/repro_ids.txt target/ci/repro_rows.txt
set +e
"$REPRO" nope > /dev/null 2> target/ci/repro_nope.err
rc=$?
set -e
test "$rc" -eq 2
grep -q 'ablation_vr_count' target/ci/repro_nope.err

echo "== repro: a cold standard run prints EXPERIMENTS.md's summary table =="
# EXPERIMENTS.md's summary table is what `repro all --quiet` prints at the
# standard configuration from an empty sweep cache. A change that moves a
# cell regenerates the table in the same change, and this diff shows it.
rm -rf target/experiments/full
"$REPRO" all --quiet > target/ci/repro_full.md 2> target/ci/repro_full.err
sed -n '/^| ID |/,/^$/p' EXPERIMENTS.md | sed '/^$/d' > target/ci/experiments_table.md
diff target/ci/experiments_table.md target/ci/repro_full.md

echo "== tg-obs: perf snapshot gated against the committed BENCH_ref.json =="
# The capture takes the reference's policies and grids, so every axis is
# shared: solver solve and iteration counts must match the reference
# exactly, wall-clock rows are informational, and peak RSS gates loosely.
# A change that moves a count on purpose re-captures BENCH_ref.json with
# these flags. --grids adds the steady-solve grid-scaling axis
# (cg/mgcg/direct per grid edge; 208 is the finest grid
# tests/obs_analyze.rs checks the multigrid win at).
cargo run --release -q -p experiments --bin tg-obs -- bench-snapshot \
    --label ci --policies allon,oract,pracvt --out target/ci \
    --grids 64,128,208
cargo run --release -q -p experiments --bin tg-obs -- \
    diff BENCH_ref.json target/ci/BENCH_ci.json

echo "== tg-verify: physics oracles + corpus replay (determinism via cmp) =="
cargo run --release -q -p experiments --bin tg-verify -- \
    --fast --seed=0xC1 --threads=2 --report=target/ci/verify_a.txt
cargo run --release -q -p experiments --bin tg-verify -- \
    --fast --seed=0xC1 --threads=2 --report=target/ci/verify_b.txt
cmp target/ci/verify_a.txt target/ci/verify_b.txt
# The separable di/dt differential must be registered and passing, so it
# cannot silently drop out of run_all.
grep -q '^ok   diff.noise_separable_vs_direct ' target/ci/verify_a.txt
# Likewise the matrix-free thermal stencil against the assembled CSR system.
grep -q '^ok   diff.thermal_stencil_vs_csr ' target/ci/verify_a.txt
# Likewise the superposed IR drops against fresh direct solves.
grep -q '^ok   diff.ir_superposition_vs_solve ' target/ci/verify_a.txt
# Likewise multigrid-CG against Jacobi-CG on the real model matrices.
grep -q '^ok   diff.mgcg_vs_cg ' target/ci/verify_a.txt

echo "== tg-verify: an unknown SIMKIT_SOLVER is a usage error (exit 2) =="
# gs named the Gauss–Seidel backend, which no longer exists; it must be
# rejected loudly rather than silently run under Auto.
set +e
SIMKIT_SOLVER=gs target/release/tg-verify --fast > /dev/null 2> target/ci/verify_gs.err
rc=$?
set -e
test "$rc" -eq 2
grep -q 'auto | direct | cg | mgcg' target/ci/verify_gs.err

echo "== repro: a malformed SIMKIT_THREADS is a usage error (exit 2) =="
# A typo in the thread count must not silently fall back to every core.
set +e
SIMKIT_THREADS=abc "$REPRO" fig01 --quiet > /dev/null 2> target/ci/repro_threads.err
rc=$?
set -e
test "$rc" -eq 2
grep -q 'SIMKIT_THREADS' target/ci/repro_threads.err

echo "== tg-verify: pinned solver backends (direct, cg, mgcg must all pass) =="
# The default leg above runs under Auto; these pin the direct LDLT path,
# the Jacobi-CG path, and the multigrid-CG path end-to-end, so every
# oracle (including the serial-vs-parallel sweep with per-engine factor
# caches) is exercised against each solver family.
SIMKIT_SOLVER=direct cargo run --release -q -p experiments --bin tg-verify -- \
    --fast --seed=0xC1 --threads=2 --report=target/ci/verify_direct.txt
SIMKIT_SOLVER=cg cargo run --release -q -p experiments --bin tg-verify -- \
    --fast --seed=0xC1 --threads=2 --report=target/ci/verify_cg.txt
SIMKIT_SOLVER=mgcg cargo run --release -q -p experiments --bin tg-verify -- \
    --fast --seed=0xC1 --threads=2 --report=target/ci/verify_mgcg.txt

echo "== tg-verify: no-sweep report determinism under mgcg/direct (double-run cmp) =="
# Every oracle, with its pinned corpus boundaries, must render a
# byte-identical report across two runs under each pinned solver
# backend.
for backend in mgcg direct; do
    SIMKIT_SOLVER=$backend cargo run --release -q -p experiments --bin tg-verify -- \
        --fast --no-sweep --seed=0xC9 --threads=2 \
        --report="target/ci/verify_nosweep_${backend}_a.txt"
    SIMKIT_SOLVER=$backend cargo run --release -q -p experiments --bin tg-verify -- \
        --fast --no-sweep --seed=0xC9 --threads=2 \
        --report="target/ci/verify_nosweep_${backend}_b.txt"
    cmp "target/ci/verify_nosweep_${backend}_a.txt" "target/ci/verify_nosweep_${backend}_b.txt"
done

echo "== engine equivalence under mgcg (the pinned backend test leg) =="
# run_emits_telemetry_and_solver_profile asserts the transient steps
# report thermal.transient_cg under every backend and the PDN solves
# carry the backend SIMKIT_SOLVER resolves to (pdn.ir_mgcg here);
# solver_backends_agree_over_a_full_run re-checks the cross-backend
# physics equality from a process whose default is mgcg.
SIMKIT_SOLVER=mgcg cargo test --release -q -p thermogater -- \
    run_emits_telemetry_and_solver_profile solver_backends_agree_over_a_full_run

echo "== cross-backend run diff: cg vs direct vs mgcg must agree on the physics =="
# Same trace, same policy, different solver families: the solver-agnostic
# diff gates on identical event structure, gating decisions, emergency
# behaviour, and per-system solve counts, with simulation metrics within
# 1e-6 relative (measured agreement is ~6e-9 — see BENCH.md).
mkdir -p "$TELEMETRY_DIR/cg" "$TELEMETRY_DIR/direct" "$TELEMETRY_DIR/mgcg"
for backend in cg direct mgcg; do
    SIMKIT_SOLVER=$backend cargo run --release -q -p experiments --bin simulate -- \
        --bench lu_ncb --policy oracvt --duration-ms 3 --grid 32 --windows 4 \
        --quiet --telemetry="$TELEMETRY_DIR/$backend"
done
cargo run --release -q -p experiments --bin tg-obs -- diff --solver-agnostic \
    "$TELEMETRY_DIR/cg" "$TELEMETRY_DIR/direct"
cargo run --release -q -p experiments --bin tg-obs -- diff --solver-agnostic \
    "$TELEMETRY_DIR/cg" "$TELEMETRY_DIR/mgcg"

echo "== benchmark smoke: every workload's outputs match benchmark/expected =="
bash benchmark/run.sh --smoke

echo "CI OK"
