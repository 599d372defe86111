#!/usr/bin/env bash
# Tier-1 verify plus the api parity suite. CI entry point; also the local
# pre-push check:   ./scripts/check.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# Static tier first — cheapest signal, no build needed. The determinism
# lint guards the bit-identical-results contract (unordered iteration,
# unseeded randomness, aborts on user-input paths, unexercised fault
# points, raw materialization in fused stages); the format check covers files changed vs origin/main
# and skips gracefully where clang-format isn't installed.
python3 scripts/lint_determinism.py
./scripts/format.sh --check

# Reconfigure with the bench option pinned ON: a cached build dir can carry
# VERTEXICA_BUILD_BENCHES=OFF from a sanitizer configure, and a later
# `--target bench_<name>` then silently no-ops (the output binary in the
# build root shadows the phony target name), leaving stale bench binaries
# behind the BENCH_*.json copy step below. Always full-build for the same
# reason — never per-target.
cmake -B "$BUILD_DIR" -S . -DVERTEXICA_BUILD_BENCHES=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Full suite (tier-1) twice: once fully serial (VERTEXICA_THREADS=1) and
# once at default parallelism, so the morsel executor's serial and parallel
# paths are both exercised. Then the backend-parity suite by name so a
# parity regression is unmistakable in the log even when other suites also
# fail.
(cd "$BUILD_DIR" && VERTEXICA_THREADS=1 ctest --output-on-failure -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")
(cd "$BUILD_DIR" && ctest -R api_ --output-on-failure)

# Storage property suites with the segment-encoding knob forced off and on
# (docs/STORAGE.md): encode/decode and zone-map pruning must be
# value-neutral in both worlds, and the csv/exec/vertexica paths must not
# care how the engine tables are physically stored.
(cd "$BUILD_DIR" && VERTEXICA_ENCODING=off \
    ctest -R 'storage_test|csv_test|exec_test|api_test|vertexica_test' \
    --output-on-failure -j "$(nproc)")
(cd "$BUILD_DIR" && VERTEXICA_ENCODING=force \
    ctest -R 'storage_test|csv_test|exec_test|api_test|vertexica_test' \
    --output-on-failure -j "$(nproc)")

# The exec/vertexica/sqlgraph suites once more with the fused
# selection-vector σ/π core and the fused join → project → aggregate
# pipeline off: pinning the interpreter and the three-operator path must
# leave every expectation bit-identical, the SQL golden digests included
# (docs/EXECUTOR.md, "Selection-vector batches" and "Join → project →
# aggregate").
(cd "$BUILD_DIR" && VERTEXICA_VECTORIZED=off \
    ctest -R 'exec_test|vertexica_test|api_test|sqlgraph_test' \
    --output-on-failure -j "$(nproc)")

# The frontier knob both ways: the active-vertex sparse dataflow must be
# bit-identical to the dense path (docs/EXECUTOR.md), so every expectation
# has to hold with the frontier pinned off and with it forced on wherever
# structurally possible.
(cd "$BUILD_DIR" && VERTEXICA_FRONTIER=off \
    ctest -R 'vertexica_test|api_test|server_test|extensions_test' \
    --output-on-failure -j "$(nproc)")
(cd "$BUILD_DIR" && VERTEXICA_FRONTIER=on \
    ctest -R 'vertexica_test|api_test|server_test|extensions_test' \
    --output-on-failure -j "$(nproc)")

# The serving subsystem by name (docs/SERVER.md): concurrent clients with
# differing per-request knobs on one EngineServer must stay bit-identical
# to serial runs, sessions must stay pinned across graph updates, and the
# admission controller must never oversubscribe. Run once at default
# parallelism and once with a multi-thread pool so the admission budget is
# exercised above 1 even on single-core runners. Then the vertexica_server
# binary end-to-end: a real mixed workload from 4 client threads must
# complete with zero failures.
(cd "$BUILD_DIR" && ctest -R server_ --output-on-failure)
(cd "$BUILD_DIR" && VERTEXICA_THREADS=4 ctest -R server_ --output-on-failure)
"$BUILD_DIR"/vertexica_server --vertices=500 --edges=2500 --clients=4 \
    --requests=2 > /dev/null

# The end-to-end benchmark's own selftest (perfbench/README.md): the only
# check of the benchmark's correctness gate against real engine results.
# Builds perfbench/ into .bench_build/ (gitignored) on first use.
python3 perfbench/run.py --selftest

# Fault-injection pass (docs/DEVELOPING.md, "Fault injection & recovery"):
# the in-process arming API is covered by the regular suites above; this
# pass proves the *environment* arming path fires in a fresh process. The
# FaultEnv tests skip unless VERTEXICA_FAULTS names their site, so the
# binary is invoked directly with the filter — ctest registers whole
# binaries and would arm the fault for every unrelated test too.
VERTEXICA_FAULTS="checkpoint.after_manifest=1:error" \
    "$BUILD_DIR"/tests/extensions_test --gtest_filter='FaultEnvTest.*'

# Crash-recovery smoke: kill a checkpointing run mid-save (simulated crash
# via fault injection, then a raw SIGKILL) and require the restored +
# resumed values to be bit-identical to an uninterrupted run.
./scripts/crash_recovery_smoke.sh "$BUILD_DIR"

# Invariant-audit pass (docs/DEVELOPING.md): a Debug build with
# VERTEXICA_DCHECK=ON compiles in the deep structural validators
# (Column/Table/Bitvector/CsrIndex CheckInvariants) at every dataflow phase
# boundary, then runs the full suite plus the knob-forcing env passes — any
# table or index that lies about its structure aborts with a precise
# message instead of surfacing as a wrong answer. Tests only: the audit
# tier is about correctness claims, not bench numbers.
DCHECK_DIR="${BUILD_DIR}-dcheck"
cmake -B "$DCHECK_DIR" -S . -DCMAKE_BUILD_TYPE=Debug -DVERTEXICA_DCHECK=ON \
    -DVERTEXICA_BUILD_BENCHES=OFF -DVERTEXICA_BUILD_EXAMPLES=OFF
cmake --build "$DCHECK_DIR" -j "$(nproc)"
(cd "$DCHECK_DIR" && ctest --output-on-failure -j "$(nproc)")
(cd "$DCHECK_DIR" && VERTEXICA_ENCODING=force \
    ctest -R 'storage_test|exec_test|vertexica_test' --output-on-failure \
    -j "$(nproc)")
(cd "$DCHECK_DIR" && VERTEXICA_FRONTIER=on \
    ctest -R 'vertexica_test|api_test' --output-on-failure -j "$(nproc)")

# Perf trajectory: surface bench JSONs at the repo root so they get
# committed / uploaded as artifacts. Bench binaries write BENCH_*.json
# into their cwd (the build dir), which is gitignored — without this copy
# the bench history stays empty. Only newer-than-committed results move
# (never resurrect a stale build-dir JSON over fresher history); run the
# benches unfiltered before check.sh to refresh a figure.
for f in "$BUILD_DIR"/BENCH_*.json; do
  [ -e "$f" ] || continue
  dest="./$(basename "$f")"
  if [ ! -e "$dest" ] || [ "$f" -nt "$dest" ]; then
    cp "$f" "$dest"
  fi
done

echo "check.sh: all green"
