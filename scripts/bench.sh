#!/usr/bin/env bash
# Performance-trajectory harness: builds the benchmarks in a Release
# (-O2 -DNDEBUG) tree, runs bench/micro_scale, bench/micro_layout and
# bench/micro_schedulers, and diffs the fresh BENCH_sched_scale.json /
# BENCH_layout.json against the committed baselines in bench/. Exits
# non-zero when the schedule of measured cells changed shape, when the
# headline hdlts incremental speedup fell below the 5x acceptance bar, when
# any scheduler made a steady-state heap allocation, or when any scheduler
# cell regressed by more than the allowed factor (wall-clock comparisons
# across machines are noisy, so the factor is deliberately loose; override
# with HDLTS_BENCH_REGRESSION_FACTOR). Additionally gates the telemetry
# contract: the hdlts null-sink path (telemetry compiled in, no sink
# attached) must stay within HDLTS_NULL_SINK_FACTOR (default 1.02) of the
# committed baseline, and the recording-sink overhead is reported alongside.
#
# bench/micro_dynamic (compiled vs naive reference online/stream
# rescheduling) writes BENCH_dynamic.json: the compiled dynamic paths must
# stay allocation-free in steady state and the online path must hold
# >= HDLTS_MIN_DYNAMIC_SPEEDUP per dynamic decision over
# core::reference_online, which rebuilds a Problem per phase and rescans
# every row and timeline per decision. The reference's cost per decision
# grows with graph size, so the bar is set per shape: 9.5x at the full
# 1000-task shape, 4.9x at the 400-task smoke shape. Each is 3.0x the
# median ratio of the reference's cost per decision to that of the
# per-phase-rebuild path it replaced, so the earlier 3.0x bar over that
# path still holds (CHANGES.md records the runs).
#
# Also runs bench/micro_batch (svc::BatchEngine throughput scaling) and diffs
# BENCH_batch.json: per-thread-count req/s cells against the regression
# factor, plus the >=HDLTS_BATCH_SPEEDUP_MIN (default 3.0) scaling bar —
# binding whenever the host has >= 4 cores, measured at the widest thread
# row that fits within hardware_concurrency vs the 1-thread row (a 1-core
# container can prove determinism but not scaling; the gate says so and
# skips there).
#
# Usage: scripts/bench.sh [--update|--smoke]
#   --update  rewrite the committed baselines with the fresh measurements
#   --smoke   CI mode: identical cell shapes (the baseline diff needs them)
#             but fewer repetitions and loose wall-clock gates — shared
#             runners are slow and noisy, so smoke proves the benches run and
#             the structural contracts hold (zero allocs, determinism, cells
#             present), not the exact numbers. The ratio-based incremental
#             speedup gate is loosened, not dropped.
#
# Gate overrides (env):
#   HDLTS_BENCH_REGRESSION_FACTOR   per-cell wall-clock slack   (default 3.0)
#   HDLTS_NULL_SINK_FACTOR          null-sink telemetry slack   (default 1.02)
#   HDLTS_MIN_INCREMENTAL_SPEEDUP   hdlts-vs-reference bar      (default 5.0)
#   HDLTS_BATCH_SPEEDUP_MIN         batch hi-vs-1-thread bar    (default 3.0)
#   HDLTS_MIN_DYNAMIC_SPEEDUP       online compiled-vs-reference
#                                   ns/decision bar   (default 9.5, smoke 4.9)
#
# Tier-1 (`ctest`) is untouched: this script uses its own build directory.
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-}"
BUILD_DIR=build-bench
BASELINE=bench/BENCH_sched_scale.json
FRESH="${BUILD_DIR}/BENCH_sched_scale.json"
LAYOUT_BASELINE=bench/BENCH_layout.json
LAYOUT_FRESH="${BUILD_DIR}/BENCH_layout.json"
BATCH_BASELINE=bench/BENCH_batch.json
BATCH_FRESH="${BUILD_DIR}/BENCH_batch.json"
DYNAMIC_BASELINE=bench/BENCH_dynamic.json
DYNAMIC_FRESH="${BUILD_DIR}/BENCH_dynamic.json"

if [[ "${MODE}" == "--smoke" ]]; then
  # Reduced effort, same cell shapes. Each default below still honours an
  # explicit env override from the caller.
  export HDLTS_LAYOUT_REPS="${HDLTS_LAYOUT_REPS:-3}"
  # Enough requests per pass that the 4-thread row on a 4-core runner
  # clears the >=3x scaling bar reliably (the bar binds in smoke mode too):
  # on a shared 4-vCPU host, 24 requests read 2.6-3.2x and 200 read
  # 3.5-4.4x. A second rep lets best-of smooth a single noisy pass.
  export HDLTS_BATCH_REQUESTS="${HDLTS_BATCH_REQUESTS:-200}"
  export HDLTS_BATCH_REPS="${HDLTS_BATCH_REPS:-2}"
  export HDLTS_BENCH_MIN_TIME="${HDLTS_BENCH_MIN_TIME:-0.01}"
  # Smoke-sized dynamic cells: same two rows (the diff needs the shapes),
  # smaller graphs, where the reference scans shorter timelines — hence
  # the lower per-decision bar.
  export HDLTS_DYNAMIC_TASKS="${HDLTS_DYNAMIC_TASKS:-400}"
  export HDLTS_DYNAMIC_STREAM_TASKS="${HDLTS_DYNAMIC_STREAM_TASKS:-120}"
  export HDLTS_DYNAMIC_REPS="${HDLTS_DYNAMIC_REPS:-3}"
  FACTOR="${HDLTS_BENCH_REGRESSION_FACTOR:-25.0}"
  NULL_SINK_FACTOR="${HDLTS_NULL_SINK_FACTOR:-5.0}"
  MIN_INCREMENTAL="${HDLTS_MIN_INCREMENTAL_SPEEDUP:-3.0}"
  MIN_DYNAMIC="${HDLTS_MIN_DYNAMIC_SPEEDUP:-4.9}"
else
  FACTOR="${HDLTS_BENCH_REGRESSION_FACTOR:-3.0}"
  # Telemetry gate: the null-sink (default) hdlts path must stay within this
  # factor of the committed baseline — the "telemetry compiled in but off
  # adds <2%" contract. Skipped when the baseline predates the field.
  NULL_SINK_FACTOR="${HDLTS_NULL_SINK_FACTOR:-1.02}"
  MIN_INCREMENTAL="${HDLTS_MIN_INCREMENTAL_SPEEDUP:-5.0}"
  MIN_DYNAMIC="${HDLTS_MIN_DYNAMIC_SPEEDUP:-9.5}"
fi
BATCH_SPEEDUP_MIN="${HDLTS_BATCH_SPEEDUP_MIN:-3.0}"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" >/dev/null
cmake --build "${BUILD_DIR}" -j \
  --target micro_scale micro_layout micro_schedulers micro_batch \
  micro_dynamic >/dev/null

echo "== running bench/micro_scale (this builds the perf trajectory) =="
(cd "${BUILD_DIR}" && HDLTS_SCALE_JSON=BENCH_sched_scale.json \
  ./bench/micro_scale)

echo
echo "== running bench/micro_layout (steady-state ms + allocation counts) =="
# Wall-clock noise on shared machines easily exceeds the 2% telemetry bound,
# so the telemetry cells take the best (min) over three runs with a deep
# best-of per run; the scheduler cell diff uses the first run as before.
export HDLTS_LAYOUT_REPS="${HDLTS_LAYOUT_REPS:-25}"
(cd "${BUILD_DIR}" && HDLTS_LAYOUT_JSON=BENCH_layout.json \
  ./bench/micro_layout)
if command -v python3 >/dev/null 2>&1; then
  for extra in 2 3; do
    (cd "${BUILD_DIR}" && HDLTS_LAYOUT_JSON="BENCH_layout_run${extra}.json" \
      ./bench/micro_layout >/dev/null)
  done
  python3 - "${LAYOUT_FRESH}" "${BUILD_DIR}/BENCH_layout_run2.json" \
    "${BUILD_DIR}/BENCH_layout_run3.json" <<'EOF'
import json, sys
paths = sys.argv[1:]
docs = [json.load(open(p)) for p in paths]
doc = docs[0]
for key in ("hdlts_null_sink_ms", "hdlts_recording_ms"):
    doc[key] = min(d[key] for d in docs)
doc["hdlts_recording_overhead"] = (
    doc["hdlts_recording_ms"] / doc["hdlts_null_sink_ms"])
json.dump(doc, open(paths[0], "w"), indent=2)
EOF
fi

echo
echo "== running bench/micro_batch (svc::BatchEngine throughput scaling) =="
(cd "${BUILD_DIR}" && HDLTS_BATCH_JSON=BENCH_batch.json ./bench/micro_batch)

echo
echo "== running bench/micro_dynamic (compiled vs reference online/stream) =="
(cd "${BUILD_DIR}" && HDLTS_DYNAMIC_JSON=BENCH_dynamic.json \
  ./bench/micro_dynamic)

echo
echo "== running bench/micro_schedulers (google-benchmark sweep) =="
(cd "${BUILD_DIR}" && ./bench/micro_schedulers \
  --benchmark_min_time="${HDLTS_BENCH_MIN_TIME:-0.05}")

if [[ "${MODE}" == "--smoke" ]]; then
  echo
  echo "== running examples/stress_tool (monitored soak smoke) =="
  cmake --build "${BUILD_DIR}" -j --target stress_tool >/dev/null
  # Short mixed static/online soak with fault injection and every result
  # check-validated; the zero-violation SLO gates make this a correctness
  # smoke, not a wall-clock one (no throughput floor on shared runners).
  "${BUILD_DIR}/examples/stress_tool" --config="duration=${HDLTS_SOAK_SECONDS:-8},threads=2,problems=4,monitor_period=500,online_fraction=0.4,timeline=${BUILD_DIR}/soak_smoke.jsonl,prom=${BUILD_DIR}/soak_smoke.prom"
  # Validate the exposition output: promtool when the runner has it,
  # otherwise the strict line-grammar checker in scripts/.
  if command -v promtool >/dev/null 2>&1; then
    promtool check metrics < "${BUILD_DIR}/soak_smoke.prom"
  else
    python3 scripts/check_prom_format.py "${BUILD_DIR}/soak_smoke.prom"
  fi
fi

if [[ "${MODE}" == "--update" ]]; then
  cp "${FRESH}" "${BASELINE}"
  cp "${LAYOUT_FRESH}" "${LAYOUT_BASELINE}"
  cp "${BATCH_FRESH}" "${BATCH_BASELINE}"
  cp "${DYNAMIC_FRESH}" "${DYNAMIC_BASELINE}"
  echo "baselines updated: ${BASELINE}, ${LAYOUT_BASELINE}," \
       "${BATCH_BASELINE}, ${DYNAMIC_BASELINE}"
  exit 0
fi

if [[ ! -f "${BASELINE}" || ! -f "${LAYOUT_BASELINE}" \
      || ! -f "${BATCH_BASELINE}" || ! -f "${DYNAMIC_BASELINE}" ]]; then
  echo "no committed baselines in bench/; run scripts/bench.sh --update"
  exit 1
fi

if ! command -v python3 >/dev/null 2>&1; then
  echo "python3 unavailable; skipping the baseline diff (bench still ran)"
  exit 0
fi

# Every gate below runs even when an earlier one fails — `set -e` would
# otherwise abort at the first failing python block and the later gates
# (layout, batch, dynamic) would never run or report. Failures accumulate
# into GATE_FAILURES and the script exits non-zero if ANY gate failed.
GATE_FAILURES=0

python3 - "$BASELINE" "$FRESH" "$FACTOR" "$MIN_INCREMENTAL" <<'EOF' \
  || GATE_FAILURES=$((GATE_FAILURES + 1))
import json, sys

baseline_path, fresh_path, factor = sys.argv[1], sys.argv[2], float(sys.argv[3])
min_incremental = float(sys.argv[4])
baseline = json.load(open(baseline_path))
fresh = json.load(open(fresh_path))

def cells(doc):
    return {(r["tasks"], r["procs"], r["scheduler"]): r for r in doc["rows"]}

base_cells, fresh_cells = cells(baseline), cells(fresh)
failed = False

missing = sorted(set(base_cells) - set(fresh_cells))
added = sorted(set(fresh_cells) - set(base_cells))
if missing:
    print(f"FAIL: cells missing vs baseline: {missing}")
    failed = True
if added:
    print(f"note: new cells not in baseline: {added}")

speedup = fresh.get("hdlts_speedup_5k_32")
if speedup is None:
    print("FAIL: fresh run has no hdlts_speedup_5k_32 (reference not run?)")
    failed = True
elif speedup < min_incremental:
    print(f"FAIL: hdlts incremental speedup {speedup:.1f}x < "
          f"{min_incremental:.1f}x acceptance bar")
    failed = True
else:
    print(f"ok: hdlts incremental speedup {speedup:.1f}x (baseline "
          f"{baseline.get('hdlts_speedup_5k_32', float('nan')):.1f}x)")

worst = (None, 0.0)
for key in sorted(set(base_cells) & set(fresh_cells)):
    ratio = fresh_cells[key]["ms"] / base_cells[key]["ms"]
    if ratio > worst[1]:
        worst = (key, ratio)
    if ratio > factor:
        print(f"FAIL: {key} regressed {ratio:.2f}x vs baseline "
              f"({base_cells[key]['ms']:.2f} ms -> {fresh_cells[key]['ms']:.2f} ms)")
        failed = True
if worst[0] is not None:
    print(f"worst cell ratio vs baseline: {worst[0]} at {worst[1]:.2f}x "
          f"(allowed {factor:.1f}x)")

sys.exit(1 if failed else 0)
EOF

python3 - "$LAYOUT_BASELINE" "$LAYOUT_FRESH" "$FACTOR" "$NULL_SINK_FACTOR" \
  <<'EOF' || GATE_FAILURES=$((GATE_FAILURES + 1))
import json, sys

baseline_path, fresh_path, factor = sys.argv[1], sys.argv[2], float(sys.argv[3])
null_sink_factor = float(sys.argv[4])
baseline = json.load(open(baseline_path))
fresh = json.load(open(fresh_path))

def cells(doc):
    return {r["scheduler"]: r for r in doc["rows"]}

base_cells, fresh_cells = cells(baseline), cells(fresh)
failed = False

missing = sorted(set(base_cells) - set(fresh_cells))
if missing:
    print(f"FAIL: layout cells missing vs baseline: {missing}")
    failed = True

for name, row in sorted(fresh_cells.items()):
    if row["compiled_steady_allocs"] != 0:
        print(f"FAIL: {name} allocates in steady state "
              f"({row['compiled_steady_allocs']} allocs/call; contract is 0)")
        failed = True
    if name in base_cells:
        ratio = row["compiled_ms"] / base_cells[name]["compiled_ms"]
        if ratio > factor:
            print(f"FAIL: {name} compiled_ms regressed {ratio:.2f}x vs "
                  f"baseline ({base_cells[name]['compiled_ms']:.2f} ms -> "
                  f"{row['compiled_ms']:.2f} ms)")
            failed = True

if not failed:
    print("ok: layout cells present, compiled steady-state allocs all 0")

# Telemetry rows: null-sink (telemetry compiled in, no sink attached) vs a
# full RecordingTrace decision stream.
null_ms = fresh.get("hdlts_null_sink_ms")
rec_ms = fresh.get("hdlts_recording_ms")
rec_overhead = fresh.get("hdlts_recording_overhead")
if null_ms is None:
    print("FAIL: fresh run has no hdlts_null_sink_ms (telemetry bench not run?)")
    failed = True
else:
    print(f"telemetry: null-sink {null_ms:.3f} ms, recording "
          f"{rec_ms:.3f} ms ({rec_overhead:.2f}x)")
    base_null = baseline.get("hdlts_null_sink_ms")
    if base_null is None:
        print("note: baseline predates hdlts_null_sink_ms; null-sink gate "
              "skipped (run scripts/bench.sh --update)")
    else:
        ratio = null_ms / base_null
        if ratio > null_sink_factor:
            print(f"FAIL: hdlts null-sink path regressed {ratio:.3f}x vs "
                  f"baseline ({base_null:.3f} ms -> {null_ms:.3f} ms, "
                  f"allowed {null_sink_factor:.2f}x) — telemetry is leaking "
                  f"into the disabled path")
            failed = True
        else:
            print(f"ok: hdlts null-sink path at {ratio:.3f}x of baseline "
                  f"(allowed {null_sink_factor:.2f}x)")

sys.exit(1 if failed else 0)
EOF

python3 - "$BATCH_BASELINE" "$BATCH_FRESH" "$FACTOR" "$BATCH_SPEEDUP_MIN" <<'EOF' \
  || GATE_FAILURES=$((GATE_FAILURES + 1))
import json, sys

baseline_path, fresh_path, factor = sys.argv[1], sys.argv[2], float(sys.argv[3])
speedup_min = float(sys.argv[4])
baseline = json.load(open(baseline_path))
fresh = json.load(open(fresh_path))

def cells(doc):
    return {r["threads"]: r for r in doc["rows"]}

base_cells, fresh_cells = cells(baseline), cells(fresh)
failed = False

missing = sorted(set(base_cells) - set(fresh_cells))
if missing:
    print(f"FAIL: batch thread-count cells missing vs baseline: {missing}")
    failed = True

# Throughput regression per thread-count cell (higher rps is better, so the
# gate is on base/fresh). Requests-per-pass may differ between baseline and
# a smoke run; rps normalises that away.
for threads in sorted(set(base_cells) & set(fresh_cells)):
    ratio = base_cells[threads]["rps"] / fresh_cells[threads]["rps"]
    if ratio > factor:
        print(f"FAIL: batch throughput at {threads} threads regressed "
              f"{ratio:.2f}x vs baseline ({base_cells[threads]['rps']:.0f} "
              f"-> {fresh_cells[threads]['rps']:.0f} req/s)")
        failed = True

# The scaling bar needs real cores: a 1-core container runs the 8-thread row
# (the determinism check inside micro_batch is just as strong there) but its
# speedup number is oversubscription noise. The gate binds whenever the host
# has >= 4 cores, using the WIDEST thread row that still fits in the cores —
# a 4-core runner is judged on its 4-thread row even though the sweep also
# ran (and oversubscribed) the 8-thread row.
hardware = fresh.get("hardware_concurrency", 0)
lo = fresh.get("threads_lo", 0)
fitting = [t for t in fresh_cells if lo < t <= hardware]
if hardware >= 4 and lo in fresh_cells and fitting:
    widest = max(fitting)
    speedup = fresh_cells[widest]["rps"] / fresh_cells[lo]["rps"]
    if speedup < speedup_min:
        print(f"FAIL: batch throughput speedup {speedup:.2f}x at {widest} vs "
              f"{lo} threads < {speedup_min:.1f}x bar (host has {hardware} "
              f"cores)")
        failed = True
    else:
        print(f"ok: batch throughput speedup {speedup:.2f}x at {widest} vs "
              f"{lo} threads (bar {speedup_min:.1f}x, host has {hardware} "
              f"cores)")
else:
    speedup = fresh.get("batch_speedup", 0.0)
    print(f"note: host has {hardware} cores (< 4, or no multi-thread row "
          f"fits) — batch scaling bar skipped (full-sweep speedup "
          f"{speedup:.2f}x, not meaningful here)")

sys.exit(1 if failed else 0)
EOF
python3 - "$DYNAMIC_BASELINE" "$DYNAMIC_FRESH" "$FACTOR" "$MIN_DYNAMIC" <<'PYEOF' \
  || GATE_FAILURES=$((GATE_FAILURES + 1))
import json, sys

baseline_path, fresh_path, factor = sys.argv[1], sys.argv[2], float(sys.argv[3])
min_dynamic = float(sys.argv[4])
baseline = json.load(open(baseline_path))
fresh = json.load(open(fresh_path))

def cells(doc):
    return {r["path"]: r for r in doc["rows"]}

base_cells, fresh_cells = cells(baseline), cells(fresh)
failed = False

missing = sorted(set(base_cells) - set(fresh_cells))
if missing:
    print(f"FAIL: dynamic cells missing vs baseline: {missing}")
    failed = True

for name, row in sorted(fresh_cells.items()):
    if row["compiled_steady_allocs"] != 0:
        print(f"FAIL: dynamic {name} compiled path allocates in steady "
              f"state ({row['compiled_steady_allocs']} allocs/call; "
              f"contract is 0)")
        failed = True
    if name in base_cells:
        ratio = row["compiled_ms"] / base_cells[name]["compiled_ms"]
        # Smoke runs use smaller graphs, so only flag wall-clock regressions
        # when the cell shape (tasks) matches the committed baseline.
        if row.get("tasks") == base_cells[name].get("tasks") and ratio > factor:
            print(f"FAIL: dynamic {name} compiled_ms regressed {ratio:.2f}x "
                  f"vs baseline ({base_cells[name]['compiled_ms']:.2f} ms -> "
                  f"{row['compiled_ms']:.2f} ms)")
            failed = True

speedup = fresh.get("online_dynamic_speedup", 0.0)
if speedup < min_dynamic:
    print(f"FAIL: online dynamic speedup {speedup:.2f}x < "
          f"{min_dynamic:.1f}x acceptance bar (ns/decision, compiled vs "
          f"reference)")
    failed = True
else:
    print(f"ok: online dynamic speedup {speedup:.2f}x (baseline "
          f"{baseline.get('online_dynamic_speedup', float('nan')):.2f}x), "
          f"stream {fresh.get('stream_dynamic_speedup', 0.0):.2f}x, "
          f"compiled steady-state allocs all 0")

sys.exit(1 if failed else 0)
PYEOF

if [[ "${GATE_FAILURES}" -gt 0 ]]; then
  echo "== bench diff FAILED: ${GATE_FAILURES} gate(s) tripped =="
  exit 1
fi
echo "== bench diff ok =="
