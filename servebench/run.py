#!/usr/bin/env python3
"""Builds the serve benchmark from the source tree and runs one workload.

    python3 servebench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --self-check

The first form configures and builds servebench/ (a Release CMake build in
$CARGO_TARGET_DIR/servebench, default .bench_build/servebench, relative to
the repository root) and runs serve_bench. Its last stdout line is the result
JSON: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
The traced run also writes its spans as Chrome trace JSON under
<build>/spans/.

--self-check runs every workload of BENCHMARK.json on a few requests, traced
and untraced, and fails when a metric BENCHMARK.json names is missing, has
the wrong unit or is not finite, when a run is incorrect, or when a traced
share.residual is below -RESIDUAL_TOLERANCE.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
SELF_CHECK_REQUESTS = 24
RESIDUAL_TOLERANCE = 0.05


def log(message):
    print(f"servebench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "servebench"


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "serve_bench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "serve_bench"


def run_bench(binary, args):
    """Runs serve_bench; returns (exit code, stdout lines)."""
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def measure(binary, opts):
    args = [f"--workload={opts.workload}", f"--seed={opts.seed}",
            f"--seconds={opts.seconds}", f"--trace={opts.trace}"]
    if opts.trace == 1:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        args.append(f"--spans-out={spans / f'{opts.workload}-seed{opts.seed}.json'}")
    code, lines = run_bench(binary, args)
    for line in lines:
        print(line)
    return code


def check_metrics(result, declared, label):
    problems = []
    metrics = result.get("metrics", {})
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None:
            problems.append(f"{label}: {entry['name']} is missing")
        elif not got.get("unit") or got["unit"] != entry["unit"]:
            problems.append(f"{label}: {entry['name']} has unit "
                            f"{got.get('unit')!r}, expected {entry['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{label}: {entry['name']} is not finite")
    return problems


def self_check(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload['name']} trace={trace}"
            found = []
            code, lines = run_bench(binary, [
                f"--workload={workload['name']}", "--seed=1", "--seconds=1",
                f"--trace={trace}", f"--requests={SELF_CHECK_REQUESTS}"])
            if code != 0 or not lines:
                found.append(f"{label}: exit code {code}")
            else:
                result = json.loads(lines[-1])
                if not result.get("correct"):
                    found.append(f"{label}: run reported incorrect output")
                found += check_metrics(result, declared, label)
                residual = result["metrics"].get("share.residual", {})
                if trace == 1 and residual.get("value", 0) < -RESIDUAL_TOLERANCE:
                    found.append(f"{label}: share.residual "
                                 f"{residual['value']:.3f} is below "
                                 f"-{RESIDUAL_TOLERANCE}")
            log(f"self-check {label}: {'FAILED' if found else 'ok'}")
            problems += found
    for problem in problems:
        log(problem)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    opts = parser.parse_args()
    if not opts.self_check and (opts.workload is None or opts.seed is None):
        parser.error("--workload and --seed are required")
    try:
        binary = build()
        return self_check(binary) if opts.self_check else measure(binary, opts)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
