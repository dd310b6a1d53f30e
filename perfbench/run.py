#!/usr/bin/env python3
"""Entry point of the errorflow benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the runner and the program's libraries from this checkout's sources
into <checkout>/.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench),
trains the model cache there once, runs one workload and prints its result
as one JSON object on the last line of stdout. Build logs and diagnostics go
to stderr. Exits non-zero without a result when anything fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd, timeout):
    """Runs a build or preparation step with its output on stderr."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build(out):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("no program sources in this checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    # Configured on every run (a second or two with a cache) so that a build
    # tree left by another version of perfbench/ picks up its targets.
    run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_logged(["cmake", "--build", str(out), "--target", "perfbench_runner",
                "-j", jobs], timeout=1500)
    runner = out / "perfbench_runner"
    models = out / "models"
    stamp = models / ".prepared"
    if not stamp.is_file():
        # Trains h2, borghesi and eurosat with this checkout's own code.
        run_logged([str(runner), "prepare", "--models", str(models)],
                   timeout=1500)
        stamp.touch()
    return runner, models


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.selftest and args.workload not in workloads:
        fail(f"--workload must be one of {workloads}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runner, models = build(build_dir())
    if args.selftest:
        sys.exit(subprocess.run([str(runner), "selftest", "--models",
                                 str(models)], timeout=RUN_TIMEOUT_S).returncode)

    cmd = [str(runner), "run", "--models", str(models), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"runner exited {proc.returncode} without a result")
    result = json.loads(lines[-1])

    # The runner's metric names must be exactly the ones BENCHMARK.json
    # declares. In a traced run, a layer the workload never calls reads 0.
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in declared})
    if unknown:
        fail(f"runner reported undeclared metrics {unknown}", code=3)
    metrics = {}
    for m in declared:
        if m["name"] in got:
            metrics[m["name"]] = got[m["name"]]
        elif args.trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"runner did not report {m['name']}", code=3)
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} differs from BENCHMARK.json", code=3)
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
