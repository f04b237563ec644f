#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --record-digests

The first form builds the benchmark (perfbench/CMakeLists.txt, which
compiles the library from ../src) under $CARGO_TARGET_DIR, default
.bench_build, and runs one workload. The last line of standard output
is the run's JSON result. Build output goes to standard error.

--selfcheck makes a one-second run of every workload in BENCHMARK.json,
untraced and traced, and checks that each named metric is emitted with
its unit and that no operation failed.

--record-digests rewrites the per-cell digests recorded in
perfbench/expected/ for the default seed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
RECORDED = ("sweep-grid", "plan-queries")


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "so_perfbench"


def run_workload(exe, workload, seed, seconds, trace, record=False,
                 capture=False):
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work), "--expected-dir", str(HERE / "expected")]
    if record:
        cmd.append("--record-digests")
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def selfcheck(exe):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_workload(exe, workload, DEFAULT_SEED, 1, trace,
                                capture=True)
            problems = []
            result = {}
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    problems.append(f"keys {sorted(result)}")
                if not result.get("correct") or result.get("failed") != 0:
                    problems.append(f"failed {result.get('failed')}")
                if result.get("attempted", 0) < 1:
                    problems.append("nothing attempted")
                metrics = result.get("metrics", {})
                wanted = {m["name"]: m["unit"] for m in spec[key]}
                for name, unit in wanted.items():
                    got = metrics.get(name)
                    if got is None:
                        problems.append(f"missing {name}")
                    elif got.get("unit") != unit:
                        problems.append(f"{name} unit {got.get('unit')}")
                extra = sorted(set(metrics) - set(wanted))
                if extra:
                    problems.append(f"unlisted metrics {extra}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"selfcheck {workload} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if args.selfcheck:
        return selfcheck(exe)
    if args.record_digests:
        for workload in RECORDED:
            proc = run_workload(exe, workload, DEFAULT_SEED, 10, 0,
                                record=True)
            if proc.returncode != 0:
                return proc.returncode
        return 0
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(exe, args.workload, args.seed, args.seconds,
                        args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
