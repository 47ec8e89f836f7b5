#!/usr/bin/env python3
"""Builds and runs the Scoop trial benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The first call
configures and builds perfbench/ (and with it the scoop library) into
.bench_build/perfbench; later calls rebuild only what changed. Prints a
stamp line (host, build and source identity), the per-layer table of a
traced run, and as the last line the result object
{"correct", "attempted", "failed", "metrics"}.

A driver that crashes or times out still yields a result line: the trial
it was running counts as failed, and the exit code is 1.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
# Every run, build included unless it had to compile, ends within this.
RUN_BUDGET_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds; True when it had to compile."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                       check=True, stdout=sys.stderr)
    before = DRIVER.stat().st_mtime if DRIVER.exists() else None
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr)
    return before != DRIVER.stat().st_mtime


def source_stamp():
    """Commit and dirty flag when the checkout is a git repository, plus a
    digest of every source file the benchmark builds, which identifies
    the code even where there is no git metadata."""
    stamp = {"commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=True).stdout.strip()
        try:
            stamp["commit"] = git("rev-parse", "HEAD")
            stamp["dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", HERE):
        files += [p for p in tree.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    stamp["source_sha256"] = digest.hexdigest()
    return stamp


def expected_metrics(trace):
    """The metric names BENCHMARK.json lists for this mode, if it exists."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    start = time.monotonic()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no scoop sources under {ROOT}; run from a checkout of the repository")
        return 2
    try:
        compiled = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1
    budget = RUN_BUDGET_S if compiled else RUN_BUDGET_S - (time.monotonic() - start)

    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, budget))
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True

    begun = 0
    failed_lines = 0
    for line in err.splitlines():
        if line.startswith("# trial ") and line.endswith(" begin"):
            begun += 1
            continue
        if line.startswith("# trial FAILED"):
            failed_lines += 1
        print(line, file=sys.stderr)

    lines = out.splitlines()
    if proc.returncode in (2, 3):  # Usage error or a refused (debug/sanitizer) build.
        return proc.returncode
    stamp = {}
    for line in lines:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    stamp.update(source_stamp())
    stamp.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace})
    print("stamp " + json.dumps(stamp, sort_keys=True))

    result = None
    if proc.returncode == 0 and not timed_out and lines:
        for line in lines[:-1]:
            if not line.startswith("stamp "):
                print(line)
        result = json.loads(lines[-1])
        expected = expected_metrics(args.trace == 1)
        if expected is not None and sorted(expected) != sorted(result["metrics"]):
            log("driver metrics differ from BENCHMARK.json: "
                f"{sorted(set(expected) ^ set(result['metrics']))}")
            return 1
        print(lines[-1], flush=True)
        return 0

    why = "timed out" if timed_out else f"exited with code {proc.returncode}"
    log(f"driver {why} during trial {begun}; counting it as failed")
    result = {"correct": False, "attempted": max(1, begun), "failed": failed_lines + 1,
              "metrics": {}}
    print(json.dumps(result), flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main())
