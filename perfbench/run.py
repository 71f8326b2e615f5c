#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source and runs one workload.

    python3 perfbench/run.py --workload <fig16-mix|chaos-16|stream-1m> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library under src/ and the perfbench
program are built (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset. The program's output is passed
through; its last line is one JSON object with the keys correct, attempted,
failed and metrics.

On top of the program's own checks, this script keeps the trajectory digest of
every (workload, seed) it has run in the build directory and fails the run if
a later run of the same seed, traced or not, simulates a different one.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig16-mix", "chaos-16", "stream-1m")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(base)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def check_digest(out, workload, seed, digest):
    """Returns an error message when `digest` differs from the recorded one."""
    store = out / "digests"
    store.mkdir(exist_ok=True)
    path = store / f"{workload}-{seed}.txt"
    if path.is_file():
        recorded = path.read_text().strip()
        if recorded != digest:
            return (f"trajectory digest {digest} differs from {recorded} "
                    f"recorded by an earlier run of {workload} seed {seed}")
        return None
    path.write_text(digest + "\n")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources at {ROOT / 'src'}; nothing to benchmark")
        return 2
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not build(out):
        return 2

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out",
                str(out / f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["perfbench"]
    except (IndexError, ValueError, KeyError):
        sys.stdout.write(proc.stdout)
        log(f"perfbench exited {proc.returncode} without a result line")
        return proc.returncode or 4
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"unexpected result keys {sorted(result)}")
        return 4

    for line in lines[:-1]:
        print(line)
    error = check_digest(out, args.workload, args.seed, record["digest"])
    if error:
        print(f"VIOLATION: {error}")
        result["correct"] = False
    print(json.dumps(result), flush=True)
    if proc.returncode:
        return proc.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
