#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at minimum length (--seconds 1) through
run.py, untraced and traced, and asserts that:
  * each run exits 0 with "correct": true and no failed requests;
  * every end-to-end metric (untraced) or per-layer metric (traced) named in
    BENCHMARK.json is printed with its unit, and nothing else is;
  * every end-to-end value is positive;
  * a corrupted recorded digest makes the next run of that seed fail.
Takes about two minutes after the first build.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (build_dir: where run.py keeps recorded digests)

SEED = 7
CORRUPT_SEED = 424242


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, out = bench(w["name"], SEED, trace)
            tag = f"{w['name']} --trace {trace}"
            check(code == 0, f"{tag}: exit {code}\n{out}")
            check(result["correct"] is True, f"{tag}: not correct\n{out}")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{tag}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{tag}: metrics {got} != {want}")
            if trace == 0:
                for name, m in result["metrics"].items():
                    check(m["value"] > 0, f"{tag}: {name} = {m['value']}")
            print(f"ok   {tag}", flush=True)

    workload = "chaos-16"  # the cheapest set-up
    digest = run.build_dir() / "digests" / f"{workload}-{CORRUPT_SEED}.txt"
    try:
        code, result, out = bench(workload, CORRUPT_SEED, 0)
        check(code == 0 and result["correct"], f"first run failed\n{out}")
        recorded = digest.read_text().strip()
        digest.write_text(f"{int(recorded, 16) ^ 1:08x}\n")
        code, result, out = bench(workload, CORRUPT_SEED, 0)
        check(code != 0 and result["correct"] is False,
              f"corrupted digest passed: exit {code}\n{out}")
        print(f"ok   {workload}: a corrupted digest fails the run", flush=True)
    finally:
        digest.unlink(missing_ok=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
