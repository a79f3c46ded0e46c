#!/usr/bin/env python3
"""Build and run the hdldp end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <sparse_ingest|heavy_hitters|figure_sweep>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, and passes its output through. The last
line of standard output is one JSON object: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`. Exits non-zero, without a
result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sparse_ingest", "heavy_hitters", "figure_sweep")
# Time the measured run may take beyond --seconds: three set-ups, the last
# round and the determinism rerun.
RUN_SLACK_S = 120


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1

    command = [str(target / "release" / "hdldp-perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    str(target / f"perfbench-trace-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_SLACK_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    body, last = lines[:-1], lines[-1] if lines else ""
    print("\n".join(body))
    if run.returncode != 0:
        print(f"perfbench: run failed ({run.returncode})", file=sys.stderr)
        return 1
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        print(f"perfbench: no result line: {last!r}", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: malformed result: {last!r}", file=sys.stderr)
        return 1
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
