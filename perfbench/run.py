#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

Builds the libraries under src/ and the perfbench driver in Release mode
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
one workload, and relays its output. The last line of standard output is
the run's JSON result; build logs go to standard error. Result files land
in <build root>/results. Exits non-zero, without a result line, when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures", "serve_zipf", "loop_mlp", "loop_cnn")


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # cmake_install.cmake appears only once a configure step succeeded.
    if not os.path.exists(os.path.join(build_dir, "cmake_install.cmake")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    out_dir = os.path.join(root, "results")
    # Compiler temporaries stay inside the build root too.
    tmp_dir = os.path.join(root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        build(build_dir, env)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)

    run = subprocess.run(
        [os.path.join(build_dir, "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--root", ROOT, "--out", out_dir],
        stdout=subprocess.PIPE, env=env, text=True, check=False)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed with code {run.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
