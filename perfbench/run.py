#!/usr/bin/env python3
"""Build and run the bsyn benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build, or
into $CARGO_TARGET_DIR when that is set; later calls only re-make it.
Build output goes to stderr, so the last stdout line is the benchmark's
JSON result. --self-test runs every workload once at minimum size, with
and without tracing, and checks every metric of BENCHMARK.json is
reported with its unit and every correctness check passes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD, "cmake", "perfbench")
WORKLOADS = ["suite-cold", "suite-warm", "fidelity-presets", "replay-open"]


def build(env):
    """Configure (once) and build the perfbench binary; False on error."""
    cmake_dir = os.path.join(BUILD, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def bench_env():
    """The environment of the build and the run: temporary files stay
    under the build directory, and the provenance carries the commit
    (when this is a git checkout) and a digest of the sources."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        env["PERFBENCH_COMMIT"] = (commit.stdout.strip()
                                   if commit.returncode == 0 else "unknown")
    except OSError:
        env["PERFBENCH_COMMIT"] = "unknown"
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    env["PERFBENCH_SOURCE_SHA256"] = digest.hexdigest()
    return env


def bench_args(workload, seed, seconds, trace):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", os.path.join(BUILD, "work")]


def self_test(env):
    """Every workload once at minimum size, traced and untraced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        print("self-test: BENCHMARK.json workloads differ", file=sys.stderr)
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            proc = subprocess.run(bench_args(workload, 1, 1, trace),
                                  env=env, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (tag, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append("%s: correctness checks failed" % tag)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics %s, expected %s"
                                % (tag, sorted(got.items()),
                                   sorted(expected[trace].items())))
            print("self-test %-26s ok=%s attempted=%d metrics=%d"
                  % (tag, result["correct"], result["attempted"], len(got)))
    for p in problems:
        print("self-test FAILED: " + p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")
    env = bench_env()
    if not build(env):
        return 1
    if args.self_test:
        return self_test(env)
    return subprocess.run(bench_args(args.workload, args.seed, args.seconds,
                                     args.trace), env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
