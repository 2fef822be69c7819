#!/usr/bin/env python3
"""MSC end-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Builds perfbench/ (which compiles
the msc library from src/) into .bench_build/perfbench with CMake in
Release mode, then runs one workload of the benchmark binary.  Build
output goes to .bench_build/build.log; the binary's stdout is passed
through, and its last line is the JSON result.  Traces, the AOT compile
cache and temporary files of the host C compiler stay under .bench_build/.

Exits non-zero without printing a result when the sources are missing, the
build fails, or the benchmark binary fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")
BINARY = os.path.join(BUILD_DIR, "msc_perfbench")
WORKLOADS = ("stream3d-aot", "box2d-sweep", "chain3d-dist")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """Content hash of the sources the benchmark builds (the checkout is
    not a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(env):
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
            if proc.returncode != 0:
                fail(f"build step {' '.join(cmd)} failed (see {log_path})")


def check_config(config_line):
    """Warn loudly when the host or thread count differs from the previous
    run in this checkout: such results must not be compared silently."""
    try:
        cfg = json.loads(config_line[len("config: "):])
    except ValueError:
        return
    keys = ("nproc", "pool_width", "cxx", "cc", "l2_bytes", "l3_bytes")
    host = {k: cfg.get(k) for k in keys}
    path = os.path.join(OUT_DIR, "host.json")
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        if previous != host:
            print(f"perfbench: WARNING host config changed since the last run: "
                  f"{previous} -> {host}; results are not comparable", file=sys.stderr)
    with open(path, "w") as f:
        json.dump(host, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("msc sources (src/) not found; run from the root of a source checkout")

    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build(env)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} failed (exit {proc.returncode})")
    for line in lines:
        if line.startswith("config: "):
            check_config(line)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
