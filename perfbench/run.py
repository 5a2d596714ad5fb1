#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <figure2|serve-cold> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The plc libraries and the benchmark are built
from source (CMake, Release) into $CARGO_TARGET_DIR/perfbench-<tree>, or
.bench_build/perfbench-<tree> when the variable is unset, where <tree> is a
hash of the source tree's path; an up-to-date build costs about a second.
The benchmark then runs in-process against the repository's public APIs.
Its last line of standard output is the JSON result; build output goes to
<build dir>/build.log.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    """The build tree of this source tree. A CMake build tree stays bound
    to the sources it was configured from, so trees that share
    $CARGO_TARGET_DIR each get their own: otherwise one tree's run would
    build and measure the other tree's code."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    tree = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    return os.path.join(base, f"perfbench-{tree}")


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(bdir):
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", str(cpu_count()),
                      "--target", "perfbench", "perfbench_selftest"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT):
                break
        else:
            return
    with open(log_path) as log:
        tail = log.read()[-4000:]
    fail(f"build failed (log: {log_path})\n{tail}", 1)


def revision():
    """The git revision when the tree is a checkout, else "none"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """SHA-256 over the benchmarked sources and the benchmark itself, so
    results from trees without git metadata can still be told apart."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_layer_map():
    """layers.json must name every per-layer metric of BENCHMARK.json,
    and only end-to-end metrics and workloads that exist."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "layers.json")) as handle:
        layers = json.load(handle)["layers"]
    per_layer = {metric["name"] for metric in bench["per_layer"]}
    end_to_end = {metric["name"] for metric in bench["end_to_end"]}
    workloads = {workload["name"] for workload in bench["workloads"]}
    problems = sorted(per_layer ^ set(layers))
    for name, entry in layers.items():
        problems += [f"{name}: unknown metric {m}"
                     for m in entry["moves"] if m not in end_to_end]
        problems += [f"{name}: unknown workload {w}"
                     for w in entry["on"] if w not in workloads]
    if problems:
        fail("layers.json does not match BENCHMARK.json: " +
             ", ".join(problems), 1)
    print(f"layer map: {len(layers)} per-layer metrics mapped")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no plc sources under {ROOT}/src; run from a full checkout")
    if not args.selftest and not args.workload:
        fail("--workload is required")

    bdir = build_dir()
    build(bdir)
    if args.selftest:
        check_layer_map()
        sys.exit(subprocess.call([os.path.join(bdir, "perfbench_selftest")]))

    tag = f"{args.workload}-seed{args.seed if args.seed is not None else 'default'}"
    command = [
        os.path.join(bdir, "perfbench"),
        "--workload", args.workload,
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--work-dir", os.path.join(bdir, "work"),
        "--revision", revision(),
        "--source-digest", source_digest(),
    ]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.trace == "1":
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file", os.path.join(traces, f"{tag}.json")]
    sys.stdout.flush()
    # The benchmark replaces this process, so nothing is left running.
    os.execv(command[0], command)


if __name__ == "__main__":
    main()
