#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which builds the simulator
library from the surrounding source tree) as a Release build in the
directory named by $CARGO_TARGET_DIR, default .bench_build, relative to the
repository root; later calls only rebuild what changed.  Build output goes
to stderr.  The benchmark binary then prints its check lines, a context
line, one line per metric, and as the last line the JSON result.

--selftest runs the binary's self-test (composed and decorated paths
hash-identical to harness::run_scenario on tiny cells; every metric
emitted) and checks that the emitted metric names, units and directions
are exactly those BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(2, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "rica_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "rica_perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (paths + bytes): the
    code identity when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def selftest(binary):
    r = subprocess.run([binary, "--selftest"], capture_output=True, text=True)
    sys.stdout.write(r.stdout)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        kind: [{k: m[k] for k in ("name", "unit", "better")} for m in spec[kind]]
        for kind in ("end_to_end", "per_layer")
    }
    names = [w["name"] for w in spec["workloads"]]
    seen = {}
    for line in r.stdout.splitlines():
        if line.startswith("selftest-catalog "):
            label, catalog = line[len("selftest-catalog "):].split(" [", 1)
            workload, kind = label.split(" ")
            seen[(workload, kind)] = json.loads("[" + catalog)
    failures = 0
    for workload in names:
        for kind in ("end_to_end", "per_layer"):
            got = seen.get((workload, kind))
            if got != want[kind]:
                failures += 1
                print(f"selftest: {workload} {kind} metrics differ from "
                      f"BENCHMARK.json: {got}")
    print("selftest catalog:", "ok" if failures == 0 else "FAILED")
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None:
        print("error: benchmark build failed", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(binary)
    print(json.dumps({"context": {"commit": commit(),
                                  "source_digest": source_digest()}}),
          flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
