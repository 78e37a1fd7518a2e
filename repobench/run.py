#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 repobench/run.py --workload fleet_ec|fleet_sr|bulk_ec \
        --seed N --seconds S --trace 0|1
    python3 repobench/run.py --selftest

The first call configures and builds repobench/ (the library sources under
src/ plus the benchmark) with CMake into $CARGO_TARGET_DIR/repobench, or
.bench_build/repobench when that variable is unset; later calls only let
the build tool confirm the binary is current. Build output goes to stderr,
so stdout carries only the benchmark's own lines, the last of which is the
JSON result. The exit code is the benchmark's: 0 when every correctness
check held, 1 when one failed, 2 when the benchmark cannot be built.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "repobench")


def source_sha256():
    """Digest of every source file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".") and
                                 d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def git_stamp():
    """(commit, dirty) of the checkout; ("none", "unknown") outside git."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "none", "unknown"
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none", "unknown"
    return commit, "1" if status else "0"


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("repobench: no library sources at %s/src" % ROOT,
              file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT).returncode
        except OSError as e:
            print("repobench: %s: %s" % (cmd[0], e), file=sys.stderr)
            return None
        if rc != 0:
            print("repobench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, target)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["fleet_ec", "fleet_sr", "bulk_ec"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    binary = build("repobench_selftest" if args.selftest else "repobench")
    if binary is None:
        return 2
    sys.stdout.flush()
    if args.selftest:
        return subprocess.run([binary], cwd=ROOT).returncode

    commit, dirty = git_stamp()
    if dirty != "0":
        print("repobench: source tree is not a clean commit (commit=%s, "
              "dirty=%s); the record is flagged" % (commit, dirty),
              file=sys.stderr)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit, "--dirty", dirty,
           "--source-sha", source_sha256()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
