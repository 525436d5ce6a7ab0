#!/usr/bin/env python3
"""Builds the vscrub benchmark tool from this checkout's sources and runs it.

    python3 perfbench/run.py --workload oneshot_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --make-refs

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; the tool's last stdout line is
the JSON result. Build output goes to stderr. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot_sweep", "served_warm", "fabric_sampled")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def commit_id():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_root):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no vscrub sources next to {HERE} (CMakeLists.txt, src/)")
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "vscrub_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "vscrub_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-refs", action="store_true",
                        help="regenerate perfbench/refs from this tree")
    args = parser.parse_args()
    if not args.make_refs and args.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tool = build(build_root)
    if args.make_refs:
        cmd = [tool, "--make-refs", os.path.join(HERE, "refs")]
    else:
        cmd = [tool, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--refs", os.path.join("perfbench", "refs"),
               # Relative, to keep socket paths under the sun_path limit.
               "--work-dir", os.path.relpath(os.path.join(build_root, "run")),
               "--commit", commit_id()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
