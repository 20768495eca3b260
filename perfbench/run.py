#!/usr/bin/env python3
"""Builds and runs the private-lookup benchmark (perfbench).

    python3 perfbench/run.py --workload lm-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --known-fault --seed 1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is compiled from the
repository's sources by perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. The last line of standard output is the run's
JSON result; everything else goes to standard error.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main(argv):
    gpudpf_vars = sorted(k for k in os.environ if k.startswith("GPUDPF_"))
    if gpudpf_vars:
        fail("refusing to run with " + ", ".join(gpudpf_vars) + " set: "
             "they switch kernels, layouts and ISAs between the two sides "
             "of a comparison", code=2)
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "service.h")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}; run "
             "from a full checkout of the repository")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(ROOT, target, "perfbench"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    if argv == ["--selftest"]:
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode

    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args else "run"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        span_dir = os.path.join(build_dir, "spans")
        os.makedirs(span_dir, exist_ok=True)
        args += ["--span-file",
                 os.path.join(span_dir, f"{workload}-seed{seed}.json")]
    return subprocess.run(
        [os.path.join(build_dir, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
