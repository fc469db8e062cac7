#!/usr/bin/env python3
"""Build genfv_perfbench from this checkout and run one benchmark workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <paper_flow|engine_matrix|serve_resubmit>
                             --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library and genfv_perfbench
(Release) under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
the variable is unset; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is genfv_perfbench's JSON
result. A traced run also leaves its last traced pass as a Chrome trace in
the build directory. The exit code is genfv_perfbench's: 0 when every
verdict matched its known answer, 1 when one did not, 2 on a usage or
set-up error. The default seed is 1; seed 7919 is held out of tuning (see
perfbench/RATIONALE.md).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_flow", "engine_matrix", "serve_resubmit")


def build(build_dir: str) -> str:
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "genfv_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "genfv_perfbench")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", ROOT]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
