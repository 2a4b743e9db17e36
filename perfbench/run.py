#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the kadsim library, the
resilience_daemon tool and the harness from source (Release, into
$CARGO_TARGET_DIR or .bench_build/), then runs one workload. The last line
of stdout is the harness's JSON result; build output goes to stderr.

Extra options: --digests PATH (recorded row digests, default
perfbench/digests.json), --tiny 1 (self-test size).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig06_batch", "analysis_churn", "daemon_mixed")


def build(build_dir):
    """Configure once, then an incremental build. Returns False on failure."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "resilience_daemon",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", default=os.path.join(HERE, "digests.json"))
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found next to perfbench/; run from a full "
                  "checkout", file=sys.stderr)
            return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("error: build failed", file=sys.stderr)
        return 2

    expect = ""
    if os.path.isfile(args.digests):
        with open(args.digests) as f:
            recorded = json.load(f)
        size = "tiny" if args.tiny else "full"
        expect = recorded.get(size, {}).get(args.workload, {}).get(str(args.seed), "")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tiny", str(args.tiny),
           "--daemon", os.path.join(build_dir, "kadsim", "resilience_daemon")]
    if expect:
        cmd += ["--expect-digest", expect]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
