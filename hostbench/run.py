#!/usr/bin/env python3
"""Build the host-time benchmark from source and run one workload.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
hostbench (and the libraries under src/) in the directory named by
CARGO_TARGET_DIR, or .bench_build; later calls only rebuild what changed.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. Files the run writes land in .bench_out/.

    python3 hostbench/run.py --record-references FIRST-LAST

re-records the reference digests of every workload for the seeds FIRST to
LAST into hostbench/references.txt.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["extreme_hist", "slice_render", "posthoc_io", "service_mix"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configure (once) and build; returns the binary path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "hostbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    return os.path.join(out, "hostbench")


def record(binary, seeds):
    first, last = (int(x) for x in seeds.split("-"))
    lines = ["# workload seed digest -- recorded by run.py --record-references"]
    for workload in WORKLOADS:
        for seed in range(first, last + 1):
            result = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0", "--max-reps", "1",
                 "--out-dir", os.path.join(ROOT, ".bench_out")],
                cwd=ROOT, capture_output=True, text=True, check=True)
            digest = [l for l in result.stdout.splitlines()
                      if l.startswith("digest ")]
            if not digest or '"correct": true' not in result.stdout:
                sys.exit(f"recording {workload} seed {seed} failed:\n"
                         + result.stdout + result.stderr)
            lines.append(digest[0][len("digest "):])
            print(lines[-1], file=sys.stderr)
    with open(os.path.join(HERE, "references.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-references", metavar="FIRST-LAST")
    args, extra = parser.parse_known_args()

    binary = build()
    if binary is None:
        sys.exit("hostbench: build failed")
    if args.record_references:
        record(binary, args.record_references)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--references", os.path.join(HERE, "references.txt")] + extra
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
