#!/usr/bin/env python3
"""Self-test of the host-time benchmark.

    python3 hostbench/selftest.py

Run from the repository root. Builds hostbench and perf_report, then:
  * smokes every workload at its tiny size, untraced and traced, and
    checks that the result is correct and names exactly the metrics of
    BENCHMARK.json, each printed with its unit;
  * checks that extreme_hist's digest is identical under sched=threads and
    sched=mn at 64 ranks (the repository's threads == mn contract);
  * checks that tools/perf_report reads the traced run's export;
  * checks a full-size posthoc_io repetition against its recorded digest.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

import run

OUT = os.path.join(run.ROOT, ".bench_out")
failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def bench(binary, *args):
    result = subprocess.run([binary, "--out-dir", OUT] + list(args),
                            cwd=run.ROOT, capture_output=True, text=True)
    if result.returncode != 0:
        return None, result.stdout + result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1]), result.stdout


def digest_of(stdout):
    for line in stdout.splitlines():
        if line.startswith("digest "):
            return line.split()[-1]
    return None


def main():
    binary = run.build()
    if binary is None:
        sys.exit("build failed")
    perf_report = os.path.join(run.build_dir(), "perf_report")
    if subprocess.call(["cmake", "--build", run.build_dir(), "--target",
                        "perf_report"], stdout=sys.stderr) != 0:
        sys.exit("perf_report build failed")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    check(names == run.WORKLOADS, "BENCHMARK.json names the four workloads")

    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, stdout = bench(binary, "--workload", workload, "--seed",
                                   "5", "--seconds", "0.2", "--trace",
                                   str(trace), "--tiny")
            tag = f"{workload} --trace {trace}"
            if result is None:
                check(False, f"{tag} exits 0:\n{stdout}")
                continue
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0, f"{tag}: outputs correct")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{tag}: prints every {key} metric with "
                                   "its unit")
            printed = {tuple(l.split()[1:4:2]) for l in stdout.splitlines()
                       if l.startswith("metric ")}
            check(printed == set(expected.items()),
                  f"{tag}: one 'metric NAME VALUE UNIT' line per metric")
            if trace:
                path = os.path.join(OUT, workload + ".trace.json")
                report = subprocess.run([perf_report, path],
                                        capture_output=True, text=True)
                check(report.returncode == 0 and "== spans:" in report.stdout,
                      f"{tag}: tools/perf_report reads the trace export")

    digests = {}
    for sched in ("threads", "mn"):
        result, stdout = bench(binary, "--workload", "extreme_hist", "--seed",
                               "5", "--seconds", "0", "--trace", "0",
                               "--tiny", "--ranks", "64", "--sched", sched,
                               "--max-reps", "1")
        check(result is not None and result["correct"],
              f"extreme_hist sched={sched} at 64 ranks is correct")
        digests[sched] = digest_of(stdout)
    check(digests["threads"] is not None
          and digests["threads"] == digests["mn"],
          f"extreme_hist digests identical under threads and mn: {digests}")

    result, stdout = bench(binary, "--workload", "posthoc_io", "--seed", "1",
                           "--seconds", "0", "--trace", "0", "--max-reps",
                           "1", "--references",
                           os.path.join(run.HERE, "references.txt"))
    check(result is not None and result["correct"]
          and "digest matches the recorded one" in stdout,
          "posthoc_io seed 1 matches its recorded digest")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
