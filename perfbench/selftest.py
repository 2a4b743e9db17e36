#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload, at the tiny size:
  * an untraced and a traced run exit 0 with a result, and print every
    end-to-end (resp. per-layer) metric of BENCHMARK.json,
    by name and with its unit, both in the human-readable lines and in the
    final JSON line;
  * a corrupted recorded digest turns the run into a failed one: exactly one
    more failed check than the clean run and "correct": false (the exit code
    stays 0: the result line carries the verdict).
Finally, a directory holding only BENCHMARK.json and perfbench/ must make
the benchmark exit non-zero without printing a result.
Exits 0 when every assertion holds.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 20170327
SCRATCH = os.path.join(".bench_out", "selftest")

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, digests=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "2", "--trace", str(trace), "--tiny", "1"]
    if digests:
        cmd += ["--digests", digests]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def check_metrics(label, lines, result, wanted):
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name) if result else None
        expect(got is not None and got["unit"] == unit and
               isinstance(got["value"], (int, float)),
               f"{label}: JSON carries {name} [{unit}]")
        # Human-readable lines read "<name> <value> <unit>".
        printed = any(l.split()[0:1] == [name] and l.split()[2:3] == [unit]
                      for l in lines)
        expect(printed, f"{label}: prints {name} with unit {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)

    for workload in [w["name"] for w in bench["workloads"]]:
        clean_failed = None
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{workload} trace={trace}"
            code, lines, result = run(workload, trace)
            expect(code == 0 and result is not None and result["attempted"] >= 1,
                   f"{label}: exits 0 with a result")
            if result is not None and result["failed"]:
                print(f"     note: {result['failed']} of {result['attempted']} "
                      "operations failed (see the run's FAILED lines)")
            if trace == 0 and result is not None:
                clean_failed = result["failed"]
            check_metrics(label, lines, result, wanted)

        recorded = digests["tiny"][workload][str(SEED)]
        corrupted = ("0" if recorded[0] != "0" else "1") + recorded[1:]
        path = os.path.join(SCRATCH, f"digests-{workload}.json")
        with open(path, "w") as f:
            json.dump({"tiny": {workload: {str(SEED): corrupted}}}, f)
        code, _, result = run(workload, 0, digests=path)
        expect(code == 0 and result is not None and not result["correct"] and
               clean_failed is not None and result["failed"] == clean_failed + 1,
               f"{workload}: a corrupted recorded digest adds one failed check "
               "and fails the run")

    # Without the rest of the repository the benchmark must refuse cleanly.
    bare = os.path.abspath(os.path.join(SCRATCH, "bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                              "--seed", "1", "--seconds", "1",
                                              "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "bare directory: non-zero exit, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
