#!/usr/bin/env python3
"""Fast self-test of the benchmark on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

Builds like run.py, then checks on two tiny generated programs that:
  1. a run reports every end-to-end metric BENCHMARK.json names, with its
     unit, and no failed operation;
  2. a traced run does the same for every per-layer metric;
  3. a deliberately corrupted reference SARIF counts as a failed operation;
  4. inputs whose hashes differ from their pins stop the set-up, and the
     error names every one of them.
Exits 0 if every check passes, 1 otherwise.
"""

import json
import numbers
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_metrics(result, expected, problems, label):
    if set(result) != RESULT_KEYS:
        problems.append("%s: result keys %s" % (label, sorted(result)))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append("%s: correct=%s attempted=%d failed=%d" % (
            label, result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        problems.append("%s: metrics missing %s, unexpected %s" % (
            label, sorted(names - set(metrics)), sorted(set(metrics) - names)))
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or \
                not isinstance(got.get("value"), numbers.Real):
            problems.append("%s: %s printed as %s, want unit %s" % (
                label, m["name"], got, m["unit"]))
    json.dumps(result)  # must serialize as the benchmark prints it


def flip_first_reference(refs):
    key = min(k for k, v in refs.items() if v)
    refs[key] = refs[key][:-1] + bytes([refs[key][-1] ^ 1])


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bins = bench.build()
    name, workload = next(iter(bench.SELF_TEST_WORKLOADS.items()))
    problems = []
    work = tempfile.mkdtemp(prefix="selftest-", dir=bench.build_dir())
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = bench.run(name, workload, 1, 0.5, trace, bins)
            check_metrics(result, spec[key], problems, "trace %d" % trace)

        result, details = bench.run(name, workload, 1, 0.5, 0, bins,
                                    corrupt=flip_first_reference)
        if result["correct"] or result["failed"] < 1 or \
                details["failures"]["sarif_mismatch"] < 1:
            problems.append("corrupted reference not counted as a failure: "
                            "%s" % json.dumps(result))

        wrong = {name: {k: "0" * 64 for k in bench.load_pins()[name]}}
        try:
            bench.make_inputs(name, workload, 1, bins, wrong)
            problems.append("input drift not detected")
        except bench.BenchError as e:
            named = [k for k in wrong[name] if "input %s " % k in str(e)]
            if len(named) != workload["per_run"]:
                problems.append("input drift names %s, not every input of "
                                "the run" % named)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAIL: " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
