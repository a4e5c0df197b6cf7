#!/usr/bin/env python3
"""Full-pipeline time-to-verdict benchmark for spa_cli.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds spa_cli and the benchmark helpers from the checkout's sources (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), makes the
workload's inputs from the seed, checks them against pinned hashes, computes
one naive-engine reference SARIF per (input, model), then for S seconds runs

    spa_cli --engine=scc --model=M --check --flow=cfg --certify --sarif=OUT FILE

as one child process at a time, timing each from fork to exit and reading
its rusage with wait4. A run fails if it exits with anything but 0 or 2 or
if its SARIF differs from the reference. With --trace 1 each timed run is
paired with an in-process traced run of the same input that times every
layer's entry point. The last line of stdout is the JSON result; the line
before it gives the details (tail percentile, sample count, failures per
layer). perfbench/README.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS_FILE = os.path.join(HERE, "pins.json")

PIPELINE_FLAGS = ["--check", "--flow=cfg", "--certify"]
TIMED_ENGINE = "--engine=scc"
REFERENCE_ENGINE = "--engine=naive"
OK_EXITS = (0, 2)
MODELS = ("ca", "coc", "cis", "off")

# A generated workload draws `per_run` programs from a fixed pool of
# generator seeds (all pinned), chosen and ordered by the run's --seed.
WORKLOADS = {
    "gen_struct_large": {"shape": "mixed", "size": 128, "pool": range(1, 9),
                         "per_run": 2, "models": ("cis",)},
    "gen_uaf_heavy": {"shape": "uaf", "size": 64, "pool": range(1, 9),
                      "per_run": 3, "models": ("cis",)},
    "corpus_models": {"corpus": True, "models": MODELS},
}
# Tiny inputs for perfbench/selftest.py.
SELF_TEST_WORKLOADS = {
    "selftest_tiny": {"shape": "mixed", "size": 2, "pool": range(1, 3),
                      "per_run": 2, "models": ("cis", "off")},
}
SETUP_REPEATS = 3
# setup_s is reported in seconds on a host where one calibration kernel
# call takes this long (about its time on the reference host): each set-up
# step is scaled by the kernel call just before it, so host speed drift
# does not show as a set-up change.
CALIB_REFERENCE_S = 0.020
# The tail metric is the highest percentile with 10 samples beyond it.
TAIL_BEYOND = 10
# The traced probe, less its own record-keeping, must take at least this
# share of the paired spa_cli run's wall time (median over the run), so a
# step spa_cli gains and the probe lacks cannot go unmeasured.
MIN_CLI_COVERAGE = 0.85

# The gated end-to-end metrics. The raw wall-time figures (verdict_ms_p50,
# verdict_ms_tail, kloc_per_s) go on the details line only: host speed
# drifts too much between runs for them to gate (see README.md).
E2E_UNITS = {"verdict_rel_p50": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """A set-up problem that stops the benchmark before it measures."""


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once and builds; tool output goes to stderr."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return {"cli": os.path.join(out, "spa_tools", "spa_cli"),
            "probe": os.path.join(out, "spa_perfbench_probe"),
            "runner": os.path.join(out, "spa_perfbench_runner")}


class Runner:
    """The spawner process (runner.cpp): it forks every analysis child, times
    it from fork to reaped exit, reads its rusage with wait4, and runs the
    calibration kernel. At most one child exists at a time."""

    def __init__(self, path):
        self.proc = subprocess.Popen([path], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def _ask(self, fields):
        self.proc.stdin.write("\t".join(fields) + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().split()

    def calibrate(self):
        """Seconds one call of the fixed calibration kernel takes."""
        return float(self._ask(["calib"])[0])

    def spawn(self, argv):
        """(wall seconds, exit code or -signal, ru_maxrss in KB)."""
        wall, code, rss = self._ask(["run"] + argv)
        return float(wall), int(code), int(rss)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_pins():
    with open(PINS_FILE) as f:
        return json.load(f)


def workload_sources(spec, seed, bins):
    """Yields (file name, source bytes, pin key) for one run's inputs."""
    if spec.get("corpus"):
        corpus = os.path.join(ROOT, "corpus")
        for name in sorted(os.listdir(corpus)):
            if name.endswith(".c"):
                with open(os.path.join(corpus, name), "rb") as f:
                    yield name, f.read(), name
        return
    for gseed in random.Random(seed).sample(list(spec["pool"]),
                                            spec["per_run"]):
        src = subprocess.run(
            [bins["probe"], "gen", spec["shape"], str(spec["size"]),
             str(gseed)], check=True, stdout=subprocess.PIPE).stdout
        yield "%s_%d_%d.c" % (spec["shape"], spec["size"], gseed), src, \
            str(gseed)


def make_inputs(name, spec, seed, bins, pins):
    """Writes the run's inputs into the working directory and checks each
    against its pinned hash. Returns [(file, line count)]."""
    inputs, drift = [], []
    for fname, src, key in workload_sources(spec, seed, bins):
        pinned = pins.get(name, {}).get(key)
        if pinned != sha256(src):
            drift.append("  %s input %s hashes to %s, pinned %s"
                         % (name, key, sha256(src), pinned))
        with open(fname, "wb") as f:
            f.write(src)
        inputs.append((fname, src.count(b"\n")))
    if drift:
        raise BenchError(
            "input drift; the generator or corpus changed, so this is no "
            "longer the benchmarked workload:\n" + "\n".join(drift))
    return inputs


def cli_argv(bins, engine, model, fname, sarif):
    return [bins["cli"], engine, "--model=" + model] + PIPELINE_FLAGS + \
        ["--sarif=" + sarif, fname]


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def references(schedule, bins, runner):
    """One naive-engine SARIF per (input, model); None where the reference
    run itself fails or does not certify clean. Returns (references, wall
    seconds, scaled seconds)."""
    refs = {}
    wall = scaled = 0.0
    for fname, _, model in schedule:
        sarif = "ref_%s_%s.sarif" % (fname, model)
        kernel = runner.calibrate()
        step, code, _ = runner.spawn(cli_argv(bins, REFERENCE_ENGINE, model,
                                              fname, sarif))
        wall += step
        scaled += step * CALIB_REFERENCE_S / kernel
        refs[fname, model] = read_bytes(sarif) if code in OK_EXITS else None
        if refs[fname, model] is None:
            print("reference run failed: %s --model=%s exit %d"
                  % (fname, model, code), file=sys.stderr)
    return refs, wall, scaled


def set_up(name, spec, seed, bins, pins, runner):
    """Input generation, hash check and reference runs, each step timed
    after a kernel call. Returns (schedule, references, wall seconds,
    seconds at CALIB_REFERENCE_S host speed)."""
    kernel = runner.calibrate()
    start = time.perf_counter()
    inputs = make_inputs(name, spec, seed, bins, pins)
    schedule = [(f, lines, m) for f, lines in inputs for m in spec["models"]]
    if spec.get("corpus"):
        random.Random(seed).shuffle(schedule)
    wall = time.perf_counter() - start
    refs, ref_wall, ref_scaled = references(schedule, bins, runner)
    return schedule, refs, wall + ref_wall, \
        wall * CALIB_REFERENCE_S / kernel + ref_scaled


class Failures:
    """Failed operations, by the layer that failed them."""

    def __init__(self):
        self.exit_codes = {}
        self.sarif_mismatch = 0
        self.no_reference = 0
        self.trace = 0
        self.low_coverage = 0

    def add_exit(self, code):
        self.exit_codes[str(code)] = self.exit_codes.get(str(code), 0) + 1

    def total(self):
        return sum(self.exit_codes.values()) + self.sarif_mismatch + \
            self.no_reference + self.trace + self.low_coverage

    def as_dict(self):
        codes = self.exit_codes
        return {"child_exit_codes": codes,
                "pta_unconverged": codes.get("3", 0),
                "verify_failed": codes.get("4", 0),
                "killed_by_signal": sum(n for c, n in codes.items()
                                        if int(c) < 0),
                "sarif_mismatch": self.sarif_mismatch,
                "no_clean_reference": self.no_reference,
                "trace_failed": self.trace,
                "trace_low_coverage": self.low_coverage}


def timed_run(bins, runner, fname, model, ref, fails):
    """One operation: calibration kernel, then the timed child, then the
    SARIF check. Returns (sample, ok)."""
    out = "out.sarif"
    if os.path.exists(out):
        os.remove(out)
    calib_s = runner.calibrate()
    wall, code, rss_kb = runner.spawn(cli_argv(bins, TIMED_ENGINE, model,
                                               fname, out))
    ok = code in OK_EXITS and ref is not None and read_bytes(out) == ref
    if code not in OK_EXITS:
        fails.add_exit(code)
    elif ref is None:
        fails.no_reference += 1
    elif not ok:
        fails.sarif_mismatch += 1
    sample = {"wall": wall, "calib": calib_s, "rss_kb": rss_kb}
    return sample, ok


def traced_run(bins, runner, fname, model, ref, fails):
    """The in-process traced pipeline on the same input, forked by the
    spawner like the timed child and, like it, right after a calibration
    kernel call (a child that follows the kernel runs a few percent slower
    than one that follows another child). Returns the probe's record plus
    its process wall time, or None if it failed."""
    out, record_file = "trace.sarif", "trace.json"
    for stale in (out, record_file):
        if os.path.exists(stale):
            os.remove(stale)
    runner.calibrate()
    wall, code, _ = runner.spawn([bins["probe"], "trace", model, fname, out,
                                  record_file])
    record = json.loads(read_bytes(record_file) or "null") \
        if code == 0 else None
    if record is None or read_bytes(out) != ref or \
            not record["converged"] or not record["certify_ok"]:
        fails.trace += 1
        return None
    record["process_ms"] = wall * 1e3
    return record


def measure(bins, runner, schedule, refs, seconds, trace):
    """Runs operations until `seconds` have passed (and, without tracing,
    until the tail percentile is defined). Returns (samples, traces,
    attempted operations, Failures)."""
    fails = Failures()
    samples, traces = [], []
    attempted = 0
    min_samples = 1 if trace else TAIL_BEYOND + 1
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or len(samples) < min_samples:
        fname, lines, model = schedule[i % len(schedule)]
        i += 1
        ref = refs[fname, model]
        sample, ok = timed_run(bins, runner, fname, model, ref, fails)
        sample["lines"] = lines
        samples.append(sample)
        attempted += 1
        if trace:
            record = traced_run(bins, runner, fname, model, ref, fails)
            attempted += 1
            if record is not None:
                record["lines"] = lines
                record["cli_ms"] = sample["wall"] * 1e3
                traces.append(record)
    return samples, traces, attempted, fails


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it, as
    (value, percentile); (None, None) with too few samples."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the tail sample
    if rank < 1:
        return None, None
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def e2e_metrics(samples, setup_s):
    """(gated metrics, raw wall-time figures for the details line)."""
    walls = [s["wall"] * 1e3 for s in samples]
    tail_ms, tail_pct = tail(walls)
    metrics = {
        "verdict_rel_p50": statistics.median(s["wall"] / s["calib"]
                                             for s in samples),
        "peak_rss_mb": statistics.median(s["rss_kb"] for s in samples)
        / 1024.0,
        "setup_s": setup_s,
    }
    raw = {
        "samples": len(walls),
        "verdict_ms_p50": statistics.median(walls),
        "verdict_ms_tail": tail_ms,
        "tail_percentile": tail_pct,
        "kloc_per_s": sum(s["lines"] for s in samples) / 1e3
        / sum(s["wall"] for s in samples),
        "calib_ms_p50": statistics.median(s["calib"] * 1e3 for s in samples),
    }
    return metrics, raw


SPANS = ("parse_ns", "normalize_ns", "init_ns", "solve_ns", "certify_ns",
         "flow_ns", "check_ns", "sarif_ns")


def ms(record, key):
    return record[key] / 1e6


def spanned_ms(record):
    return sum(record[s] for s in SPANS) / 1e6


def cli_equivalent_ms(record):
    """The probe process's wall time less the work only the probe does."""
    return record["process_ms"] - ms(record, "record_ns")


# Per-layer metric -> (unit, function of one traced record).
LAYER_METRICS = {
    "cfront.parse_ms": ("ms", lambda r: ms(r, "parse_ns")),
    "cfront.kloc_per_s": ("kLOC/s", lambda r: r["lines"] / ms(r, "parse_ns")),
    "norm.normalize_ms": ("ms", lambda r: ms(r, "normalize_ns")),
    "norm.stmts": ("count", lambda r: r["stmts"]),
    "cfg.blocks": ("count", lambda r: r["cfg_blocks"]),
    "cfg.edges": ("count", lambda r: r["cfg_edges"]),
    "pta.init_ms": ("ms", lambda r: ms(r, "init_ns")),
    "pta.solve_ms": ("ms", lambda r: ms(r, "solve_ns")),
    "pta.pops": ("count", lambda r: r["pops"]),
    "pta.stmts_applied": ("count", lambda r: r["stmts_applied"]),
    "pta.edges": ("count", lambda r: r["edges"]),
    "pta.nodes": ("count", lambda r: r["nodes"]),
    "pta.sccs_collapsed": ("count", lambda r: r["sccs_collapsed"]),
    "pta.lookup_calls": ("count", lambda r: r["lookup_calls"]),
    "pta.resolve_calls": ("count", lambda r: r["resolve_calls"]),
    "pta.useful_ratio": ("ratio", lambda r: r["rules_changed"]
                         / max(1, r["stmts_applied"])),
    "pta.bytes_high_water": ("bytes", lambda r: r["bytes_high_water"]),
    "verify.certify_ms": ("ms", lambda r: ms(r, "certify_ns")),
    "verify.obligations": ("count", lambda r: r["obligations"]),
    "verify.facts_total": ("count", lambda r: r["facts_total"]),
    "flow.cfg_ms": ("ms", lambda r: ms(r, "flow_ns")),
    "flow.join_merges": ("count", lambda r: r["join_merges"]),
    "flow.sites_refined": ("count", lambda r: r["sites_refined"]),
    "flow.suppressed_ratio": ("ratio", lambda r: r["reports_suppressed"]
                              / max(1, r["baseline_reports"])),
    "check.run_ms": ("ms", lambda r: ms(r, "check_ns")),
    "check.findings": ("count", lambda r: r["findings"]),
    "check.sarif_ms": ("ms", lambda r: ms(r, "sarif_ns")),
    "check.sarif_kb": ("KB", lambda r: r["sarif_bytes"] / 1024.0),
    # The cli layer: the traced process's wall time outside the spans,
    # less the probe's own record-keeping.
    "bench.unspanned_ms": ("ms", lambda r: cli_equivalent_ms(r)
                           - spanned_ms(r)),
}


def layer_metrics(samples, traces):
    metrics = {name: statistics.median(fn(r) for r in traces)
               for name, (_, fn) in LAYER_METRICS.items()}
    metrics["bench.calib_ms"] = statistics.median(s["calib"] * 1e3
                                                  for s in samples)
    coverage = statistics.median(cli_equivalent_ms(r) / r["cli_ms"]
                                 for r in traces)
    shares = {s[:-3]: statistics.median(r[s] / 1e6 / spanned_ms(r)
                                        for r in traces)
              for s in SPANS}
    traced_ms = statistics.median(r["process_ms"] for r in traces)
    return metrics, {"cli_coverage": coverage, "span_shares": shares,
                     "traced_process_ms_p50": traced_ms}


def unit_of(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name == "bench.calib_ms":
        return "ms"
    return LAYER_METRICS[name][0]


def run(name, spec, seed, seconds, trace, bins=None, corrupt=None):
    """One benchmark run in the current directory. `corrupt`, if given, is
    applied to the references after set-up (the self-test's hook). Returns
    (result, details)."""
    bins = bins or build()
    pins = load_pins()
    runner = Runner(bins["runner"])
    try:
        setups = [set_up(name, spec, seed, bins, pins, runner)
                  for _ in range(SETUP_REPEATS)]
        schedule, refs, _, _ = setups[-1]
        setup_s = statistics.median(s[3] for s in setups)
        if corrupt:
            corrupt(refs)
        samples, traces, attempted, fails = measure(
            bins, runner, schedule, refs, seconds, trace)
    finally:
        runner.close()
    metrics, details = e2e_metrics(samples, setup_s)
    details.update(workload=name, seed=seed,
                   inputs=sorted({f for f, _, _ in schedule}),
                   setup_wall_s=statistics.median(s[2] for s in setups))
    if trace:
        metrics = {}
        if traces:
            metrics, extra = layer_metrics(samples, traces)
            details.update(extra)
            if extra["cli_coverage"] < MIN_CLI_COVERAGE:
                fails.low_coverage = 1
    failed = fails.total()
    details["failures"] = fails.as_dict()
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    return result, details


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        bins = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1
    work = tempfile.mkdtemp(prefix="work-", dir=build_dir())
    cwd = os.getcwd()
    os.chdir(work)
    try:
        result, details = run(args.workload, WORKLOADS[args.workload],
                              args.seed, args.seconds, args.trace, bins)
    except BenchError as e:
        print(str(e), file=sys.stderr)
        return 1
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
