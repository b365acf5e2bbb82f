"""Benchmark of the greenbox CLI: time to verdict on four workloads.

Run from the repository root:

    python3 bench/run.py --workload verbs-small --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --record-outputs

The CLI is driven in-process through ``greenbox.cli.main``, from one process
and one thread.  With ``--trace 0`` a run reports the end-to-end metrics:

    setup_s      median set-up time of a fresh interpreter: import greenbox,
                 then load_config and RunConfig.extension() for the
                 workload's configs (setup_probe.py)
    pass_s       median time of one pass over the workload's invocations
                 (the user's time to verdict); passes repeat until --seconds
                 have gone by and at least MIN_PASSES were made
    peak_rss_mb  peak resident memory of this process

setup_s and pass_s are wall seconds rescaled to a fixed host speed, which
is sampled while they run (hostspeed.py); the wall-time medians are printed
beside them.

With ``--trace 1`` it reports the per-layer metrics instead, from the micro
layer (micro.py), one untraced pass and one traced pass (tracing.py); the
spans go to bench/out/.  Every invocation must exit 0, fuzz must print
``result: PASS``, and the stdout of every invocation that takes no seed must
match its SHA-256 in expected_sha256.json; a failing invocation is counted,
its time is kept, and nothing is retried.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected_sha256.json"
OUT = BENCH / "out"

SHIPPED = ("configs/artin_schreier_f2.cfg", "configs/kummer_f5_n2.cfg",
           "configs/kummer_f5_n4.cfg", "configs/kummer_f7_n3.cfg")
C5 = "bench/configs/kummer_f11_n5.cfg"
C6 = "bench/configs/kummer_f13_n6.cfg"
F9 = "bench/configs/kummer_f9_n4.cfg"
REPORT_TEXT = ("report", "--format", "text")
PIPELINE_VERBS = (("check-etale",), ("box",), ("decompose",), REPORT_TEXT,
                  ("report", "--format", "json"))

# workload -> (why it was chosen, configs whose set-up setup_s measures).
# BENCHMARK.json gates on verbs-small and fuzz-c5, which between them reach
# every layer; report-c6 and report-f9 run by name or with --workload all.
WORKLOADS = {
    "report-c6": (
        "One large problem with a composite group order; the box descent "
        "checks and the coequalizer oracle do about 85% of the work.",
        (C6,)),
    "verbs-small": (
        "All five verbs on the shipped configs and C_5/F_11: many small "
        "problems, where descent checks, both box oracles, emit and per-call "
        "costs all weigh.",
        SHIPPED + (C5,)),
    "report-f9": (
        "Scalars in F_9, not a prime field: both box oracles are skipped and "
        "the etale congruences dominate; a prime-field fast path bypasses it.",
        (F9,)),
    "fuzz-c5": (
        "fuzz plain and --corrupt on C_5/F_11: the only workload where mackey "
        "works, with many tiny boxes checked against the prime oracle.",
        (C5,)),
}
MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 4


def invocations(workload: str, seed: int) -> list:
    """CLI arguments of one pass, config path last and relative to ROOT.

    The seed is the call order of verbs-small and the seed of fuzz-c5's
    corrupt-mode call; the two report workloads have one fixed input."""
    if workload == "report-c6":
        return [REPORT_TEXT + (C6,)]
    if workload == "report-f9":
        return [REPORT_TEXT + (F9,)]
    if workload == "fuzz-c5":
        # Plain mode keeps the config's own seed and count: its time is
        # mostly ten boxed pairs whose cost ranges from 0.1 to 2 s with the
        # seed, so a seeded input would make the workload, not the code, vary.
        return [("fuzz", C5), ("fuzz", "--seed", str(seed), "--corrupt", C5)]
    calls = [verb + (cfg,) for cfg in WORKLOADS["verbs-small"][1]
             for verb in PIPELINE_VERBS]
    random.Random(seed).shuffle(calls)
    return calls


def call(inv) -> tuple:
    """Run ``greenbox.cli.main`` in-process: (exit code, stdout, stderr)."""
    from greenbox.cli import main
    argv = list(inv[:-1]) + [str(ROOT / inv[-1])]
    # report writes bytes to sys.stdout.buffer, the other verbs write text
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
    out.flush()
    return rc, out.buffer.getvalue(), err.getvalue()


def run_pass(invs) -> tuple:
    """Wall seconds of one pass, and each invocation's result."""
    gc.collect()
    t0 = perf_counter()
    results = [call(inv) for inv in invs]
    return perf_counter() - t0, results


def sampled_pass(invs) -> tuple:
    """One pass with the host speed sampled: (seconds at the reference
    speed, wall seconds outside the probes, each invocation's result)."""
    gc.collect()
    with hostspeed.Sampler() as sampler:
        t0 = perf_counter()
        results = [call(inv) for inv in invs]
        t1 = perf_counter()
    return sampler.scaled(t0, t1), sampler.unscaled(t0, t1), results


def check(inv, rc, out: bytes, expected: dict):
    """None when the invocation succeeded, else what went wrong."""
    if rc != 0:
        return f"exit code {rc}"
    if inv[0] == "fuzz" and not out.endswith(b"result: PASS\n"):
        return "fuzz did not print result: PASS"
    want = expected.get(" ".join(inv))
    if want is None and "--seed" not in inv:
        return "no recorded SHA-256 for this invocation"
    if want is not None and hashlib.sha256(out).hexdigest() != want:
        return "stdout differs from the recorded SHA-256"
    return None


class Tally:
    """Invocations attempted and failed; the first failures go to stderr."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def record(self, invs, results) -> None:
        for inv, (rc, out, err) in zip(invs, results):
            self.attempted += 1
            problem = check(inv, rc, out, self.expected)
            if problem:
                self.failed += 1
                if self.failed <= 3:
                    sys.stderr.write(f"FAILED {' '.join(inv)}: {problem}\n"
                                     f"{err[-2000:]}")


def print_timing(name, values, unit) -> None:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    print(f"{name:12s} median {q2:.4f} {unit}  "
          f"(q1 {q1:.4f}, q3 {q3:.4f}; {len(values)} samples)")


def setup_times(configs, count) -> tuple:
    """Set-up seconds of ``count`` fresh interpreters: (at the reference
    speed, wall)."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)] + \
        [str(ROOT / c) for c in configs]
    scaled, wall = [], []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              check=True, timeout=120)
        s, w = done.stdout.split()
        scaled.append(float(s))
        wall.append(float(w))
    return scaled, wall


def timed_run(workload, seed, seconds, tally) -> dict:
    invs = invocations(workload, seed)
    configs = WORKLOADS[workload][1]
    setup, setup_wall, passes, passes_wall = [], [], [], []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        # set-up probes go between passes, so both sample the whole run
        scaled, wall = setup_times(configs, SETUP_PROBES_PER_PASS)
        setup += scaled
        setup_wall += wall
        scaled, wall, results = sampled_pass(invs)
        passes.append(scaled)
        passes_wall.append(wall)
        tally.record(invs, results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print_timing("setup_s", setup, "s")
    print_timing("  wall", setup_wall, "s")
    print_timing("pass_s", passes, "s")
    print_timing("  wall", passes_wall, "s")
    print(f"{'peak_rss_mb':12s} {rss_mb:.1f} MB  (1 sample)")
    return {"setup_s": (statistics.median(setup), "s"),
            "pass_s": (statistics.median(passes), "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def traced_run(workload, seed, tally) -> dict:
    import greenbox.report
    import micro
    import tracing

    metrics = micro.field_ops(seed)
    metrics.update(micro.elimination(seed))
    invs = invocations(workload, seed)
    untraced, results = run_pass(invs)
    tally.record(invs, results)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        traced, results = run_pass(invs)
    tally.record(invs, results)

    # the same relative boxes again without their descent checks
    probe = tracing.Tracer()
    with tracing.instrumented(probe):
        for args, kwargs, _ in tracer.kept["boxes.relative_box"]:
            greenbox.report.relative_box(*args, **{**kwargs, "check": False})
    nocheck = tracing.aggregate(probe.spans).get(
        "boxes.relative_box", (0, 0.0))[1]

    metrics.update(tracing.layer_metrics(tracer, nocheck))
    metrics["trace.overhead_s"] = traced - untraced
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}-seed{seed}.trace.jsonl"
    tracing.write_jsonl(spans_path, tracer.spans)
    print(f"untraced pass {untraced:.4f} s, traced pass {traced:.4f} s, "
          f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    print("\n".join(tracing.span_table(tracer)))
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def _unit(name: str) -> str:
    for suffix, unit in (("_ns", "ns"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def record_outputs() -> int:
    """Write expected_sha256.json from the current sources: the SHA-256 of
    every invocation whose output does not depend on the seed."""
    expected = {}
    for workload in WORKLOADS:
        for inv in invocations(workload, 0):
            if "--seed" in inv:
                continue
            rc, out, err = call(inv)
            if rc != 0:
                sys.stderr.write(f"{' '.join(inv)}: exit {rc}\n{err}")
                return 1
            expected[" ".join(inv)] = hashlib.sha256(out).hexdigest()
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    rc = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=900)
        rc = rc or done.returncode
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-outputs", action="store_true",
                        help="record the SHA-256 of the stdout of every "
                             "invocation that takes no seed, and exit")
    args = parser.parse_args(argv)
    if not args.record_outputs and args.workload is None:
        parser.error("--workload is required")

    package = SRC / "greenbox"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"error: no greenbox sources in {package}\n")
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import greenbox
    if Path(greenbox.__file__).resolve().parent != package:
        sys.stderr.write(f"error: imported greenbox from {greenbox.__file__}"
                         f", not from {package}\n")
        return 2

    if args.record_outputs:
        return record_outputs()
    if args.workload == "all":
        return run_all(args)

    print(f"bench: workload {args.workload}, seed {args.seed}, trace "
          f"{args.trace}, python {sys.version.split()[0]}, "
          f"{os.cpu_count()} cpus")
    tally = Tally(json.loads(EXPECTED.read_text()))
    if args.trace:
        metrics = traced_run(args.workload, args.seed, tally)
    else:
        metrics = timed_run(args.workload, args.seed, args.seconds, tally)
    print(f"{'ops_failed':12s} {tally.failed / tally.attempted:.4f} share  "
          f"({tally.failed} of {tally.attempted} invocations failed)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
