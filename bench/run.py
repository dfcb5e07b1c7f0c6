"""twistpf benchmark: run one workload for a fixed time and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload lag-study --seed 1 --seconds 25 --trace 0

The seed makes the workload's inputs (windows and replicate streams); the
program under test is imported from ``src/`` of the same checkout. A run

1. times the set-up (importing twistpf and building the workload's inputs)
   in fresh processes, several times, and keeps the median;
2. repeats a pass of the workload's experiment calls until ``--seconds``
   are used; the first pass's outputs are checked against exact references,
   and every later pass must write the same CSV bytes;
3. runs the workload's untimed final checks, if any;
4. prints every metric with its unit, an ``info`` line (machine, versions,
   ``src/`` size, CSV digests, extrapolated acceptance-criterion times) and,
   last, one JSON result line.

With ``--trace 1`` every second pass runs under the outside-in tracer
(``tracer.py``); the result line then carries the per-layer metrics and the
tracing overhead (traced minus untraced pass time), and the spans are written
to ``.bench_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7
MIN_PASSES = 3          # timed passes per run, at least
MIN_TRACED = 2          # of each kind in a traced run
PROBE_TIMEOUT_S = 120


def _use_checkout_sources() -> None:
    """Import twistpf from this checkout's ``src/`` only, or stop."""
    if not os.path.isfile(os.path.join(SRC, "twistpf", "__init__.py")):
        sys.exit(f"bench: no twistpf sources under {SRC}")
    sys.path.insert(0, SRC)


def _setup_probe(workload: str, seed: int) -> None:
    """Child-process body: time a cold import plus the workload's set-up."""
    start = time.perf_counter()
    from workloads import WORKLOADS     # imports numpy and twistpf

    WORKLOADS[workload].build(seed)
    print(repr(time.perf_counter() - start))


def _setup_seconds(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _csv_digests(out_dir: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


class Checks:
    def __init__(self):
        self.rows: list[tuple[str, bool, str]] = []

    def report(self, name: str, ok: bool, detail: str) -> None:
        self.rows.append((name, bool(ok), detail))
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.rows)


def _run_pass(twistpf, calls, out_dir: str, tracer=None):
    """One study pass: every experiment call, in order; returns wall times."""
    results, call_s = [], []
    for entry, cfg in calls:
        fn = getattr(twistpf, entry)
        start = time.perf_counter()
        if tracer is None:
            results.append(fn(cfg, out_dir))
        else:
            with tracer.span(f"harness.{entry}"):
                results.append(fn(cfg, out_dir))
        call_s.append(time.perf_counter() - start)
    return sum(call_s), call_s, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_checkout_sources()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    import numpy
    import scipy

    import twistpf
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    setup = [] if args.trace else _setup_seconds(args.workload, args.seed)
    inputs = wl.build(args.seed)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    checks = Checks()
    try:
        passes = []             # (traced, pass seconds, per-call seconds)
        started = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.run_id = len(passes)
                tracer.install()
            try:
                pass_s, call_s, pass_results = _run_pass(twistpf, inputs.calls, out_dir,
                                                         tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append((traced, pass_s, call_s))
            if len(passes) == 1:
                results = pass_results
                digests = _csv_digests(out_dir)
                check_info = wl.check(inputs, results, out_dir, checks.report)
            else:
                checks.report(f"pass{len(passes)}.csv_bytes_identical",
                              _csv_digests(out_dir) == digests,
                              "CSV bytes equal to the checked first pass"
                              + (" (traced)" if traced else ""))
            n_traced = sum(t for t, _, _ in passes)
            n_plain = len(passes) - n_traced
            enough = n_plain >= MIN_PASSES if tracer is None else (
                n_traced >= MIN_TRACED and n_plain >= MIN_TRACED)
            elapsed = time.perf_counter() - started
            typical = statistics.median(p for _, p, _ in passes)
            if enough and elapsed + typical > args.seconds:
                break
        if wl.final is not None:
            wl.final(inputs, results, out_dir, checks.report)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    plain = [p for t, p, _ in passes if not t]
    plain_calls = [c for t, _, c in passes if not t]
    study_s = statistics.median(plain)
    metrics = {}
    samples = {}
    if args.trace:
        from layers import layer_metrics

        traced_s = statistics.median(p for t, p, _ in passes if t)
        metrics, samples = layer_metrics(tracer, n_traced)
        metrics["trace.study_s_traced"] = (traced_s, "s")
        metrics["trace.study_s_untraced"] = (study_s, "s")
        metrics["trace.overhead_s"] = (traced_s - study_s, "s")
        metrics["trace.overhead_frac"] = ((traced_s - study_s) / study_s, "ratio")
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
    else:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["study_s"] = (study_s, "s")
        metrics["particle_steps_per_s"] = (wl.particle_steps / study_s, "1/s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    call_median = [statistics.median(c[i] for c in plain_calls)
                   for i in range(len(inputs.calls))]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "twistpf": twistpf.__version__,
        "src_lines": _src_lines(),
        "passes_untraced": plain,
        "passes_traced": [p for t, p, _ in passes if t],
        "setup_samples_s": setup,
        "call_median_s": {f"{i}:{cfg.get('name', entry)}": s
                          for i, ((entry, cfg), s) in enumerate(zip(inputs.calls, call_median))},
        "particle_steps_per_pass": wl.particle_steps,
        "csv_sha256": digests,
        "checks_attempted": len(checks.rows),
        "checks_failed": checks.failed,
        "failed_frac": checks.failed / len(checks.rows),
        **check_info,
    }
    if wl.extrapolate is not None:
        label, call_idx, scale = wl.extrapolate
        info[label] = scale * sum(call_median[i] for i in call_idx)
    if samples:
        info["trace_samples"] = samples
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"info-{args.workload}.json"), "w") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": len(checks.rows),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
