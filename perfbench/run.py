"""sobspec benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload chain_verify --seed 1 --seconds 25 --trace 0

It imports sobspec from the checkout's ``src`` (no install needed), runs
whole cycles of ops for at least ``--seconds`` seconds of wall time (output
checks included; the op timings exclude them and are calibrated against the
machine's speed, see calibrate.py), and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` it
runs each op of one cycle untraced and traced and reports the per-layer
metrics.
The line before it holds the machine fingerprint and the run's details,
which are also written with the spans to ``.bench_out/`` in the checkout.
See README.md next to this file for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from calibrate import Calibrator
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up runs in fresh interpreters; setup_s is the median of this many.
SETUP_PROBES = 7
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "residual_bits_lost_max": "bits",
}

# Per-layer metrics, all per traced op except cli.import_s, the ratios, the
# .errors totals and trace.missing_targets.
PER_LAYER = {
    "core.recurrence.busy_s": "s",
    "kernels.KernelTable.build.busy_s": "s",
    "christoffel.ChristoffelLedger.build.busy_s": "s",
    "sobolev.SobolevLedger.build.busy_s": "s",
    "matrices.build_jacobi.busy_s": "s",
    "matrices.build_iterated_jacobi.busy_s": "s",
    "matrices.cholesky_shifted.busy_s": "s",
    "matrices.commute_cholesky.busy_s": "s",
    "matrices.qr_pair.busy_s": "s",
    "matrices.build_T.busy_s": "s",
    "matrices.build_H.busy_s": "s",
    "matrices.MatrixSuite.build.self_s": "s",
    "matrices.verify_propositions.self_s": "s",
    "matrices.multiply.busy_s": "s",
    "matrices.multiply.calls": "count",
    "matrices.multiply.madds": "count",
    "matrices.block_residual.busy_s": "s",
    "matrices.block_residual.entries": "count",
    "matrices.stored_entries": "count",
    "matrices.band_entries": "count",
    "matrices.band_fill_ratio": "ratio",
    "oracle.build_oracle_suite.busy_s": "s",
    "oracle.build_oracle_suite.calls": "count",
    "oracle.exact_entries": "count",
    "serialize.matrix_to_json.busy_s": "s",
    "serialize.ledgers_to_doc.busy_s": "s",
    "serialize.bytes": "bytes",
    "golden.load_reference.busy_s": "s",
    "cli.import_s": "s",
    "cli.generate.busy_s": "s",
    "cli.verify.busy_s": "s",
    "cli.reproduce_paper.busy_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.op_s_p50": "s",
    "trace.overhead_ratio": "ratio",
    "trace.missing_targets": "count",
}


def fingerprint():
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or cpu
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def setup_seconds(workload_name):
    """Median set-up time over fresh interpreters: (calibrated, raw)."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    cal = Calibrator()
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(probe), workload_name],
                              capture_output=True, text=True, check=True)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * cal.scale(raw[-1]))
    return statistics.median(scaled), statistics.median(raw)


def wall_time(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def traced_measure(tracer, index):
    """A ``measure`` that runs the op as traced op ``index`` under an "op" span."""
    def measure(fn):
        tracer.op, tracer.active = index, True
        try:
            with tracer.span("op"):
                return wall_time(fn)
        finally:
            tracer.active = False
    return measure


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Run:
    """Op timings, failures and check results of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []
        self.attempted = 0
        self.failures = []
        self.bits = []

    def op(self, inp, measure=wall_time):
        """Run, time and check one op; None if it failed, else its seconds.

        ``measure(fn)`` returns ``(fn(), seconds)``.
        """
        self.attempted += 1
        try:
            out, elapsed = measure(lambda: self.workload.run(inp))
            bits = self.workload.check(inp, out)
        except Exception as exc:  # any failure of an op is counted, not fatal
            self.failures.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        self.times.append(elapsed)
        if bits is not None:
            self.bits.append(bits)
        return elapsed

    @property
    def failed(self):
        return len(self.failures)


def timed_run(workload, seconds):
    run = Run(workload)
    inputs = workload.inputs()
    cal = Calibrator()
    scaled = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for _ in range(workload.cycle):
            elapsed = run.op(next(inputs))
            factor = cal.scale(elapsed or 0.0)
            if elapsed is not None:
                scaled.append(elapsed * factor)
    wall = time.perf_counter() - start
    metrics = {
        "ops_per_s": len(scaled) / sum(scaled) if scaled else 0.0,
        "op_s_p50": statistics.median(scaled) if scaled else 0.0,
        "peak_rss_mb": peak_rss_mb(children=not workload.in_process),
        "residual_bits_lost_max": max(run.bits) if run.bits else 0.0,
    }
    details = {
        "wall_s": wall,
        "op_samples": len(scaled),
        "fail_ratio": run.failed / run.attempted,
        "failures": run.failures[:10],
        "raw_op_s_p50": statistics.median(run.times) if run.times else 0.0,
        "raw_op_s": run.times,
        "op_s": scaled,
    }
    if len(scaled) >= P90_MIN_OPS:
        details["op_s_p90"] = statistics.quantiles(scaled, n=10)[-1]
    return run, metrics, details


def traced_run(workload):
    """One cycle of ops, each run untraced and traced; per-layer metrics per op.

    The two runs of an op are adjacent, in alternating order, and the
    overhead ratio is the median over ops of their calibrated ratio, so that
    a change of machine speed stays out of it.  Untraced ops pass through
    the wrappers with recording off.
    """
    inputs = workload.inputs()
    ops = [next(inputs) for _ in range(workload.cycle)]
    run = Run(workload)
    traced = Run(workload)
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    cal = Calibrator()
    ratios = []
    try:
        for index, inp in enumerate(ops):
            pair = [(run, wall_time), (traced, traced_measure(tracer, index))]
            if index % 2:
                pair.reverse()
            scaled = {}
            for each, measure in pair:
                elapsed = each.op(inp, measure)
                factor = cal.scale(elapsed or 0.0)
                if elapsed is not None:
                    scaled[each] = elapsed * factor
            if len(scaled) == 2:
                ratios.append(scaled[traced] / scaled[run])
    finally:
        tracer.uninstall()
        workload.tracer = None
    untraced = statistics.median(run.times) if run.times else 0.0
    run.attempted += traced.attempted
    run.failures += traced.failures
    traced_p50 = statistics.median(traced.times) if traced.times else 0.0

    n = len(ops)
    metrics = {key: value / n for key, value in tracer.counts.items()}
    for name, (total, own, calls) in tracer.busy().items():
        metrics[f"{name}.busy_s"] = total / n
        metrics[f"{name}.self_s"] = own / n
        metrics[f"{name}.calls"] = calls / n
    stored = tracer.counts.get("matrices.stored_entries", 0)
    metrics["matrices.band_fill_ratio"] = (
        tracer.counts.get("matrices.band_entries", 0) / stored if stored else 0.0)
    metrics.update({f"{layer}.errors": count for layer, count in tracer.errors.items()})
    metrics["cli.import_s"] = setup_seconds("cli_exact")[1]
    metrics["trace.op_s_p50"] = traced_p50
    metrics["trace.overhead_ratio"] = statistics.median(ratios) if ratios else 0.0
    metrics["trace.missing_targets"] = len(tracer.missing)
    details = {
        "untraced_op_s_p50": untraced,
        "traced_ops": n,
        "missing": tracer.missing,
        "hook_errors": sorted(tracer.hook_errors),
        "fail_ratio": run.failed / run.attempted,
        "failures": run.failures[:10],
        "trace": tracer.as_doc(),
    }
    # Layers an op did not reach, and missing targets, read 0.
    return run, {k: metrics.get(k, 0.0) for k in PER_LAYER}, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sobspec" / "__init__.py").is_file():
        print(f"error: no sobspec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import sobspec

    if Path(sobspec.__file__).resolve().parent != (SRC / "sobspec").resolve():
        print(f"error: imported sobspec from {sobspec.__file__}", file=sys.stderr)
        return 2

    # One CPU for the run and its subprocesses, so that the calibration loop
    # times the CPU the ops ran on: the vCPUs change speed independently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        workload.in_process = bool(args.trace) or args.workload != "cli_exact"
        if args.trace:
            workload.set_up()
            run, metrics, details = traced_run(workload)
            units = PER_LAYER
        else:
            setup, raw_setup = setup_seconds(args.workload)
            workload.set_up()
            run, metrics, details = timed_run(workload, args.seconds)
            metrics["setup_s"] = setup
            details["raw_setup_s"] = raw_setup
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "details": details,
        "result": {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    details.pop("trace", None)
    print(json.dumps({"fingerprint": record["fingerprint"], "details": details,
                      "record": str(path.relative_to(ROOT))}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
