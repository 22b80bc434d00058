"""Compare two sets of benchmark records, metric by metric.

Usage:

    python3 perfbench/compare.py --base A1.json A2.json ... --head B1.json ...

Each file is a record ``run.py`` writes to ``.bench_out/``.  For every
(workload, metric) pair it prints the median of each side, their ratio and
each side's quartile spread as a share of its median.  Records whose mpmath
backends differ are refused: pure-Python and gmpy2 arithmetic differ by
large factors, so such numbers do not compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(paths):
    out = defaultdict(lambda: defaultdict(list))
    backends = set()
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        backends.add(record["fingerprint"]["mpmath_backend"])
        for name, metric in record["result"]["metrics"].items():
            out[record["workload"]][name].append(metric["value"])
    return out, backends


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, base_backends = load(args.base)
    head, head_backends = load(args.head)
    backends = base_backends | head_backends
    if len(backends) != 1:
        print(f"refusing to compare: mpmath backends differ {sorted(backends)}",
              file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':44s} {'base':>12s} {'head':>12s} "
          f"{'head/base':>9s} {'spread b':>8s} {'spread h':>8s}")
    for workload in sorted(base.keys() & head.keys()):
        for name in base[workload]:
            if name not in head[workload]:
                continue
            b, sb = spread(base[workload][name])
            h, sh = spread(head[workload][name])
            ratio = h / b if b else float("nan")
            print(f"{workload:14s} {name:44s} {b:12.6g} {h:12.6g} {ratio:9.4f} "
                  f"{sb:8.4f} {sh:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
