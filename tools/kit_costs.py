#!/usr/bin/env python3
"""Time the mpf scalar kit's operations on the operands a build gives them.

For each precision, one size-100 build of the worked example (Laguerre
alpha = 0, c = -1, M = N = 1) and its ``verify_propositions`` run through a
kit that records every call of ``arith(p)``'s operations.  Each operation's
recorded operands are then replayed through the kit alone, best of
``--repeat`` passes, and a table gives per precision and operation the calls
per op (one build and verify), the ns per call and the ms per op: the time
the rounded arithmetic alone costs, apart from the loops around it.  Stdlib
and the package only::

    python3 tools/kit_costs.py                      # 64, 256 and 1024 bits
    python3 tools/kit_costs.py --repeat 3 256       # one precision, 3 passes
"""

import argparse
import dataclasses
import sys
import time
from collections import deque
from itertools import starmap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sobspec import core  # noqa: E402
from sobspec.core import MeasureSpec, SobolevSpec, arith  # noqa: E402
from sobspec.matrices import MatrixSuite, verify_propositions  # noqa: E402

OPERATIONS = ("add", "sub", "mul", "div", "neg", "sqrt", "gt")
SIZE = 100


def record(precision):
    """{operation: [operands of each call]} of one build and verify at ``precision``."""
    kit, calls = arith(precision), {name: [] for name in OPERATIONS}

    def logged(name):
        op, log = getattr(kit, name), calls[name].append

        def call(*args):
            log(args)
            return op(*args)
        return call

    core._ARITHS[precision] = dataclasses.replace(
        kit, **{name: logged(name) for name in OPERATIONS})
    try:
        spec = SobolevSpec(MeasureSpec.laguerre(0), c=-1, M=1, N=1)
        verify_propositions(MatrixSuite.build(spec, SIZE, precision=precision))
    finally:
        core._ARITHS[precision] = kit
    return calls


def replay(op, operands, repeat):
    """The best time in ns of ``op`` over every recorded operand tuple."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter_ns()
        deque(starmap(op, operands), maxlen=0)
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("precisions", nargs="*", type=int, default=[64, 256, 1024])
    parser.add_argument("--repeat", type=int, default=20, help="replay passes (best is kept)")
    args = parser.parse_args(argv)
    print(f"{'bits':>5}  {'operation':<9}  {'calls/op':>8}  {'ns/call':>8}  {'ms/op':>7}")
    for precision in args.precisions:
        kit, total_calls, total_ns = arith(precision), 0, 0
        for name, operands in record(precision).items():
            ns = replay(getattr(kit, name), operands, max(1, args.repeat))
            total_calls += len(operands)
            total_ns += ns
            per_call = ns / len(operands) if operands else 0
            print(f"{precision:>5}  {name:<9}  {len(operands):>8}  {per_call:>8.0f}  "
                  f"{ns / 1e6:>7.3f}")
        print(f"{precision:>5}  {'total':<9}  {total_calls:>8}  {'':>8}  {total_ns / 1e6:>7.3f}")


if __name__ == "__main__":
    main()
