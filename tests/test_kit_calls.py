"""Kit calls of a build and its verification, per layer and per operation.

The counts are exact and machine-free, so they show a change of cost that
timings on a noisy machine cannot resolve.  They are pinned as upper bounds:
a count may fall, and a rise is a deliberate edit of a bound."""

from collections import Counter

from helpers import logged_kit
from sobspec.christoffel import ChristoffelLedger
from sobspec.core import MeasureSpec
from sobspec.kernels import KernelTable
from sobspec.matrices import MatrixSuite, verify_propositions
from sobspec.sobolev import SobolevLedger

#: A call counts for the innermost of these functions on its stack; "chain"
#: is every matrix that ``MatrixSuite.build`` forms from the ledgers.
LAYERS = {
    MeasureSpec.recurrence.__code__: "recurrence",
    KernelTable.build.__func__.__code__: "kernel table",
    KernelTable.rho.func.__code__: "rho",
    ChristoffelLedger.build.__func__.__code__: "christoffel",
    SobolevLedger.build.__func__.__code__: "sobolev",
    MatrixSuite.build.__func__.__code__: "chain",
    verify_propositions.__code__: "verify",
}

#: The calls of the worked example at size 100 and 256 bits (104 rows built).
BOUNDS = {
    "recurrence": {"add": 218, "div": 109, "mul": 216, "sqrt": 109},
    "kernel table": {"add": 435, "div": 109, "mul": 1194, "sub": 324},
    "rho": {"div": 108, "sqrt": 108},
    "christoffel": {"add": 105, "div": 952, "gt": 742, "mul": 1484, "neg": 272, "sub": 425},
    "sobolev": {"add": 951, "div": 738, "gt": 106, "mul": 3376, "neg": 105, "sqrt": 106,
                "sub": 318},
    "chain": {"add": 828, "div": 516, "gt": 208, "mul": 1343, "neg": 103, "sqrt": 414,
              "sub": 517},
    "verify": {"add": 208, "div": 309, "mul": 308, "neg": 103},
}


def test_a_build_and_its_verification_make_no_more_kit_calls_than_pinned(spec, monkeypatch):
    calls = logged_kit(monkeypatch, 256, LAYERS)
    verify_propositions(MatrixSuite.build(spec, size=100, precision=256))
    counts = Counter((layer, name) for name, _, _, layer in calls)
    assert {layer for layer, _ in counts} == set(BOUNDS)
    over = {key: n for key, n in counts.items() if n > BOUNDS[key[0]].get(key[1], 0)}
    assert not over, f"kit calls above their bounds: {over}"
