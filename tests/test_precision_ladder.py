"""Forward error at size 1000: the 64-bit build against the 256-bit one.

Each group's loss is the largest p + log2 |x - y| / |y| over its values, x
from the 64-bit build and y from the 256-bit one (p = 64; an exact match
counts as no loss, and a nonzero x where y is zero fails at once).  A group
is one matrix's band (Q by its generators diag, sub and rho, as it is held)
or every tuple field of one ledger; ``residual`` is the residual report's
own bits lost, 64 + log2 of the largest residual of the 64-bit build.

Each budget is the measured loss rounded up to a whole bit, plus one bit.
The residual report does not bound the forward loss: near the support the
chain (L1, J2, R, Q) loses more bits than the residuals show, so the two
are pinned separately.
"""

import math

import pytest
from mpmath.libmp import mpf_sub, round_nearest

from helpers import scaled
from sobspec.core import MeasureSpec, SobolevSpec, arith, fields, replace
from sobspec.matrices import MatrixSuite, verify_propositions
from sobspec.sobolev import SobolevLedger

SIZE, LOW, HIGH = 1000, 64, 256

CONFIGS = {
    "worked-example": SobolevSpec(MeasureSpec.laguerre(0), -1, 1, 1),
    "near-support": SobolevSpec(MeasureSpec.laguerre(2), -1e-6, 1, 3),
}

#: config -> group -> bits; the measured loss is in each comment.
BUDGETS = {
    "worked-example": {
        "J": 1,  # exact
        "L": 4,  # 2.17
        "J1": 3,  # 2.00
        "L1": 7,  # 5.04
        "J2": 8,  # 6.05
        "J2_direct": 14,  # 12.46
        "Q": 9,  # 7.68
        "R": 7,  # 5.18
        "T": 14,  # 12.30
        "H": 14,  # 12.72
        "rec": 5,  # 3.53
        "kt": 11,  # 9.88
        "chris": 15,  # 13.06
        "sob": 18,  # 16.54
        "residual": 14,  # 12.48
    },
    "near-support": {
        "J": 1,  # -0.01
        "L": 8,  # 6.29
        "J1": 9,  # 7.07
        "L1": 15,  # 13.96
        "J2": 16,  # 14.96
        "J2_direct": 13,  # 11.72
        "Q": 17,  # 15.13
        "R": 15,  # 13.97
        "T": 13,  # 11.34
        "H": 13,  # 11.76
        "rec": 6,  # 4.08
        "kt": 17,  # 15.43
        "chris": 14,  # 12.48
        "sob": 15,  # 13.47
        "residual": 13,  # 11.70
    },
}


def loss(xs, ys):
    """The largest LOW + log2 |x - y| / |y| over the pairs, the difference
    rounded to HIGH bits and the logarithms taken of the mantissas."""
    worst = -math.inf
    for x, y in zip(xs, ys, strict=True):
        _, dm, de, _ = mpf_sub(x, y, HIGH, round_nearest)
        if dm:
            _, ym, ye, _ = y
            if not ym:
                return math.inf
            worst = max(worst, LOW + de - ye + math.log2(dm) - math.log2(ym))
    return worst


def matrix_values(m):
    if hasattr(m, "rho"):
        return [*m.diag, *m.sub, *m.rho]
    return [v for diagonal in m.diagonals for v in diagonal]


def ledger_values(ledger):
    """Every raw value of every tuple field, the kernel table's jet rows
    flattened, and a Sobolev ledger's auxiliary coefficients after its own."""
    values = []
    for name in fields(ledger):
        field = getattr(ledger, name)
        if isinstance(field, tuple):
            values += [v for row in field for v in row] if name == "cjets" else field
    if isinstance(ledger, SobolevLedger):
        values += ledger_values(ledger.auxiliary())
    return values


def stages(suite):
    kt = suite.sob.chris.kt
    return {"rec": kt.rec, "kt": kt, "chris": suite.sob.chris, "sob": suite.sob}


def losses(low, high):
    out = {name: loss(matrix_values(m), matrix_values(getattr(high, name)))
           for name, m in dict(low.named_matrices(), J2_direct=low.J2_direct).items()}
    highs = stages(high)
    out.update((name, loss(ledger_values(ledger), ledger_values(highs[name])))
               for name, ledger in stages(low).items())
    out["residual"] = LOW + float(arith(HIGH).ctx.log(verify_propositions(low).max_residual, 2))
    return out


@pytest.fixture(scope="module", params=list(CONFIGS))
def ladder(request):
    spec = CONFIGS[request.param]
    return request.param, *(MatrixSuite.build(spec, SIZE, precision=p) for p in (LOW, HIGH))


def test_every_group_stays_within_its_loss_budget(ladder):
    name, low, high = ladder
    measured = losses(low, high)
    assert measured.keys() == BUDGETS[name].keys()
    over = {group: bits for group, bits in measured.items() if not bits <= BUDGETS[name][group]}
    assert not over, f"{name}: bits lost beyond the budget: {over}"


def test_a_perturbed_ledger_field_exceeds_its_budget(ladder):
    # One Sobolev ledger value moved by 2^-40 relative loses 24 bits.
    name, low, high = ladder
    t = scaled(low.sob.t, SIZE // 2, 1 + arith(LOW).ctx.ldexp(1, -40), LOW)
    bad = replace(low.sob, t=t)
    assert loss(ledger_values(bad), ledger_values(high.sob)) > BUDGETS[name]["sob"]
