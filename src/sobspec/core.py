"""Measures and the standard orthonormal polynomial system.

Monic families are generated from their three-term recurrence
``x P_n = P_{n+1} + beta_n P_n + gamma_n P_{n-1}``; squared norms follow from
``||P_{n+1}||^2 = gamma_{n+1} ||P_n||^2`` and orthonormal values from the
positive leading coefficients ``r_n = 1/||P_n||``.

All real computation uses mpmath binary floats at a configurable precision
(default 256 bits).  Precision is a value: every number is made in
``context(precision)``, a private mpmath context that is never mutated, and
an mpf operation rounds in its left operand's context.  So results do not
depend on ``mp.mp.prec``, tables are immutable, evaluations are pure, and
builds at different precisions may run concurrently in several threads.

``EXACT`` is the infinite precision: ``context(EXACT)`` holds exact signed
square roots of rationals (:class:`sobspec.oracle.SqrtRational`), so the
matrix chain of :mod:`sobspec.matrices` runs unchanged over them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import InvalidParameterError

DEFAULT_PRECISION = 256

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Exact arithmetic as a precision: larger than every bit count.
EXACT = POS_INF


def _require_finite_real(name, value):
    if not isinstance(value, numbers.Real) or not mp.isfinite(value):
        raise InvalidParameterError(f"{name} must be a finite real number, got {value!r}")


_CONTEXTS = {}


def context(precision):
    """The private mpmath context of ``precision`` bits: made once, never
    mutated, and kept unique by ``setdefault`` when threads race to make it.

    ``context(EXACT)`` is the exact scalar protocol instead: ``zero``,
    ``one``, ``sqrt`` and ``mpf`` (conversion) over ``SqrtRational``."""
    ctx = _CONTEXTS.get(precision)
    if ctx is None:
        if precision == EXACT:
            from .oracle import EXACT_CONTEXT as ctx  # lazy: oracle imports core
        else:
            ctx = mp.MPContext()
            ctx.prec = precision
        ctx = _CONTEXTS.setdefault(precision, ctx)
    return ctx


def to_mpf(x, ctx):
    """Convert ints, floats, Fractions, decimal strings or mpf to an mpf of
    ``ctx`` (ints and Fractions to a ``SqrtRational`` of ``context(EXACT)``);
    an mpf keeps its bits."""
    if hasattr(x, "_mpf_"):
        return ctx.make_mpf(x._mpf_)
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / x.denominator
    return ctx.mpf(x)


@dataclass(frozen=True)
class MeasureSpec:
    """A base measure: a classical family or caller-supplied recurrence data.

    ``support`` is the (lo, hi) interval carrying the measure, endpoints
    possibly infinite.  Custom measures must supply the monic recurrence
    coefficients directly; moment-based recovery lives only in the oracle.
    """

    family: str
    alpha: float | None = None
    beta: tuple | None = None
    gamma: tuple | None = None
    norm0_sq: object = 1
    support: tuple = (NEG_INF, POS_INF)

    @classmethod
    def laguerre(cls, alpha):
        _require_finite_real("alpha", alpha)
        if not alpha > -1:
            raise InvalidParameterError(f"Laguerre needs alpha > -1, got {alpha}")
        return cls(family="laguerre", alpha=alpha, support=(0.0, POS_INF))

    @classmethod
    def custom(cls, beta, gamma, support, norm0_sq=1):
        """A measure from its monic recurrence.  ``MatrixSuite.build`` at
        ``size`` and ``guard`` needs size + guard + 5 coefficients; only the
        serialized recurrence ledger shows those past index size + guard + 2."""
        beta, gamma = tuple(beta), tuple(gamma)
        if len(beta) != len(gamma):
            raise InvalidParameterError("beta and gamma must have equal length")
        if len(beta) < 1:
            raise InvalidParameterError("need at least one recurrence coefficient")
        for n in range(1, len(gamma)):
            if not gamma[n] > 0:
                raise InvalidParameterError(f"gamma[{n}] = {gamma[n]} must be positive")
        return cls(
            family="custom",
            beta=beta,
            gamma=gamma,
            norm0_sq=norm0_sq,
            support=tuple(support),
        )

    def recurrence(self, size, precision=DEFAULT_PRECISION):
        """The recurrence table of ``size`` rows.  Laguerre, x^alpha e^(-x) on
        (0, inf): beta_n = 2n + 1 + alpha, gamma_n = n (n + alpha) and
        ||P_0||^2 = Gamma(alpha + 1)."""
        if size < 1:
            raise InvalidParameterError("size must be >= 1")
        ctx = context(precision)
        if self.family == "laguerre":
            a = to_mpf(self.alpha, ctx)
            beta = tuple(2 * n + 1 + a for n in range(size))
            gamma = (ctx.zero,) + tuple(n * (n + a) for n in range(1, size))
            norm0_sq = ctx.gamma(a + 1)
        elif self.family == "custom":
            if size > len(self.beta):
                raise InvalidParameterError(
                    f"custom measure supplies {len(self.beta)} coefficients, need {size}")
            beta = tuple(to_mpf(b, ctx) for b in self.beta[:size])
            gamma = (ctx.zero,) + tuple(to_mpf(g, ctx) for g in self.gamma[1:size])
            norm0_sq = to_mpf(self.norm0_sq, ctx)
        else:
            raise InvalidParameterError(f"unknown measure family {self.family!r}")
        norm_sq = [norm0_sq]
        for n in range(1, size):
            norm_sq.append(gamma[n] * norm_sq[-1])
        return RecurrenceTable(beta, gamma, tuple(norm_sq),
                               tuple(1 / ctx.sqrt(s) for s in norm_sq), precision,
                               self.support)


@dataclass(frozen=True)
class SobolevSpec:
    """Mass-point data (c, M, N) attached to a base measure.

    Defines the inner product  <f, g> = int f g dmu + M f(c) g(c) + N f'(c) g'(c)
    with finite real c, M and N, M, N >= 0 and c strictly outside the support
    of the base measure.
    """

    measure: MeasureSpec
    c: object
    M: object
    N: object

    def __post_init__(self):
        for name in ("c", "M", "N"):
            _require_finite_real(name, getattr(self, name))
        if not self.M >= 0 or not self.N >= 0:
            raise InvalidParameterError("M and N must be nonnegative")
        lo, hi = self.measure.support
        if not (self.c < lo or self.c > hi):
            raise InvalidParameterError(
                f"mass point c = {self.c} must lie outside the support {self.measure.support}"
            )

    @property
    def side(self):
        """'left' if c lies below the support, 'right' if above."""
        lo, _ = self.measure.support
        return "left" if self.c < lo else "right"


@dataclass(frozen=True)
class RecurrenceTable:
    """Monic three-term recurrence data with norms and leading coefficients.

    ``beta[n]``, ``gamma[n]`` (gamma[0] = 0 by convention), ``norm_sq[n]`` the
    squared monic norms, ``leading[n] = 1/||P_n||`` the positive orthonormal
    leading coefficients.  Valid indices are 0..size-1.
    """

    beta: tuple
    gamma: tuple
    norm_sq: tuple
    leading: tuple
    precision: int
    support: tuple

    @property
    def size(self):
        return len(self.beta)


def laguerre_recurrence(alpha, size, precision=DEFAULT_PRECISION):
    """Recurrence table of the monic Laguerre family x^alpha e^(-x) on (0, inf)."""
    return MeasureSpec.laguerre(alpha).recurrence(size, precision)


@dataclass(frozen=True)
class PolyJet:
    """Values and derivatives of the monic family P_0..P_n at one point.

    ``jet(k, j)`` is the j-th derivative of P_k at x; zero for j > k.
    """

    x: object
    order: int
    values: tuple

    @property
    def size(self):
        return len(self.values)

    def jet(self, k, j=0):
        if j > self.order:
            raise InvalidParameterError(f"jet built to order {self.order}, asked {j}")
        return self.values[k][j]


def eval_jet(rec, n, x, order=3):
    """Jets of P_0..P_n at x, derivatives up to ``order`` (at most 3).

    Forward recurrence; the j-th derivative satisfies
    P^(j)_{k+1} = (x - beta_k) P^(j)_k + j P^(j-1)_k - gamma_k P^(j)_{k-1}.
    """
    if not 0 <= n < rec.size:
        raise IndexError(f"n = {n} outside table of size {rec.size}")
    if not 0 <= order <= 3:
        raise InvalidParameterError("derivative order capped at 3")
    ctx = context(rec.precision)
    x = to_mpf(x, ctx)
    rows = [[ctx.one] + [ctx.zero] * order]
    if n >= 1:
        prev = rows[0]
        first = [x - rec.beta[0]] + [ctx.zero] * order
        if order >= 1:
            first[1] = ctx.one
        rows.append(first)
        for k in range(1, n):
            cur = rows[k]
            nxt = []
            for j in range(order + 1):
                t = (x - rec.beta[k]) * cur[j] - rec.gamma[k] * prev[j]
                if j >= 1:
                    t += j * cur[j - 1]
                nxt.append(t)
            prev = cur
            rows.append(nxt)
    return PolyJet(x=x, order=order, values=tuple(tuple(r) for r in rows))


def relative_difference(a, b):
    """|a - b| scaled by max(1, |a|, |b|)."""
    return abs(a - b) / max(1, abs(a), abs(b))


def monic_value(rec, n, x):
    """P_n(x) by forward recurrence."""
    return eval_jet(rec, n, x, order=0).jet(n)


def orthonormal_value(rec, n, x):
    """p_n(x) = P_n(x) / ||P_n||, positive leading coefficient."""
    return monic_value(rec, n, x) * rec.leading[n]
