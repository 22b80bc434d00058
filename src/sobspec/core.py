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
The jet recurrence and the ledger builds run on the raw ``_mpf_`` tuples
(:func:`_raw_ops`): libmp operations at the table's precision, rounding as
mpf operations do, so the bits are the same without the object overhead.

``EXACT`` is the infinite precision: ``context(EXACT)`` holds exact signed
square roots of rationals (:class:`sobspec.oracle.SqrtRational`), so the
matrix chain of :mod:`sobspec.matrices` runs unchanged over them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (fone, fzero, mpf_add, mpf_div, mpf_mul, mpf_mul_int, mpf_sqrt, mpf_sub,
                          round_nearest)

from .errors import InvalidParameterError

DEFAULT_PRECISION = 256

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Exact arithmetic as a precision: larger than every bit count.
EXACT = POS_INF


def _require_finite_real(name, value):
    if not isinstance(value, numbers.Real) or not mp.isfinite(value):
        raise InvalidParameterError(f"{name} must be a finite real number, got {value!r}")


def _check_int(name, value, least, unit=""):
    """``value`` if it is an int, not a bool, >= ``least``, else InvalidParameterError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise InvalidParameterError(
            f"{name} must be an integer >= {least}{unit}, got {value!r}")
    return value


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
    an mpf of more bits is rounded to ``ctx``'s precision."""
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / x.denominator
    return ctx.mpf(x)


@dataclass(frozen=True)
class MeasureSpec:
    """A base measure: a classical family or caller-supplied recurrence data.

    ``support`` is the (lo, hi) interval carrying the measure, lo < hi, with
    endpoints possibly infinite.  Custom measures supply the monic recurrence
    coefficients directly: finite reals, gamma[1:] and norm0_sq positive.
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
        beta, gamma, support = tuple(beta), tuple(gamma), tuple(support)
        if len(beta) != len(gamma):
            raise InvalidParameterError("beta and gamma must have equal length")
        if len(beta) < 1:
            raise InvalidParameterError("need at least one recurrence coefficient")
        finite = [(f"beta[{n}]", b) for n, b in enumerate(beta)]
        positive = [(f"gamma[{n}]", g) for n, g in enumerate(gamma) if n] + [("norm0_sq", norm0_sq)]
        for name, value in finite + positive:
            _require_finite_real(name, value)
        for name, value in positive:
            if not value > 0:
                raise InvalidParameterError(f"{name} = {value} must be positive")
        if (len(support) != 2 or not all(isinstance(v, numbers.Real) for v in support)
                or not support[0] < support[1]):
            raise InvalidParameterError(f"support must be a pair lo < hi, got {support!r}")
        return cls(
            family="custom",
            beta=beta,
            gamma=gamma,
            norm0_sq=norm0_sq,
            support=support,
        )

    def recurrence(self, size, precision=DEFAULT_PRECISION):
        """The recurrence table of ``size`` rows.  Laguerre, x^alpha e^(-x) on
        (0, inf): beta_n = 2n + 1 + alpha, gamma_n = n (n + alpha) and
        ||P_0||^2 = Gamma(alpha + 1)."""
        _check_int("size", size, 1)
        ctx = context(_check_int("precision", precision, 1, " bits"))
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
                               tuple(1 / ctx.sqrt(s) for s in norm_sq), precision)


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

    @property
    def size(self):
        return len(self.beta)


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
    The loop is :func:`_jet_rows` on ``_mpf_`` tuples; only the result is
    wrapped as mpf.
    """
    if not 0 <= n < rec.size:
        raise IndexError(f"n = {n} outside table of size {rec.size}")
    if not 0 <= order <= 3:
        raise InvalidParameterError("derivative order capped at 3")
    ctx = context(rec.precision)
    x = to_mpf(x, ctx)
    return PolyJet(x=x, order=order,
                   values=tuple(_mpfs(ctx, row) for row in _jet_rows(rec, n, x._mpf_, order)))


def _jet_rows(rec, n, x, order):
    """The rows of :func:`eval_jet` as ``_mpf_`` tuples, x an ``_mpf_``.

    Each step is the libmp operation that mpf ``-``, ``*`` (``mpf_mul_int``
    for the integer j) and ``+`` perform at the table's precision, rounding
    to nearest, in the same order, so every entry has the bits of the mpf
    recurrence.
    """
    p, rnd = rec.precision, round_nearest
    rows = [[fone] + [fzero] * order]
    if n >= 1:
        prev = rows[0]
        first = [mpf_sub(x, rec.beta[0]._mpf_, p, rnd)] + [fzero] * order
        if order >= 1:
            first[1] = fone
        rows.append(first)
        for k in range(1, n):
            cur = rows[k]
            u, g = mpf_sub(x, rec.beta[k]._mpf_, p, rnd), rec.gamma[k]._mpf_
            nxt = []
            for j in range(order + 1):
                t = mpf_sub(mpf_mul(u, cur[j], p, rnd), mpf_mul(g, prev[j], p, rnd), p, rnd)
                if j >= 1:
                    t = mpf_add(t, mpf_mul_int(cur[j - 1], j, p, rnd), p, rnd)
                nxt.append(t)
            prev = cur
            rows.append(nxt)
    return rows


def _raw(values):
    """The ``_mpf_`` tuples of the mpf ``values``."""
    return [v._mpf_ for v in values]


def _mpfs(ctx, values):
    """The ``_mpf_`` tuples ``values`` as a tuple of mpf of ``ctx``."""
    return tuple(map(ctx.make_mpf, values))


def _raw_ops(p):
    """``add, sub, mul, div, sqrt`` on ``_mpf_`` tuples at ``p`` bits,
    rounding to nearest: the libmp operations that mpf ``+``, ``-``, ``*``,
    ``/`` and ``context(p).sqrt`` perform, so a formula written with them
    has the bits of the same formula on mpf.  ``x ** 2`` is ``mul(x, x)``:
    both round the exact square once."""
    rnd = round_nearest

    def add(a, b):
        return mpf_add(a, b, p, rnd)

    def sub(a, b):
        return mpf_sub(a, b, p, rnd)

    def mul(a, b):
        return mpf_mul(a, b, p, rnd)

    def div(a, b):
        return mpf_div(a, b, p, rnd)

    def sqrt(a):
        return mpf_sqrt(a, p, rnd)

    return add, sub, mul, div, sqrt


def monic_value(rec, n, x):
    """P_n(x) by forward recurrence."""
    return eval_jet(rec, n, x, order=0).jet(n)


def orthonormal_value(rec, n, x):
    """p_n(x) = P_n(x) / ||P_n||, positive leading coefficient."""
    return monic_value(rec, n, x) * rec.leading[n]
