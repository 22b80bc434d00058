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
Loops that must not pay for mpf objects, the recurrence table's among them,
run on raw values with the scalar kit :func:`arith` of their precision (see
:class:`Arith`).  At an mpf precision its rounded operations are one kernel
on ``_mpf_`` tuples (:func:`_rounding`): correctly rounded to nearest, so
with the bits of libmp's, but without libmp's dispatch on precision and
rounding mode.

``EXACT`` is the infinite precision: ``context(EXACT)`` holds exact signed
square roots of rationals (:class:`sobspec.oracle.SqrtRational`), so the
matrix chain of :mod:`sobspec.matrices` runs unchanged over them.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt

import mpmath as mp
from mpmath.libmp import (fone, from_int, fzero, mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_neg,
                          mpf_sqrt, mpf_sub, round_nearest)

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


@dataclass(frozen=True)
class Arith:
    """The scalar kit of one precision, from :func:`arith`: ``raw`` turns
    scalars of ``context(precision)`` into raw values (a list), ``wrap``
    turns raw values back (a tuple), and ``add``, ``sub``, ``mul``, ``div``,
    ``neg``, ``sqrt``, ``zero`` and ``one`` compute on raw values; ``gt`` is
    the comparison ``>``.

    At an mpf precision p the raw values are ``_mpf_`` tuples and the
    operations are :func:`_rounding`'s kernel: the results, bit for bit, of
    the libmp calls that mpf ``+``, ``-``, ``*``, ``/``, unary ``-`` and
    ``context(p).sqrt`` make at p bits rounding to nearest, without their
    generic dispatch; ``gt`` is libmp's ``>`` (false whenever a NaN is
    compared).  A formula written with them, in the same order, has the bits
    of the same formula on mpf without the object overhead; ``x ** 2`` is
    ``mul(x, x)``, as both round the exact square once.  At ``EXACT`` the raw
    values are the ``SqrtRational`` scalars and the operations theirs.  At
    ``int`` they are ints with exact ``add``, ``sub``, ``mul``, ``neg`` and
    ``gt`` and no ``div`` or ``sqrt``: the kit of verification's aligned
    matrices.
    """

    raw: object
    wrap: object
    add: object
    sub: object
    mul: object
    div: object
    neg: object
    sqrt: object
    gt: object
    zero: object
    one: object


def _rounding(p):
    """``add``, ``sub``, ``mul``, ``div``, ``neg`` and ``sqrt`` of ``_mpf_``
    tuples, rounded to nearest (ties to even) at p bits.

    Each forms libmp's exact intermediate: the exact sum, product or square
    root remainder, and for a quotient or root the same extra bits and
    sticky bit as ``mpf_div`` and ``mpf_sqrt``; an add whose exponents lie
    more than 100 and whose leading bits more than p + 4 apart takes
    ``mpf_add``'s sticky bit at p + 4 bits.
    It then rounds that once and strips trailing zero bits.  The canonical
    tuple of a rounded value is unique, so every result equals libmp's.
    Zero, inf and NaN operands go to libmp, apart from an exact zero added
    to a value of at most p bits, which gives that value; so do negative
    square roots (``ComplexResult``) and division by zero."""

    def fit(sign, man, exp):
        """sign * man * 2**exp, man > 0 exact, as the canonical tuple at p bits."""
        n = man.bit_length() - p
        if n > 0:
            t = man >> (n - 1)  # the kept bits and the first dropped one
            if t & 1 and (t & 2 or man & ~(-1 << n - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
            exp += n
        if not man & 1:
            z = (man & -man).bit_length() - 1
            man >>= z
            exp += z
        return sign, man, exp, man.bit_length()

    def add(a, b, flip=0):
        sa, ma, ea, ba = a
        sb, mb, eb, bb = b
        if ma and mb:
            sb ^= flip
            off = ea - eb
            if off >= 0:
                if off > 100 and ba + off - bb > p + 4:
                    return fit(sa, (ma << p + 4) + (1 if sa == sb else -1), ea - p - 4)
                ma <<= off
                exp = eb
            else:
                if off < -100 and bb - off - ba > p + 4:
                    return fit(sb, (mb << p + 4) + (1 if sa == sb else -1), eb - p - 4)
                mb <<= -off
                exp = ea
            if sa == sb:
                return fit(sa, ma + mb, exp)
            if ma > mb:
                return fit(sa, ma - mb, exp)
            return fit(sb, mb - ma, exp) if mb > ma else fzero
        if not mb and not eb and ba <= p:  # a + 0
            return a
        if not ma and not ea and bb <= p and not flip:  # 0 + b
            return b
        return mpf_sub(a, b, p, round_nearest) if flip else mpf_add(a, b, p, round_nearest)

    def sub(a, b):
        return add(a, b, 1)

    def mul(a, b):
        sa, ma, ea, _ = a
        sb, mb, eb, _ = b
        if ma and mb:
            return fit(sa ^ sb, ma * mb, ea + eb)
        return mpf_mul(a, b, p, round_nearest)

    def div(a, b):
        sa, ma, ea, ba = a
        sb, mb, eb, bb = b
        if not (ma and mb):
            return mpf_div(a, b, p, round_nearest)
        extra = max(5, p - ba + bb + 5)
        quot, rem = divmod(ma << extra, mb)
        if rem:
            return fit(sa ^ sb, (quot << 1) + 1, ea - eb - extra - 1)
        return fit(sa ^ sb, quot, ea - eb - extra)

    def neg(a):
        sa, ma, ea, ba = a
        if ma and ba <= p:
            return 1 - sa, ma, ea, ba
        return mpf_neg(a, p, round_nearest)

    def sqrt(a):
        sa, ma, ea, ba = a
        if sa or not ma:
            return mpf_sqrt(a, p, round_nearest)
        if ea & 1:
            ea, ma, ba = ea - 1, ma << 1, ba + 1
        shift = max(4, 2 * p - ba + 4)
        shift += shift & 1
        ma <<= shift
        root = isqrt(ma)
        if root * root != ma:
            return fit(0, (root << 1) + 1, (ea - shift - 2) >> 1)
        return fit(0, root, (ea - shift) >> 1)

    return {"add": add, "sub": sub, "mul": mul, "div": div, "neg": neg, "sqrt": sqrt}


_ARITHS = {}


def arith(precision):
    """The :class:`Arith` of ``precision``, made once and kept unique by
    ``setdefault`` as :func:`context` is."""
    kit = _ARITHS.get(precision)
    if kit is None:
        if precision is int:
            kit = Arith(list, tuple, operator.add, operator.sub, operator.mul, None,
                        operator.neg, None, operator.gt, 0, 1)
        elif precision == EXACT:
            ctx = context(EXACT)
            kit = Arith(list, tuple, operator.add, operator.sub, operator.mul,
                        operator.truediv, operator.neg, ctx.sqrt, operator.gt, ctx.zero,
                        ctx.one)
        else:
            ctx = context(precision)
            kit = Arith(raw=lambda values: [v._mpf_ for v in values],
                        wrap=lambda values: tuple(map(ctx.make_mpf, values)),
                        gt=mpf_gt, zero=fzero, one=fone, **_rounding(precision))
        kit = _ARITHS.setdefault(precision, kit)
    return kit


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
        kit = arith(precision)
        add, mul = kit.add, kit.mul
        if self.family == "laguerre":
            # mpf's int-mixed operators round the exact result once, as these do
            a = to_mpf(self.alpha, ctx)
            (ar,) = kit.raw([a])
            beta = kit.wrap([add(from_int(2 * n + 1), ar) for n in range(size)])
            gamma = kit.wrap([kit.zero] + [mul(add(ar, from_int(n)), from_int(n))
                                           for n in range(1, size)])
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
        norm_sq = list(accumulate(kit.raw(gamma[1:]), mul, initial=kit.raw([norm0_sq])[0]))
        return RecurrenceTable(beta, gamma, kit.wrap(norm_sq),
                               kit.wrap([kit.div(kit.one, kit.sqrt(s)) for s in norm_sq]),
                               precision)


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


def eval_jet(rec, n, x, order=3):
    """Jets of P_0..P_n at x, derivatives up to ``order`` (at most 3), as rows:
    ``[k][j]`` is the j-th derivative of P_k at x, zero for j > k.

    Forward recurrence; the j-th derivative satisfies
    P^(j)_{k+1} = (x - beta_k) P^(j)_k + j P^(j-1)_k - gamma_k P^(j)_{k-1}.
    The loop is :func:`_jet_rows` on raw values; only the result is wrapped.
    """
    if not 0 <= n < rec.size:
        raise IndexError(f"n = {n} outside table of size {rec.size}")
    if not 0 <= order <= 3:
        raise InvalidParameterError("derivative order capped at 3")
    x = to_mpf(x, context(rec.precision))
    return tuple(map(arith(rec.precision).wrap, _jet_rows(rec, n, x, order)))


def _jet_rows(rec, n, x, order):
    """The rows of :func:`eval_jet` at the mpf x as raw values, computed with
    the table's :func:`arith` in the order of the mpf recurrence (the integer
    j as an mpf, whose product rounds as ``mpf * int`` does), so every entry
    has the bits of the mpf recurrence.  The loop starts from P_0 and a zero
    row P_-1; as gamma_0 = 0, its first step is P_1 = x - beta_0 exactly."""
    ctx, kit = context(rec.precision), arith(rec.precision)
    add, sub, mul = kit.add, kit.sub, kit.mul
    (x,), beta, gamma = kit.raw([x]), kit.raw(rec.beta[:n]), kit.raw(rec.gamma[:n])
    ints = kit.raw(map(ctx.mpf, range(order + 1)))
    prev, rows = [kit.zero] * (order + 1), [[kit.one] + [kit.zero] * order]
    for k in range(n):
        cur, u, g = rows[k], sub(x, beta[k]), gamma[k]
        nxt = []
        for j in range(order + 1):
            t = sub(mul(u, cur[j]), mul(g, prev[j]))
            if j >= 1:
                t = add(t, mul(cur[j - 1], ints[j]))
            nxt.append(t)
        prev = cur
        rows.append(nxt)
    return rows


def monic_value(rec, n, x):
    """P_n(x) by forward recurrence."""
    return eval_jet(rec, n, x, order=0)[n][0]


def orthonormal_value(rec, n, x):
    """p_n(x) = P_n(x) / ||P_n||, positive leading coefficient."""
    return monic_value(rec, n, x) * rec.leading[n]
