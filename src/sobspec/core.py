"""Measures and the standard orthonormal polynomial system.

Monic families are generated from their three-term recurrence
``x P_n = P_{n+1} + beta_n P_n + gamma_n P_{n-1}``; squared norms follow from
``||P_{n+1}||^2 = gamma_{n+1} ||P_n||^2`` and orthonormal values from the
positive leading coefficients ``r_n = 1/||P_n||``.

All real computation uses mpmath binary floats at a configurable precision
(default 256 bits).  Precision is a value: every number is made in
``arith(precision).ctx``, a private mpmath context that is never mutated, and
an mpf operation rounds in its left operand's context.  So results do not
depend on ``mp.mp.prec``, tables are immutable, evaluations are pure, and
builds at different precisions may run concurrently in several threads.
Every loop runs on raw values with the scalar kit :func:`arith` of its
precision (see :class:`Arith`), and tables, ledgers and matrices store them;
an mpf is made only where a public reader returns one, and a number the
caller gives becomes a raw value only by ``arith(p).of``, rounded once.  At
an mpf precision the kit's rounded operations are one kernel on ``_mpf_``
tuples (:func:`_rounding`): correctly rounded to nearest, so with the bits
of libmp's, but without libmp's dispatch on precision and rounding mode;
only inf and NaN operands reach libmp.

``EXACT`` is the infinite precision: the raw values of ``arith(EXACT)`` are
exact signed square roots of rationals (:class:`SqrtRational`), so the
recurrence of rational data (a non-integer Laguerre alpha raises
``OracleUnsupportedError``), the jet loop and the matrix chain of
:mod:`sobspec.matrices` run unchanged over them.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import factorial, isqrt

import mpmath as mp
from mpmath.libmp import (fone, from_int, from_rational, fzero, mpf_add, mpf_div, mpf_gt, mpf_mul,
                          mpf_neg, mpf_sqrt, mpf_sub, round_nearest)

from .errors import (InvalidParameterError, NotPositiveDefiniteError, NumericalFailureError,
                     OracleUnsupportedError)

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


_ZERO = Fraction(0)


def _rational_sqrt(q):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class SqrtRational:
    """Exact number of the form sign * sqrt(square), square a rational >= 0:
    the raw value and the scalar of ``arith(EXACT)``.

    Closed under multiplication and division.  Sums are defined whenever the
    two radicands have a rational square ratio, which holds throughout the
    factorization chain of this package (all chain entries are signed square
    roots of rationals); incompatible radicands raise ArithmeticError.  Ints
    and Fractions are coerced, so the chain functions of
    :mod:`sobspec.matrices` run over this type as they do over mpf.

    ``root`` is the Fraction sqrt(square) where it is known: a value made
    from a rational keeps it through products and sums of such values, so
    their sums add the rationals directly; None means not known, not
    irrational.
    """

    __slots__ = ("sign", "square", "root")

    def __init__(self, sign, square, root=None):
        if not isinstance(square, Fraction):
            square = Fraction(square)
        if square.numerator < 0:
            raise ValueError("square must be nonnegative")
        if not (sign and square.numerator):
            sign, square, root = 0, _ZERO, _ZERO
        self.sign = int(sign)
        self.square = square
        self.root = root

    @classmethod
    def from_rational(cls, q):
        if not isinstance(q, Fraction):
            q = Fraction(q)
        return cls((q.numerator > 0) - (q.numerator < 0), q * q, abs(q))

    def as_rational(self):
        """The value as a Fraction if the radicand is a perfect square, else None."""
        r = _rational_sqrt(self.square) if self.root is None else self.root
        return r if r is None or self.sign >= 0 else -r

    def __mul__(self, other):
        other = _exact(other)
        root = None if self.root is None or other.root is None else self.root * other.root
        return SqrtRational(self.sign * other.sign, self.square * other.square, root)

    __rmul__ = __mul__

    def __pow__(self, k):
        return SqrtRational(self.sign ** k, self.square ** k)

    def __truediv__(self, other):
        other = _exact(other)
        if other.sign == 0:
            raise ZeroDivisionError("division by exact zero")
        return SqrtRational(self.sign * other.sign, self.square / other.square)

    def __neg__(self):
        return SqrtRational(-self.sign, self.square, self.root)

    def __add__(self, other):
        other = _exact(other)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.root is not None and other.root is not None:
            return SqrtRational.from_rational(self.as_rational() + other.as_rational())
        ratio = _rational_sqrt(self.square / other.square)
        if ratio is None:
            raise ArithmeticError(
                f"incompatible radicands {self.square} and {other.square}"
            )
        s = self.sign * ratio + other.sign
        sig = (s > 0) - (s < 0)
        return SqrtRational(sig, s * s * other.square)

    def __sub__(self, other):
        return self + (-_exact(other))

    def __eq__(self, other):
        if not isinstance(other, (SqrtRational, numbers.Rational)):
            return NotImplemented
        other = _exact(other)
        return self.sign == other.sign and self.square == other.square

    def __gt__(self, other):
        other = _exact(other)
        if self.sign != other.sign:
            return self.sign > other.sign
        return self.sign * (self.square - other.square) > 0

    def __hash__(self):
        # A rational value must hash as the int or Fraction it equals.
        r = self.as_rational()
        return hash((self.sign, self.square) if r is None else r)

    def sqrt(self):
        """Exact square root; defined when the value itself is a nonnegative rational."""
        if self.sign < 0:
            raise NotPositiveDefiniteError("square root of a negative exact value")
        v = self.as_rational()
        if v is None:
            raise ArithmeticError("nested radical; value is not rational")
        return SqrtRational(1, v)

    def __repr__(self):
        return f"SqrtRational(sign={self.sign}, square={self.square})"


def _exact(x):
    return x if isinstance(x, SqrtRational) else SqrtRational.from_rational(x)


@dataclass(frozen=True)
class Arith:
    """The scalar kit of one precision, from :func:`arith`: ``ctx`` is its
    private mpmath context, ``of`` turns a number into a raw value, ``wrap``
    turns raw values into scalars (a tuple), and ``add``, ``sub``, ``mul``,
    ``div``, ``neg``, ``sqrt``, ``zero`` and ``one`` compute on raw values;
    ``gt`` is the comparison ``>``.  Ledgers and matrices hold raw values, so
    ``arith(p).wrap(field)`` reads a field as scalars.

    ``of`` is the package's one conversion of a caller-given number: at an
    mpf precision p it rounds the exact value of an int, float, decimal
    string, Fraction or mpf of any precision once to nearest at p bits, and
    at ``EXACT`` it makes the ``SqrtRational`` of a rational.

    At an mpf precision p the raw values are ``_mpf_`` tuples and the
    operations are :func:`_rounding`'s kernel: the results, bit for bit, of
    the libmp calls that mpf ``+``, ``-``, ``*``, ``/``, unary ``-`` and
    ``ctx.sqrt`` make at p bits rounding to nearest, without their
    generic dispatch, and ``gt`` has the verdicts of mpf ``>`` (false
    whenever a NaN is compared).  A formula written with them, in the same
    order, has the bits of the same formula on mpf without the object
    overhead; ``x ** 2`` is ``mul(x, x)``, as both round the exact square
    once.  At ``EXACT`` the raw
    values are the ``SqrtRational`` scalars, the operations theirs, and there
    is no ``ctx``.  At ``int`` they are ints with exact ``add``, ``sub``,
    ``mul``, ``neg`` and ``gt`` and no ``of``, ``div``, ``sqrt`` or ``ctx``:
    the kit of verification's aligned matrices.
    """

    ctx: object
    of: object
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
    tuples, rounded to nearest (ties to even) at p bits, and ``gt``.

    Each forms libmp's exact intermediate: the exact sum, product or square
    root remainder, and for a quotient or root the same extra bits as
    ``mpf_div`` and ``mpf_sqrt`` with their sticky bit appended as the lowest
    bit, which leaves the rounded value as it is; an add whose exponents lie
    more than 100 and whose leading bits more than p + 4 apart takes
    ``mpf_add``'s sticky bit at p + 4 bits.
    It then rounds that once and strips trailing zero bits if the rounded
    mantissa is even: ``mul`` and ``div`` in their own frame, ``add``,
    ``sub`` and ``sqrt`` in ``fit``.  The canonical tuple of a rounded value is unique, so every
    result equals libmp's.  ``gt`` compares by sign, then by leading-bit
    position, then by the aligned mantissas.  Every finite operand, exact
    zero included, stays in the kernel: inf and NaN operands go to libmp
    (``mpf_gt`` for ``gt``), and so do negative square roots
    (``ComplexResult``) and division by zero."""

    def fit(sign, man, exp):
        """sign * man * 2**exp, man > 0 exact, as the canonical tuple at p bits."""
        n = man.bit_length() - p
        if n > 0:  # drop n bits: up if the first dropped bit is 1 and not a tie to even
            t, man, exp = man, man >> n, exp + n
            if t >> (n - 1) & 1 and (man & 1 or t & ~(-1 << n - 1)):
                man += 1
        if not man & 1:
            z = (man & -man).bit_length() - 1
            man, exp = man >> z, exp + z
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
        if not (ma or ea):  # 0 + b
            if mb:
                return (sb ^ flip, mb, eb, bb) if bb <= p else fit(sb ^ flip, mb, eb)
            if not eb:
                return b
        elif ma and not (mb or eb):  # a + 0
            return a if ba <= p else fit(sa, ma, ea)
        return mpf_sub(a, b, p, round_nearest) if flip else mpf_add(a, b, p, round_nearest)

    def sub(a, b):
        return add(a, b, 1)

    def mul(a, b):
        sa, ma, ea, _ = a
        sb, mb, eb, _ = b
        if ma and mb:
            man, exp = ma * mb, ea + eb
            n = man.bit_length() - p
            if n > 0:  # fit's rounding, inline
                t, man, exp = man, man >> n, exp + n
                if t >> (n - 1) & 1 and (man & 1 or t & ~(-1 << n - 1)):
                    man += 1
            if not man & 1:
                z = (man & -man).bit_length() - 1
                man, exp = man >> z, exp + z
            return sa ^ sb, man, exp, man.bit_length()
        if (ma or not ea) and (mb or not eb):  # 0 * b or a * 0
            return fzero
        return mpf_mul(a, b, p, round_nearest)

    def div(a, b):
        sa, ma, ea, ba = a
        sb, mb, eb, bb = b
        if ma and mb:
            extra = p - ba + bb + 5
            if extra < 5:
                extra = 5
            quot, rem = divmod(ma << extra, mb)
            # quot has p + 5 bits or more, and rem != 0 is the sticky bit below them
            n = quot.bit_length() - p
            man = quot >> n
            if quot >> (n - 1) & 1 and (man & 1 or rem or quot & ~(-1 << n - 1)):
                man += 1
            exp = ea - eb - extra + n
            if not man & 1:
                z = (man & -man).bit_length() - 1
                man, exp = man >> z, exp + z
            return sa ^ sb, man, exp, man.bit_length()
        if mb and not (ma or ea):  # 0 / b
            return fzero
        return mpf_div(a, b, p, round_nearest)

    def neg(a):
        sa, ma, ea, ba = a
        if ma:
            return (1 - sa, ma, ea, ba) if ba <= p else fit(1 - sa, ma, ea)
        return mpf_neg(a, p, round_nearest) if ea else a

    def sqrt(a):
        sa, ma, ea, ba = a
        if sa or not ma:
            return mpf_sqrt(a, p, round_nearest) if sa or ea else a
        if ea & 1:
            ea, ma, ba = ea - 1, ma << 1, ba + 1
        shift = max(4, 2 * p - ba + 4)
        shift += shift & 1
        ma <<= shift
        root = isqrt(ma)
        return fit(0, (root << 1) | (root * root != ma), (ea - shift - 2) >> 1)

    def gt(a, b):
        sa, ma, ea, ba = a
        sb, mb, eb, bb = b
        if ma and mb:
            if sa != sb:
                return sb > sa
            ta, tb = ea + ba, eb + bb  # just above the leading bits
            if ta == tb:
                off = ea - eb
                ta, tb = (ma << off, mb) if off >= 0 else (ma, mb << -off)
            return tb > ta if sa else ta > tb
        if (ma or not ea) and (mb or not eb):  # a zero against a finite value
            return not sa if ma else sb == 1
        return mpf_gt(a, b)

    return {"add": add, "sub": sub, "mul": mul, "div": div, "neg": neg, "sqrt": sqrt, "gt": gt}


_ARITHS = {}


def arith(precision):
    """The :class:`Arith` of ``precision``, made once with its context and
    kept unique by ``setdefault`` when threads race to make it."""
    kit = _ARITHS.get(precision)
    if kit is None:
        if precision is int:
            kit = Arith(None, None, tuple, operator.add, operator.sub, operator.mul, None,
                        operator.neg, None, operator.gt, 0, 1)
        elif precision == EXACT:
            kit = Arith(None, _exact, tuple, operator.add, operator.sub, operator.mul,
                        operator.truediv, operator.neg, SqrtRational.sqrt, operator.gt,
                        _exact(0), _exact(1))
        else:
            ctx = mp.MPContext()
            ctx.prec = precision

            def of(x):
                if isinstance(x, Fraction):
                    return from_rational(x.numerator, x.denominator, precision, round_nearest)
                return ctx.mpf(x)._mpf_

            kit = Arith(ctx, of=of, wrap=lambda values: tuple(map(ctx.make_mpf, values)),
                        zero=fzero, one=fone, **_rounding(precision))
        kit = _ARITHS.setdefault(precision, kit)
    return kit


def _ints(*vectors):
    """Vectors of raw mpf values as tuples of exact ints m * 2**(e - exp), and
    ``exp``: the smallest exponent e of their nonzero values."""
    every = list(chain.from_iterable(vectors))
    if min(map(operator.itemgetter(3), every), default=0) < 0:  # bc < 0 marks inf and nan
        raise NumericalFailureError("a matrix with a non-finite entry cannot be verified")
    exp = min(map(operator.itemgetter(2), filter(operator.itemgetter(1), every)), default=0)
    return [tuple([(-m if s else m) << (e - exp) for s, m, e, _ in values])
            for values in vectors], exp


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
        """The recurrence table of ``size`` rows, at ``precision`` bits or at
        ``EXACT``.  Laguerre, x^alpha e^(-x) on (0, inf): beta_n = 2n + 1 +
        alpha, gamma_n = n (n + alpha) and ||P_0||^2 = Gamma(alpha + 1); at
        ``EXACT`` that is alpha! for an integer alpha, any other alpha raises
        :class:`OracleUnsupportedError`, and custom data must be rationals."""
        _check_int("size", size, 1)
        kit = arith(precision if precision == EXACT
                    else _check_int("precision", precision, 1, " bits"))
        add, mul = kit.add, kit.mul
        if self.family == "laguerre":
            # ints enter exact: mpf's int-mixed operators round the exact result once, as these do
            a, num = kit.of(self.alpha), from_int if kit.ctx else kit.of
            beta = [add(num(2 * n + 1), a) for n in range(size)]
            gamma = [kit.zero] + [mul(add(a, num(n)), num(n)) for n in range(1, size)]
            if kit.ctx:
                norm0_sq = kit.of(kit.ctx.gamma(kit.wrap([add(a, kit.one)])[0]))
            elif a.as_rational().denominator == 1:
                norm0_sq = kit.of(factorial(a.as_rational().numerator))
            else:
                raise OracleUnsupportedError(f"no exact Gamma(alpha + 1) at alpha = {self.alpha!r}")
        elif self.family == "custom":
            if size > len(self.beta):
                raise InvalidParameterError(
                    f"custom measure supplies {len(self.beta)} coefficients, need {size}")
            beta = list(map(kit.of, self.beta[:size]))
            gamma = [kit.zero, *map(kit.of, self.gamma[1:size])]
            norm0_sq = kit.of(self.norm0_sq)
        else:
            raise InvalidParameterError(f"unknown measure family {self.family!r}")
        norm_sq = tuple(accumulate(gamma[1:], mul, initial=norm0_sq))
        return RecurrenceTable(tuple(beta), tuple(gamma), norm_sq,
                               tuple(kit.div(kit.one, kit.sqrt(s)) for s in norm_sq), precision)


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
    leading coefficients, as raw values.  Valid indices are 0..size-1.
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
    kit = arith(rec.precision)
    return tuple(map(kit.wrap, _jet_rows(rec, n, kit.of(x), order)))


def _jet_rows(rec, n, x, order):
    """The rows of :func:`eval_jet` at the raw value x as raw values, computed
    with the table's :func:`arith` in the order of the mpf recurrence (the
    integer j as an mpf, whose product rounds as ``mpf * int`` does), so every
    entry has the bits of the mpf recurrence.  The loop starts from P_0 and a
    zero row P_-1; as gamma_0 = 0, its first step is P_1 = x - beta_0 exactly."""
    kit = arith(rec.precision)
    add, sub, mul = kit.add, kit.sub, kit.mul
    beta, gamma, ints = rec.beta, rec.gamma, list(map(kit.of, range(order + 1)))
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
