"""Exact-rational reference implementation.

Everything here runs over ``fractions.Fraction`` (or over exact signed square
roots of rationals, see :class:`SqrtRational`); only the comparison reads
floating values, and never rounds a reference to one.  It provides the exact
reference for every check in the package:

* one moment functional, ``int f g dnu + M f(c) g(c) + N f'(c) g'(c)``, for
  the three inner products: the plain measure, the k-iterated Christoffel
  transform ``(x-c)^k dmu`` (nu with moments shifted once, binomially) and
  the discrete Sobolev product with point masses M, N at c,
* monic Gram-Schmidt from moments, giving exactly orthogonal systems with
  exact squared norms,
* the exact matrix suite for integer-alpha Laguerre configurations: the
  Jacobi matrices and the T/H connection matrices from Gram-Schmidt, the
  Cholesky factors, Q/R and (J2 - cI)^2 from the package's own chain
  (:mod:`sobspec.matrices`) run over :class:`SqrtRational` at ``EXACT``
  precision,
* squared-entry comparison of floating matrices against exact references,
  the one float-versus-exact rule of the package (the shipped reference
  tables, the fixture tool and the tests all count matches through it).

The chain's formulas are shared with the floating path, so a slip in them is
caught by the Gram-Schmidt side: Q R = J - cI and R Q = J2 - cI must hold
exactly.  Orthonormal-level quantities are never represented by approximate
square roots: comparisons happen in squared form with the sign tracked
separately.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

from .core import EXACT, context, to_mpf
from .errors import (
    InvalidParameterError,
    NotPositiveDefiniteError,
    OracleUnsupportedError,
)
from .matrices import (
    cholesky_shifted,
    commute_cholesky,
    from_diagonals,
    multiply,
    qr_pair,
)

#: Gram-Schmidt degree cap.  A suite of n rows needs n + 2 degrees, so this
#: cap keeps the oracle at 10 rows.
DEFAULT_DEGREE_CAP = 12


# ---------------------------------------------------------------------------
# dense polynomials over Fraction, ascending coefficients
# ---------------------------------------------------------------------------

def poly_add(f, g):
    n = max(len(f), len(g))
    return tuple(
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    )


def poly_scale(f, s):
    return tuple(s * a for a in f)


def poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return tuple(out)


def poly_deriv(f):
    return tuple(i * a for i, a in enumerate(f))[1:] or (Fraction(0),)


def poly_eval(f, x):
    acc = Fraction(0)
    for a in reversed(f):
        acc = acc * x + a
    return acc


def _monomial(k):
    return tuple([Fraction(0)] * k + [Fraction(1)])


# ---------------------------------------------------------------------------
# moment functionals
# ---------------------------------------------------------------------------

def laguerre_moments(alpha, count):
    """Power moments of the weight x^alpha e^(-x) on (0, inf).

    Exact only for nonnegative integer alpha, where the n-th moment is
    (n + alpha)!.  Other alphas raise :class:`OracleUnsupportedError`; the
    floating path remains available for them.
    """
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    a = int(alpha)
    if a != alpha or a < 0:
        raise OracleUnsupportedError(
            f"exact moments require a nonnegative integer alpha, got {alpha!r}"
        )
    return tuple(Fraction(math.factorial(n + a)) for n in range(count))


@dataclass(frozen=True)
class MomentFunctional:
    """Exact bilinear form ``<f, g> = int f g dnu + M f(c) g(c) + N f'(c) g'(c)``
    where ``moments`` are the power moments of nu.

    The plain product has M = N = 0; the k-iterated transform ``(x-c)^k dmu``
    is the plain product of the shifted moments; the Sobolev-type product
    has point masses M, N at c.
    """

    moments: tuple
    c: Fraction = Fraction(0)
    M: Fraction = Fraction(0)
    N: Fraction = Fraction(0)

    @classmethod
    def standard(cls, moments):
        return cls(tuple(Fraction(m) for m in moments))

    @classmethod
    def iterated(cls, moments, k, c):
        """The plain product of the moments of (x-c)^k dmu, sum over i of
        C(k, i) (-c)^(k-i) m_(n+i): k fewer than ``moments`` holds."""
        if k < 1:
            raise InvalidParameterError("iterated transform needs k >= 1")
        moments = tuple(Fraction(m) for m in moments)
        weights = [math.comb(k, i) * (-Fraction(c)) ** (k - i) for i in range(k + 1)]
        return cls(tuple(sum((w * moments[n + i] for i, w in enumerate(weights)), Fraction(0))
                         for n in range(len(moments) - k)))

    @classmethod
    def sobolev(cls, moments, c, M, N):
        M, N = Fraction(M), Fraction(N)
        if M < 0 or N < 0:
            raise InvalidParameterError("point masses M, N must be nonnegative")
        return cls(tuple(Fraction(m) for m in moments), c=Fraction(c), M=M, N=N)

    def inner(self, f, g):
        """Exact value of the bilinear form on coefficient tuples f, g."""
        f = tuple(Fraction(a) for a in f)
        g = tuple(Fraction(a) for a in g)
        h = poly_mul(f, g)
        if len(h) > len(self.moments):
            raise OracleUnsupportedError(
                f"need moment of order {len(h) - 1}, have {len(self.moments)}"
            )
        return (sum((a * m for a, m in zip(h, self.moments)), Fraction(0))
                + self.M * poly_eval(f, self.c) * poly_eval(g, self.c)
                + self.N * poly_eval(poly_deriv(f), self.c) * poly_eval(poly_deriv(g), self.c))

    def norm_sq(self, f):
        return self.inner(f, f)


# ---------------------------------------------------------------------------
# monic Gram-Schmidt
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalPolySystem:
    """Monic, exactly orthogonal polynomial system with exact squared norms."""

    functional: MomentFunctional
    coeffs: tuple
    norm_sq: tuple

    @property
    def size(self):
        return len(self.coeffs)

    def recurrence(self):
        """Exact three-term coefficients (beta_n, gamma_n) of the system.

        beta_n = <x P_n, P_n>/<P_n, P_n>; gamma_n = <P_n, P_n>/<P_{n-1}, P_{n-1}>
        with gamma_0 = 0 by convention.
        """
        betas, gammas = [], [Fraction(0)]
        for n in range(self.size - 1):
            xpn = poly_mul((Fraction(0), Fraction(1)), self.coeffs[n])
            betas.append(self.functional.inner(xpn, self.coeffs[n]) / self.norm_sq[n])
            if n >= 1:
                gammas.append(self.norm_sq[n] / self.norm_sq[n - 1])
        return tuple(betas), tuple(gammas)

    def gram(self, upto=None):
        """Matrix of pairwise functional inner products (for orthogonality checks)."""
        m = self.size if upto is None else upto + 1
        return [
            [self.functional.inner(self.coeffs[i], self.coeffs[j]) for j in range(m)]
            for i in range(m)
        ]


def gram_schmidt(functional, n):
    """Monic orthogonal system of degrees 0..n for the given functional.

    Raises :class:`NotPositiveDefiniteError` if any squared norm fails to be
    positive, i.e. the functional is not positive definite through degree n.
    """
    if n > DEFAULT_DEGREE_CAP:
        raise OracleUnsupportedError(
            f"degree {n} exceeds the oracle cap {DEFAULT_DEGREE_CAP}"
        )
    basis, norms = [], []
    for k in range(n + 1):
        p = _monomial(k)
        for j in range(k):
            coef = functional.inner(p, basis[j]) / norms[j]
            p = poly_add(p, poly_scale(basis[j], -coef))
        ns = functional.norm_sq(p)
        if ns <= 0:
            raise NotPositiveDefiniteError(
                f"squared norm at degree {k} is {ns}; functional not positive definite"
            )
        basis.append(p)
        norms.append(ns)
    return RationalPolySystem(functional, tuple(basis), tuple(norms))


# ---------------------------------------------------------------------------
# exact signed square roots of rationals
# ---------------------------------------------------------------------------

def _rational_sqrt(q):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class SqrtRational:
    """Exact number of the form sign * sqrt(square), square a rational >= 0.

    Closed under multiplication and division.  Sums are defined whenever the
    two radicands have a rational square ratio, which holds throughout the
    factorization chain of this package (all chain entries are signed square
    roots of rationals); incompatible radicands raise ArithmeticError.  Ints
    and Fractions are coerced, so the chain functions of
    :mod:`sobspec.matrices` run over this type as they do over mpf.
    """

    __slots__ = ("sign", "square")

    def __init__(self, sign, square):
        square = Fraction(square)
        if square < 0:
            raise ValueError("square must be nonnegative")
        if square == 0:
            sign = 0
        elif sign == 0:
            square = Fraction(0)
        self.sign = int(sign)
        self.square = square

    @classmethod
    def from_rational(cls, q):
        q = Fraction(q)
        s = (q > 0) - (q < 0)
        return cls(s, q * q)

    def as_rational(self):
        """The value as a Fraction if the radicand is a perfect square, else None."""
        r = _rational_sqrt(self.square)
        return None if r is None else self.sign * r

    def __mul__(self, other):
        other = _exact(other)
        return SqrtRational(self.sign * other.sign, self.square * other.square)

    __rmul__ = __mul__

    def __pow__(self, k):
        return SqrtRational(self.sign ** k, self.square ** k)

    def __truediv__(self, other):
        other = _exact(other)
        if other.sign == 0:
            raise ZeroDivisionError("division by exact zero")
        return SqrtRational(self.sign * other.sign, self.square / other.square)

    def __neg__(self):
        return SqrtRational(-self.sign, self.square)

    def __add__(self, other):
        other = _exact(other)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
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
        if self.sign == 0:
            return SqrtRational(0, 0)
        v = self.as_rational()
        if v is None:
            raise ArithmeticError("nested radical; value is not rational")
        return SqrtRational(1, v)

    def __repr__(self):
        return f"SqrtRational(sign={self.sign}, square={self.square})"


def _exact(x):
    return x if isinstance(x, SqrtRational) else SqrtRational.from_rational(x)


#: The scalar protocol of ``core.context(EXACT)``: what the chain functions
#: of :mod:`sobspec.matrices` ask of an mpmath context.
EXACT_CONTEXT = SimpleNamespace(zero=SqrtRational(0, 0), one=SqrtRational(1, 1),
                                sqrt=SqrtRational.sqrt, mpf=SqrtRational.from_rational)


# ---------------------------------------------------------------------------
# exact matrix suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleMatrixSuite:
    """All chain matrices of one configuration, as exact SqrtRational entries.

    The three Jacobi matrices and the T/H connection matrices come from
    independent Gram-Schmidt constructions; the Cholesky factors, Q, R and the
    squared shifted Jacobi matrix from the chain of :mod:`sobspec.matrices`
    run at ``EXACT`` precision.  Each matrix is held as its ``exact_size``
    leading rows, dense (exact zeros off the band), which agree with the
    semi-infinite object (the chain is built with two guard rows and trimmed).
    """

    c: Fraction
    M: Fraction
    N: Fraction
    exact_size: int
    matrices: dict = field(repr=False)


def build_oracle_suite(alpha, c, M, N, size):
    """Exact matrix suite for integer-alpha Laguerre with mass point data (c, M, N).

    ``size`` is the number of exact leading rows/columns delivered for every
    matrix; the Gram-Schmidt degree cap limits it (size + 2 monic degrees are
    needed).  Matrix names: J, L, J1, L1, J2, Q, R, T, H, J2_shift_sq.
    """
    c, M, N = Fraction(c), Fraction(M), Fraction(N)
    if c >= 0:
        raise OracleUnsupportedError(
            "oracle chain assumes the mass point left of the Laguerre support"
        )
    nb = deg = size + 2  # two guard rows: the chain's Q and R consume them
    moments = laguerre_moments(alpha, 2 * deg + 4)

    std = gram_schmidt(MomentFunctional.standard(moments), deg)
    it1 = gram_schmidt(MomentFunctional.iterated(moments, 1, c), deg)
    it2 = gram_schmidt(MomentFunctional.iterated(moments, 2, c), deg)
    sob = gram_schmidt(MomentFunctional.sobolev(moments, c, M, N), deg)

    def banded(entry, offsets):
        return from_diagonals({k: [entry(n, n + k) for n in range(max(0, -k), nb - max(0, k))]
                               for k in offsets}, nb, EXACT)

    def jacobi(system):
        betas, gammas = system.recurrence()
        off = [SqrtRational(1, g) for g in gammas[1:nb]]
        return from_diagonals({-1: off, 0: [SqrtRational.from_rational(b) for b in betas],
                               1: off}, nb, EXACT)

    sqn_sob = [SqrtRational(1, q) for q in sob.norm_sq]
    sqn_it2 = [SqrtRational(1, q) for q in it2.norm_sq]
    shift2 = (c * c, -2 * c, Fraction(1))

    def t_entry(n, k):
        ip = it2.functional.inner(sob.coeffs[n], it2.coeffs[k])
        return SqrtRational.from_rational(ip) / (sqn_sob[n] * sqn_it2[k])

    def h_entry(n, k):
        ip = sob.functional.inner(poly_mul(shift2, sob.coeffs[n]), sob.coeffs[k])
        return SqrtRational.from_rational(ip) / (sqn_sob[n] * sqn_sob[k])

    J, J1, J2 = jacobi(std), jacobi(it1), jacobi(it2)
    L = cholesky_shifted(J, c)
    L1 = cholesky_shifted(commute_cholesky(L, c), c)
    Q, R = qr_pair(L, L1)
    J2_shift = J2.shifted(-c)
    chain = {
        "J": J, "L": L, "J1": J1, "L1": L1, "J2": J2, "Q": Q, "R": R,
        "T": banded(t_entry, (-2, -1, 0)), "H": banded(h_entry, range(-2, 3)),
        "J2_shift_sq": multiply(J2_shift, J2_shift),
    }
    matrices = {name: tuple(tuple(m.entry(i, j) for j in range(size)) for i in range(size))
                for name, m in chain.items()}
    return OracleMatrixSuite(c=c, M=M, N=N, exact_size=size, matrices=matrices)


# ---------------------------------------------------------------------------
# squared-entry comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntryVerdict:
    i: int
    j: int
    ok: bool
    sign_ok: bool
    rel_err: float


@dataclass(frozen=True)
class ComparisonReport:
    name: str
    verdicts: tuple

    @property
    def total(self):
        return len(self.verdicts)

    @property
    def passed(self):
        return sum(1 for v in self.verdicts if v.ok)

    @property
    def all_ok(self):
        return self.passed == self.total

    def summary(self):
        return f"{self.name}: {self.passed}/{self.total} entries match"


def squared_entry_compare(name, float_entries, exact_entries, tol):
    """Compare floating entries against exact signed-square references.

    ``float_entries`` maps (i, j) to an mpf or a float, ``exact_entries`` to
    a :class:`SqrtRational` s.  A verdict passes when the signs agree and the
    squared entry v^2 is within ``tol`` of s relative to s, or, for an exact
    zero, when |v| <= tol.  Each verdict is decided in the entry's own context
    (53 bits for a float), ``tol`` (float, mpf or Fraction) converted into it.
    Mismatches are reported, never raised.
    """
    verdicts = []
    for (i, j), ref in sorted(exact_entries.items()):
        fv = float_entries[(i, j)]
        ctx = getattr(fv, "context", None) or context(53)
        fv, tol_v = to_mpf(fv, ctx), to_mpf(tol, ctx)
        if ref.sign == 0:
            err = abs(fv)
            ok = sign_ok = err <= tol_v
        else:
            square = to_mpf(ref.square, ctx)
            err = abs(fv * fv - square) / square
            sign_ok = ((fv > 0) - (fv < 0)) == ref.sign
            ok = sign_ok and err <= tol_v
        verdicts.append(EntryVerdict(i, j, ok, sign_ok, float(err)))
    return ComparisonReport(name=name, verdicts=tuple(verdicts))
