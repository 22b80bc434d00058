"""Exact-rational reference implementation.

Everything here runs over ``fractions.Fraction`` (or over exact signed square
roots of rationals, see :class:`SqrtRational`); only the comparison reads
floating values, and never rounds a reference to one.  It provides the exact
reference for every check in the package:

* the exact monic recurrence of integer-alpha Laguerre, beta_k = 2k + 1 +
  alpha, gamma_k = k (k + alpha) and ||P_0||^2 = alpha!, as Fractions,
* the Gram matrices of the three derived inner products in that base basis
  P_k: (x-c) dmu and (x-c)^2 dmu (banded, from the multiplication-by-(x-c)
  matrix) and the discrete Sobolev product with point masses M, N at c
  (diagonal plus rank two, from P_k(c) and P_k'(c)),
* one exact LDL^T per Gram matrix, whose inverse factor holds the monic
  orthogonal polynomials and whose diagonal their squared norms: the
  modified-moment method carried out exactly,
* the exact matrix suite of up to :data:`MAX_ROWS` rows: the Jacobi matrices
  and the T/H connection matrices from those factorizations, the Cholesky
  factors, Q/R and (J2 - cI)^2 from the package's own chain
  (:mod:`sobspec.matrices`) run over :class:`SqrtRational` at ``EXACT``
  precision,
* squared-entry comparison of floating matrices against exact references,
  the one float-versus-exact rule of the package (the shipped reference
  tables, the fixture tool and the tests all count matches through it).

None of it uses the kernel, Christoffel or Sobolev ledger formulas of the
floating path.  The chain's formulas are shared with it, so a slip in them
is caught by the factorization side: Q R = J - cI and R Q = J2 - cI must
hold exactly.  Orthonormal-level quantities are never represented by
approximate square roots: comparisons happen in squared form with the sign
tracked separately.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import mul
from types import SimpleNamespace

from .core import EXACT, _check_int, context, to_mpf
from .errors import (
    InvalidParameterError,
    NotPositiveDefiniteError,
    OracleUnsupportedError,
)
from .matrices import (
    _tridiagonal,
    cholesky_shifted,
    commute_cholesky,
    from_diagonals,
    multiply,
    qr_pair,
)

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

#: The largest suite the oracle builds, in rows: the largest size at which
#: one suite took no more CPU time than a 10-row suite by moment
#: Gram-Schmidt did (about 0.2 s on a 2-vCPU VM; 30 rows took longer).
#: Larger sizes raise at once, so a large ``generate`` never attempts one.
MAX_ROWS = 29


def _rational(name, value):
    """``value`` as a Fraction; a NaN, an infinity or a non-number is invalid."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(
            f"{name} must be a finite rational number, got {value!r}") from exc


def laguerre_basis(alpha, count):
    """Exact monic recurrence of x^alpha e^(-x) on (0, inf) for the degrees
    0..count - 1: (beta, gamma, norm_sq) as Fractions, beta_k = 2k + 1 + alpha,
    gamma_k = k (k + alpha) (gamma_0 = 0) and ||P_0||^2 = alpha!.

    Rational only for a nonnegative integer alpha; other alphas raise
    :class:`OracleUnsupportedError` (the floating path covers them).
    """
    q = _rational("alpha", alpha)
    if q.denominator != 1 or q < 0:
        raise OracleUnsupportedError(
            f"the exact recurrence needs a nonnegative integer alpha, got {alpha!r}")
    a = int(q)
    beta = tuple(Fraction(2 * k + 1 + a) for k in range(count))
    gamma = tuple(Fraction(k * (k + a)) for k in range(count))
    return beta, gamma, tuple(accumulate(gamma[1:], mul, initial=Fraction(math.factorial(a))))


def _jet(basis, x):
    """(P_k(x) for every degree k of ``basis``, P_k'(x) likewise), by the
    recurrence P_(k+1) = (x - beta_k) P_k - gamma_k P_(k-1) and its derivative."""
    beta, gamma, _ = basis
    values, derivs = [Fraction(1)], [Fraction(0)]
    pv = pd = Fraction(0)
    for k in range(len(beta) - 1):
        v, d = values[k], derivs[k]
        values.append((x - beta[k]) * v - gamma[k] * pv)
        derivs.append((x - beta[k]) * d + v - gamma[k] * pd)
        pv, pd = v, d
    return values, derivs


def shift_matrix(basis, c):
    """A with (x - c) P_i = sum_j A[i][j] P_j, for every degree i of ``basis``
    but the last: tridiagonal, A[i][i - 1] = gamma_i, A[i][i] = beta_i - c and
    A[i][i + 1] = 1, so it has one column more than rows."""
    beta, gamma, _ = basis
    m = len(beta) - 1
    return [[{i - 1: gamma[i], i: beta[i] - c, i + 1: Fraction(1)}.get(j, Fraction(0))
             for j in range(m + 1)] for i in range(m)]


def grams(basis, c, M, N):
    """The Gram matrices, in the basis P_0..P_(m-1) (m + 1 degrees in
    ``basis``), of the three derived inner products:

    * (x - c) dmu: G1 = <(x - c) P_i, P_j> = A diag(h), tridiagonal,
    * (x - c)^2 dmu: G2 = A diag(h) A^T, pentadiagonal,
    * the Sobolev product: Gs = diag(h) + M v v^T + N w w^T, v_k = P_k(c) and
      w_k = P_k'(c),

    with A the :func:`shift_matrix` and h the squared norms of the P_k.
    """
    _, _, h = basis
    A = shift_matrix(basis, c)
    m = len(A)
    v, w = _jet(basis, c)
    G1 = [[A[i][j] * h[j] for j in range(m)] for i in range(m)]
    G2 = [[sum(A[i][k] * A[j][k] * h[k] for k in range(max(0, i - 1, j - 1), min(i, j) + 2))
           for j in range(m)] for i in range(m)]
    Gs = [[(h[i] if i == j else 0) + M * v[i] * v[j] + N * w[i] * w[j] for j in range(m)]
          for i in range(m)]
    return G1, G2, Gs


def monic_system(gram):
    """The exact LDL^T of a positive definite Gram matrix in the basis P_k,
    by rows, as (C, D) with C = L^(-1): row n of C holds the coefficients in
    P_0..P_n of the n-th monic orthogonal polynomial and D[n] its squared
    norm, so C G C^T = diag(D).

    Row i of L is (G C^T)[i] / D, over the earlier rows of C.  A pivot
    D[i] <= 0 raises :class:`NotPositiveDefiniteError`.
    """
    C, D = [], []
    for i, row in enumerate(gram):
        nonzero = [(k, g) for k, g in enumerate(row[:i + 1]) if g]
        ci = [Fraction(0)] * i + [Fraction(1)]
        for j in range(i):
            lij = sum(g * C[j][k] for k, g in nonzero if k <= j) / D[j]
            if lij:
                for k in range(j + 1):
                    ci[k] -= lij * C[j][k]
        d = sum(g * ci[k] for k, g in nonzero)
        if not d > 0:
            raise NotPositiveDefiniteError(
                f"squared norm at degree {i} is {d}; the product is not positive definite")
        C.append(ci)
        D.append(d)
    return C, D


@dataclass(frozen=True)
class OracleMatrixSuite:
    """All chain matrices of one configuration, as exact SqrtRational entries.

    The three Jacobi matrices and the T/H connection matrices come from the
    exact LDL^T of Gram matrices in the base basis (:func:`monic_system`);
    the Cholesky factors, Q, R and the squared shifted Jacobi matrix from the
    chain of :mod:`sobspec.matrices` run at ``EXACT`` precision.  Each matrix
    is held as its ``exact_size`` leading rows, dense (exact zeros off the
    band), which agree with the semi-infinite object (the chain is built with
    two guard rows and trimmed).
    """

    c: Fraction
    M: Fraction
    N: Fraction
    exact_size: int
    matrices: dict = field(repr=False)


def build_oracle_suite(alpha, c, M, N, size):
    """Exact matrix suite for integer-alpha Laguerre with mass point data (c, M, N).

    ``size`` is the number of exact leading rows/columns delivered for every
    matrix, at most :data:`MAX_ROWS`.  Matrix names: J, L, J1, L1, J2, Q, R,
    T, H, J2_shift_sq.

    In the monic system (C, D) of each Gram matrix, S_k = sum_i C[k][i] P_i,
    so x S_k = S_(k+1) + beta^S_k S_k + gamma^S_k S_(k-1) gives beta^S_k =
    beta_k + C[k][k - 1] - C[k + 1][k] and gamma^S_k = D_k / D_(k-1).  T and
    H are the band of C_s G2 C2^T and C_s G2 C_s^T scaled by the norms: the
    Sobolev product of (x - c)^2 S_n with S_k is their (x - c)^2 dmu product,
    since (x - c)^2 S_n vanishes with its derivative at c.
    """
    c, M, N = _rational("c", c), _rational("M", M), _rational("N", N)
    if c >= 0:
        raise InvalidParameterError(f"mass point c = {c} must lie outside the support (0.0, inf)")
    if M < 0 or N < 0:
        raise InvalidParameterError("point masses M, N must be nonnegative")
    if _check_int("size", size, 1) > MAX_ROWS:
        raise OracleUnsupportedError(f"{size} rows exceed the oracle cap of {MAX_ROWS}")
    nb = size + 2  # two guard rows: the chain's Q and R consume them
    basis = laguerre_basis(alpha, nb + 2)  # Grams of nb + 1 rows
    G1, G2, Gs = grams(basis, c, M, N)
    (C1, D1), (C2, D2), (Cs, Ds) = monic_system(G1), monic_system(G2), monic_system(Gs)

    def jacobi(beta, gamma):
        exact = SqrtRational.from_rational
        return _tridiagonal([exact(b) for b in beta[:nb]], [exact(g) for g in gamma[1:nb]], EXACT)

    def recurrence(C, D):
        beta = basis[0]
        return ([beta[k] + (C[k][k - 1] if k else 0) - C[k + 1][k] for k in range(nb)],
                [0] + [D[k] / D[k - 1] for k in range(1, nb)])

    G2_rows = [[(k, g) for k, g in enumerate(row) if g] for row in G2]

    def band(X, DX, Y, DY, offsets):
        """Entries (n, n + k), k in ``offsets``, of X G2 Y^T / sqrt(DX DY^T)."""
        W = [[sum(g * y[k] for k, g in row if k < len(y)) for row in G2_rows[:len(y) + 2]]
             for y in Y[:nb]]  # G2 is pentadiagonal: (G2 y)_i = 0 for i > deg y + 2

        def entry(n, m):
            ip = sum(a * b for a, b in zip(X[n], W[m]))
            return SqrtRational.from_rational(ip) / SqrtRational(1, DX[n] * DY[m])

        return from_diagonals({k: [entry(n, n + k) for n in range(max(0, -k), nb - max(0, k))]
                               for k in offsets}, nb, EXACT)

    J, J1, J2 = jacobi(*basis[:2]), jacobi(*recurrence(C1, D1)), jacobi(*recurrence(C2, D2))
    L = cholesky_shifted(J, c)
    L1 = cholesky_shifted(commute_cholesky(L, c), c)
    Q, R = qr_pair(L, L1)
    J2_shift = J2.shifted(-c)
    chain = {
        "J": J, "L": L, "J1": J1, "L1": L1, "J2": J2, "Q": Q, "R": R,
        "T": band(Cs, Ds, C2, D2, (-2, -1, 0)), "H": band(Cs, Ds, Cs, Ds, range(-2, 3)),
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
