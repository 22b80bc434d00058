"""Exact-rational reference implementation.

Everything here runs over ``fractions.Fraction`` (or over exact signed square
roots of rationals, :class:`sobspec.core.SqrtRational`); only the comparison
reads floating values, and never rounds a reference to one.  It provides the exact
reference for every check in the package:

* the base basis P_k of integer-alpha Laguerre, as Fractions from the
  package's one recurrence and one jet loop, both run at ``EXACT``,
* the Gram matrices of the three derived inner products in that basis:
  (x-c) dmu and (x-c)^2 dmu (banded, from the multiplication-by-(x-c)
  matrix) and the discrete Sobolev product with point masses M, N at c
  (diagonal plus rank two, from P_k(c) and P_k'(c)),
* one exact LDL^T per Gram matrix, whose inverse factor holds the monic
  orthogonal polynomials and whose diagonal their squared norms: the
  modified-moment method carried out exactly,
* the exact matrix suite of up to :data:`MAX_ROWS` rows: J1, J2 and the T/H
  connection matrices from those factorizations, and J, the Cholesky
  factors, Q/R and (J2 - cI)^2 from the package's own recurrence and chain
  (:mod:`sobspec.matrices`) run over :class:`SqrtRational` at ``EXACT``
  precision,
* squared-entry comparison of floating matrices against exact references,
  the one float-versus-exact rule of the package (the shipped reference
  tables, the fixture tool and the tests all count matches through it).

None of it uses the kernel, Christoffel or Sobolev ledger formulas of the
floating path.  The recurrence, its jets and the chain are shared with it:
the tests check the recurrence against the moments (n + alpha)!, and a slip
in the chain is caught by the factorization side: Q R = J - cI and R Q = J2 -
cI must hold exactly.  Orthonormal-level quantities are never represented by
approximate square roots: comparisons happen in squared form with the sign
tracked separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import EXACT, MeasureSpec, SqrtRational, _check_int, _jet_rows, arith
from .errors import (
    InvalidParameterError,
    NotPositiveDefiniteError,
    OracleUnsupportedError,
)
from .matrices import (
    _tridiagonal,
    build_jacobi,
    cholesky_shifted,
    commute_cholesky,
    from_diagonals,
    multiply,
    qr_pair,
)

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
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidParameterError(
            f"{name} must be a finite rational number, got {value!r}") from exc


def _fractions(values):
    """Raw ``EXACT`` values of rational value as Fractions."""
    return [v.as_rational() for v in values]


def shift_matrix(rec, c):
    """A with (x - c) P_i = sum_j A[i][j] P_j, for every degree i of the
    exact table ``rec`` but the last: tridiagonal, A[i][i - 1] = gamma_i,
    A[i][i] = beta_i - c and A[i][i + 1] = 1, so it has one column more than
    rows."""
    beta, gamma, m = _fractions(rec.beta), _fractions(rec.gamma), rec.size - 1
    return [[{i - 1: gamma[i], i: beta[i] - c, i + 1: Fraction(1)}.get(j, Fraction(0))
             for j in range(m + 1)] for i in range(m)]


def grams(rec, c, M, N):
    """The Gram matrices, in the basis P_0..P_(m-1) (m + 1 degrees in the
    exact table ``rec``), of the three derived inner products:

    * (x - c) dmu: G1 = <(x - c) P_i, P_j> = A diag(h), tridiagonal,
    * (x - c)^2 dmu: G2 = A diag(h) A^T, pentadiagonal,
    * the Sobolev product: Gs = diag(h) + M v v^T + N w w^T, v_k = P_k(c) and
      w_k = P_k'(c), from the package's jet loop at ``EXACT``,

    with A the :func:`shift_matrix` and h the squared norms of the P_k.
    """
    h, A = _fractions(rec.norm_sq), shift_matrix(rec, c)
    m = len(A)
    v, w = zip(*map(_fractions, _jet_rows(rec, m, arith(EXACT).of(c), 1)))
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

    J1, J2 and the T/H connection matrices come from the exact LDL^T of Gram
    matrices in the base basis (:func:`monic_system`); J is the base
    recurrence, and the Cholesky factors, Q, R and the squared shifted Jacobi
    matrix come from the chain of :mod:`sobspec.matrices` at ``EXACT``.  Each
    matrix is held as its ``exact_size`` leading rows, dense (exact zeros off
    the band), which agree with the semi-infinite object (the chain is built
    with two guard rows and trimmed).
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
    T, H, J2_shift_sq.  The base recurrence is read from
    ``MeasureSpec.laguerre(alpha).recurrence`` at ``EXACT``: an alpha <= -1 is
    invalid, a non-integer one unsupported.

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
    # nb + 2 degrees give Grams of nb + 1 rows
    rec = MeasureSpec.laguerre(_rational("alpha", alpha)).recurrence(nb + 2, EXACT)
    G1, G2, Gs = grams(rec, c, M, N)
    (C1, D1), (C2, D2), (Cs, Ds) = monic_system(G1), monic_system(G2), monic_system(Gs)

    def jacobi(C, D):
        """The Jacobi matrix of the monic system (C, D), from its recurrence."""
        beta, exact = _fractions(rec.beta), arith(EXACT).of
        return _tridiagonal([exact(beta[k] + (C[k][k - 1] if k else 0) - C[k + 1][k])
                             for k in range(nb)],
                            [exact(D[k] / D[k - 1]) for k in range(1, nb)], EXACT)

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

    J, J1, J2 = build_jacobi(rec, nb), jacobi(C1, D1), jacobi(C2, D2)
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
    (53 bits for a float), ``tol`` (float, mpf or Fraction) converted into it
    once per precision.  Mismatches are reported, never raised.
    """
    verdicts, tols = [], {}
    for (i, j), ref in sorted(exact_entries.items()):
        fv = float_entries[(i, j)]
        prec = fv.context.prec if hasattr(fv, "context") else 53
        kit = arith(prec)
        if prec not in tols:
            tols[prec] = kit.of(tol)
        fv, tol_v = kit.wrap([kit.of(fv), tols[prec]])
        if ref.sign == 0:
            err = abs(fv)
            ok = sign_ok = err <= tol_v
        else:
            (square,) = kit.wrap([kit.of(ref.square)])
            err = abs(fv * fv - square) / square
            sign_ok = ((fv > 0) - (fv < 0)) == ref.sign
            ok = sign_ok and err <= tol_v
        verdicts.append(EntryVerdict(i, j, ok, sign_ok, float(err)))
    return ComparisonReport(name=name, verdicts=tuple(verdicts))
