"""Finite truncations of the semi-infinite operators and their factorizations.

The chain: the shifted Jacobi matrix of the base measure factors as L L^T
(Cholesky); commuting the factors and re-shifting gives the Jacobi matrix of
the once-transformed measure, and one more commute reaches the
twice-transformed one.  From the two Cholesky factors, Q = L L1^(-T) is
orthogonal and R = (L L1)^T upper triangular with

    Q R  = J  - cI,      R Q  = J2 - cI,
    (J2 - cI)^2 = R R^T = T^T T,   (J - cI)^2 = R^T R,
    H = T T^T,           H T = T (J2 - cI)^2,

where T is the triangular connection matrix of the Sobolev family onto the
twice-transformed orthonormal family and H the pentadiagonal matrix of
multiplication by (x-c)^2 in the Sobolev basis.  When the mass point sits
right of the support, the chain factors cI - J instead and the sign threads
through the two linear identities.

Truncation bookkeeping: every matrix carries ``exact_size``, the number of
leading rows/columns guaranteed to agree with the semi-infinite object.
Commuting Cholesky factors consumes one row, forming Q/R consumes one, and a
product consumes min(left upper bandwidth, right lower bandwidth).  Residuals
are only ever evaluated inside the intersection of the operands' exact
regions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DEFAULT_PRECISION, context, to_mpf
from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    NotPositiveDefiniteError,
)


@dataclass(frozen=True)
class BandedMatrix:
    """Immutable truncation of a semi-infinite banded operator.

    ``rows`` holds full rows, but ``lower_bw``/``upper_bw`` declare the band
    and every entry outside it is an exact zero: each constructor keeps that
    invariant, so scans and residuals read the band only.  The banded
    builders and ``identity`` share one assembly from the diagonals
    (``_from_diagonals``); the others are ``multiply``, ``transpose``,
    ``shifted``, ``scaled``, ``qr_pair`` and ``matrix_from_json``.
    ``exact_size`` marks the leading block unaffected by truncation.
    Serialization emits band entries only.
    """

    nrows: int
    ncols: int
    lower_bw: int
    upper_bw: int
    exact_size: int
    precision: int
    rows: tuple

    def entry(self, i, j):
        return self.rows[i][j]

    def in_band(self, i, j):
        return -self.lower_bw <= j - i <= self.upper_bw

    def band_entries(self):
        """Yield (i, j, value) over the declared band, row-major."""
        for i in range(self.nrows):
            for j in _band(i, self.lower_bw, self.upper_bw, self.ncols):
                yield i, j, self.rows[i][j]

    def transpose(self):
        return BandedMatrix(
            nrows=self.ncols,
            ncols=self.nrows,
            lower_bw=self.upper_bw,
            upper_bw=self.lower_bw,
            exact_size=self.exact_size,
            precision=self.precision,
            rows=tuple(zip(*self.rows)),
        )

    def shifted(self, lam):
        """self + lam * I on the common diagonal."""
        lam = to_mpf(lam, context(self.precision))
        rows = [list(row) for row in self.rows]
        for i in range(min(self.nrows, self.ncols)):
            rows[i][i] += lam
        return BandedMatrix(self.nrows, self.ncols, self.lower_bw, self.upper_bw,
                            self.exact_size, self.precision,
                            tuple(tuple(r) for r in rows))

    def scaled(self, s):
        """s * self, multiplying the band entries only."""
        s = to_mpf(s, context(self.precision))
        rows = [list(row) for row in self.rows]
        for i, row in enumerate(rows):
            for j in _band(i, self.lower_bw, self.upper_bw, self.ncols):
                row[j] *= s
        return BandedMatrix(self.nrows, self.ncols, self.lower_bw, self.upper_bw,
                            self.exact_size, self.precision,
                            tuple(tuple(r) for r in rows))


def _band(i, lower_bw, upper_bw, stop):
    """Columns of row i inside the band (lower_bw, upper_bw), below ``stop``."""
    return range(max(0, i - lower_bw), min(stop, i + upper_bw + 1))


def _freeze(rows, lower_bw, upper_bw, exact_size, precision):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    return BandedMatrix(
        nrows=nrows,
        ncols=ncols,
        lower_bw=min(lower_bw, max(nrows - 1, 0)),
        upper_bw=min(upper_bw, max(ncols - 1, 0)),
        exact_size=max(0, min(exact_size, nrows, ncols)),
        precision=precision,
        rows=tuple(tuple(r) for r in rows),
    )


def _from_diagonals(diagonals, exact_size, precision):
    """Square matrix holding ``diagonals[k]`` on diagonal k (k < 0 below the
    main one) and exact zeros elsewhere; the main diagonal sets the size and
    the outermost offsets the declared band."""
    n = len(diagonals[0])
    rows = [[context(precision).zero] * n for _ in range(n)]
    for k, diagonal in diagonals.items():
        row0, col0 = max(-k, 0), max(k, 0)
        for i, value in enumerate(diagonal):
            rows[row0 + i][col0 + i] = value
    return _freeze(rows, -min(diagonals), max(diagonals), exact_size, precision)


def _symmetric_from_diagonals(diagonals, exact_size, precision):
    """Symmetric variant: ``diagonals[k]`` for k >= 0, mirrored below."""
    full = dict(diagonals)
    full.update({-k: diagonal for k, diagonal in diagonals.items() if k})
    return _from_diagonals(full, exact_size, precision)


def identity(n, precision):
    return _from_diagonals({0: [context(precision).one] * n}, n, precision)


def multiply(A, B):
    """A @ B with band union and exact-size propagation.

    The product consumes w = min(A.upper_bw, B.lower_bw) guard rows: entry
    (i, j) of the infinite product sums over k <= min(i + A.upper_bw,
    j + B.lower_bw), so the truncated sum is complete and made of exact
    operand entries only while i, j stay w short of the operands' markers.
    """
    if A.ncols != B.nrows:
        raise InvalidParameterError("inner dimensions differ")
    prec = max(A.precision, B.precision)
    ctx = context(prec)
    arows = A.rows
    if A.precision < prec:  # a product rounds in its left operand's context
        arows = [[ctx.make_mpf(v._mpf_) for v in row] for row in A.rows]
    rows = []
    for i in range(A.nrows):
        arow = arows[i]
        out = [ctx.zero] * B.ncols
        for k in _band(i, A.lower_bw, A.upper_bw, A.ncols):
            a = arow[k]
            if a == 0:
                continue
            brow = B.rows[k]
            for j in _band(k, B.lower_bw, B.upper_bw, B.ncols):
                out[j] += a * brow[j]
        rows.append(out)
    w = min(A.upper_bw, B.lower_bw)
    exact = min(A.exact_size, B.exact_size - w, A.ncols - w)
    return _freeze(rows, A.lower_bw + B.lower_bw, A.upper_bw + B.upper_bw,
                   exact, prec)


def block_max_abs(A, block):
    """Largest |entry| of the leading block, read over the declared band."""
    m = context(A.precision).zero
    for i in range(min(block, A.nrows)):
        row = A.rows[i]
        for j in _band(i, A.lower_bw, A.upper_bw, min(block, A.ncols)):
            m = max(m, abs(row[j]))
    return m


def block_residual(A, B, block):
    """Max-entry difference of the leading blocks, relative to their scale.

    Only the union of the two declared bands is read: outside it both
    operands hold exact zeros.  The differences round in the context of the
    higher precision, which the swap puts on the left.
    """
    if block < 1:
        raise InternalConsistencyError("empty comparison block")
    if A.precision < B.precision:
        A, B = B, A
    lower, upper = max(A.lower_bw, B.lower_bw), max(A.upper_bw, B.upper_bw)
    diff = context(A.precision).zero
    for i in range(block):
        ra, rb = A.rows[i], B.rows[i]
        for j in _band(i, lower, upper, block):
            diff = max(diff, abs(ra[j] - rb[j]))
    return diff / max(1, block_max_abs(A, block), block_max_abs(B, block))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_jacobi(rec, size):
    """Tridiagonal symmetric truncation: diagonal beta_n, off-diagonal sqrt(gamma_{n+1})."""
    if not 0 <= size <= rec.size:
        raise IndexError(f"size {size} outside recurrence table {rec.size}")
    off = [context(rec.precision).sqrt(rec.gamma[n + 1]) for n in range(size - 1)]
    return _symmetric_from_diagonals({0: rec.beta[:size], 1: off}, size,
                                     rec.precision)


def build_iterated_jacobi(chris, size):
    """Tridiagonal truncation of the twice-transformed family from its scalar
    ledger: diagonal kappa_n, off-diagonal sqrt(tau_{n+1})."""
    if not 0 <= size <= chris.size:
        raise IndexError(f"size {size} outside ledger {chris.size}")
    prec = chris.rec.precision
    off = [context(prec).sqrt(chris.tau[n + 1]) for n in range(size - 1)]
    return _symmetric_from_diagonals({0: chris.kappa[:size], 1: off}, size, prec)


def cholesky_shifted(J, c, side="left"):
    """Lower bidiagonal L with L L^T = J - cI (side left) or cI - J (side right).

    Tridiagonal Cholesky is strictly forward-local, so the exact size is
    preserved.  A nonpositive pivot means c lies inside or too close to the
    support and raises.
    """
    if side not in ("left", "right"):
        raise InvalidParameterError("side must be 'left' or 'right'")
    sgn = 1 if side == "left" else -1
    n = J.nrows
    ctx = context(J.precision)
    c = to_mpf(c, ctx)
    diag, sub = [], []
    for i in range(n):
        pivot = sgn * (J.rows[i][i] - c)
        if i:
            pivot -= sub[i - 1] ** 2
        if not pivot > 0:
            raise NotPositiveDefiniteError(
                f"nonpositive pivot at row {i}: the shifted matrix is not "
                f"positive definite (c = {c} on the '{side}' side)"
            )
        diag.append(ctx.sqrt(pivot))
        if i + 1 < n:
            sub.append(sgn * J.rows[i + 1][i] / diag[i])
    return _from_diagonals({0: diag, -1: sub}, J.exact_size, J.precision)


def commute_cholesky(L, c, side="left"):
    """Next Jacobi matrix in the chain: L^T L re-shifted by c.

    Returns L^T L + cI on the left side, cI - L^T L on the right.  The last
    diagonal entry of L^T L needs a truncated-off row of L, so the exact size
    drops by one.
    """
    if side not in ("left", "right"):
        raise InvalidParameterError("side must be 'left' or 'right'")
    sgn = 1 if side == "left" else -1
    n = L.nrows
    c = to_mpf(c, context(L.precision))
    diag, off = [], []
    for i in range(n):
        d = L.rows[i][i] ** 2
        if i + 1 < n:
            d += L.rows[i + 1][i] ** 2
            off.append(sgn * L.rows[i + 1][i] * L.rows[i + 1][i + 1])
        diag.append(sgn * d + c)
    return _symmetric_from_diagonals({0: diag, 1: off}, L.exact_size - 1,
                                     L.precision)


def qr_pair(L, L1):
    """(Q, R) with Q = L L1^(-T) orthogonal and R = (L L1)^T upper triangular.

    Q is computed by forward substitution against L1 (never inverting), one
    subdiagonal and dense above; R has upper bandwidth 2 and positive
    diagonal.  Both give up one guard row.
    """
    n = L.nrows
    prec = max(L.precision, L1.precision)
    exact = min(L.exact_size, L1.exact_size) - 1
    zero = context(prec).zero
    qt = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(min(i + 2, n)):
            # acc and qt, made in the ``prec`` context, stay left operands
            acc = zero + L.rows[j][i] if 0 <= j - i <= 1 else zero
            if i:
                acc -= qt[i - 1][j] * L1.rows[i][i - 1]
            qt[i][j] = acc / L1.rows[i][i]
    Q = _freeze([list(col) for col in zip(*qt)], 1, n - 1, exact, prec)
    R = multiply(L, L1).transpose()
    R = _freeze([list(r) for r in R.rows], 0, 2, exact, prec)
    return Q, R


def build_T(sob, size):
    """Triangular connection matrix: row n holds the coefficients of s_n in
    the twice-transformed orthonormal basis (bandwidth 2 below the diagonal)."""
    if not 0 <= size <= sob.size:
        raise IndexError(f"size {size} outside ledger {sob.size}")
    return _from_diagonals({0: sob.gamma_nn[:size], -1: sob.gamma_n1[1:size],
                            -2: sob.gamma_n2[2:size]}, size, sob.rec.precision)


def build_H(sob, size):
    """Pentadiagonal symmetric matrix of multiplication by (x-c)^2 in the
    Sobolev orthonormal basis, assembled from the (a, b, c) ledger entries."""
    if not 0 <= size <= sob.size:
        raise IndexError(f"size {size} outside ledger {sob.size}")
    return _symmetric_from_diagonals({0: sob.cdiag[:size], 1: sob.b[1:size],
                                      2: sob.a[2:size]}, size, sob.rec.precision)


# ---------------------------------------------------------------------------
# pipeline and verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixSuite:
    """All matrices of one configuration at one truncation.

    Built at ``size + guard`` rows so that every verification block of
    ``size`` rows is exact.  ``J2`` comes from the double Cholesky commute
    (the chain route); ``J2_direct`` from the scalar recurrence ledger of the
    twice-transformed family -- the two feed a cross-check residual.
    """

    spec: object
    size: int
    guard: int
    precision: int
    side: str
    rec: object
    kt: object
    chris: object
    sob: object
    J: BandedMatrix
    L: BandedMatrix
    J1: BandedMatrix
    L1: BandedMatrix
    J2: BandedMatrix
    J2_direct: BandedMatrix
    Q: BandedMatrix
    R: BandedMatrix
    T: BandedMatrix
    H: BandedMatrix

    @classmethod
    def build(cls, spec, size, guard=4, precision=None):
        from .christoffel import ChristoffelLedger
        from .kernels import KernelTable
        from .sobolev import SobolevLedger

        if size < 3:
            raise InvalidParameterError("size must be >= 3")
        if guard < 2:
            raise InvalidParameterError("guard must be >= 2")
        precision = DEFAULT_PRECISION if precision is None else precision
        if precision < 64:
            raise InvalidParameterError("precision must be >= 64 bits")
        nb = size + guard
        rec = spec.measure.recurrence(nb + 5, precision)
        kt = KernelTable.build(rec, spec.c)
        chris = ChristoffelLedger.build(rec, kt, nb + 2)
        sob = SobolevLedger.build(rec, kt, chris, spec, nb + 2)
        side = spec.side
        J = build_jacobi(rec, nb)
        L = cholesky_shifted(J, spec.c, side)
        J1 = commute_cholesky(L, spec.c, side)
        L1 = cholesky_shifted(J1, spec.c, side)
        J2 = commute_cholesky(L1, spec.c, side)
        J2_direct = build_iterated_jacobi(chris, nb)
        Q, R = qr_pair(L, L1)
        T = build_T(sob, nb)
        H = build_H(sob, nb)
        return cls(spec=spec, size=size, guard=guard, precision=precision,
                   side=side, rec=rec, kt=kt, chris=chris, sob=sob,
                   J=J, L=L, J1=J1, L1=L1, J2=J2, J2_direct=J2_direct,
                   Q=Q, R=R, T=T, H=H)

    def named_matrices(self):
        return {
            "J": self.J, "L": self.L, "J1": self.J1, "L1": self.L1,
            "J2": self.J2, "Q": self.Q, "R": self.R, "T": self.T, "H": self.H,
        }


@dataclass(frozen=True)
class ResidualEntry:
    name: str
    residual: object
    block: int


@dataclass(frozen=True)
class ResidualReport:
    """Max-entry relative residuals of the factorization identities, each on
    the guard-trimmed leading block recorded next to it."""

    size: int
    guard: int
    precision: int
    entries: tuple

    @property
    def max_residual(self):
        return max(e.residual for e in self.entries)

    def all_within(self, tol):
        return all(e.residual <= tol for e in self.entries)

    def as_rows(self):
        return [(e.name, e.residual, e.block) for e in self.entries]


def orthogonality_defect(Q, block, ncols=None):
    """Max-entry distance of the leading block of Q Q^T from the identity.

    The row sums run over the ``ncols`` leading columns only (default: the
    exact region), i.e. over the truncation of the semi-infinite orthogonal
    factor.  Its rows are infinite, so the defect does not vanish; it shrinks
    as the truncation grows and is reported as a diagnostic trend.  (The full
    finite section is exactly orthogonal and would show nothing.)
    """
    m = Q.exact_size if ncols is None else ncols
    return _gram_defect([row[:m] for row in Q.rows[:block]], context(Q.precision))


def _gram_entries(vectors, ctx):
    """Yield (i, j, <v_i, v_j>) over the symmetric half (i <= j) of the Gram
    matrix of ``vectors``.

    Each entry is one ``ctx.fdot``: exact products, summed and rounded once
    at the context's precision.  Vectors of unequal length pair up over the
    shorter one's entries.
    """
    for i, u in enumerate(vectors):
        for j in range(i, len(vectors)):
            yield i, j, ctx.fdot(u, vectors[j])


def _gram_defect(vectors, ctx):
    """Max-entry distance of the Gram matrix of ``vectors`` from the identity."""
    worst = ctx.zero
    for i, j, v in _gram_entries(vectors, ctx):
        worst = max(worst, abs(v - 1) if i == j else abs(v))
    return worst


def _hessenberg_columns(Q, count):
    """The leading ``count`` columns of Q, column j cut below row
    j + lower_bw, where a Hessenberg factor's nonzeros end.  Their Gram
    matrix is the leading block of Qt Q."""
    return [[Q.rows[k][j] for k in range(min(Q.nrows, j + Q.lower_bw + 1))]
            for j in range(count)]


def verify_propositions(suite, size=None):
    """Residuals of every factorization identity of the chain.

    Each residual is evaluated on min(requested size, intersection of the
    operands' exact regions); an empty intersection raises
    :class:`InternalConsistencyError`.
    """
    size = suite.size if size is None else size
    sgn = 1 if suite.side == "left" else -1
    ctx = context(suite.precision)
    c = to_mpf(suite.spec.c, ctx)
    A0 = suite.J.shifted(-c).scaled(sgn)
    A2 = suite.J2.shifted(-c).scaled(sgn)
    A0sq = multiply(A0, A0)
    A2sq = multiply(A2, A2)
    Rt = suite.R.transpose()
    RRt = multiply(suite.R, Rt)
    Tt = suite.T.transpose()

    def compare(name, A, B):
        block = min(size, A.exact_size, B.exact_size)
        return ResidualEntry(name, block_residual(A, B, block), block)

    # The exact size Qt Q would have as a product: Q loses lower_bw rows.
    qtq_block = min(size, suite.Q.exact_size - suite.Q.lower_bw)
    entries = [
        compare("H = T Tt", suite.H, multiply(suite.T, Tt)),
        compare("H T = T (J2 - cI)^2", multiply(suite.H, suite.T),
                multiply(suite.T, A2sq)),
        compare("Q R = J - cI", multiply(suite.Q, suite.R), A0),
        compare("R Q = J2 - cI", multiply(suite.R, suite.Q), A2),
        compare("(J2 - cI)^2 = R Rt", A2sq, RRt),
        compare("(J - cI)^2 = Rt R", A0sq, multiply(Rt, suite.R)),
        compare("R Rt = Tt T", RRt, multiply(Tt, suite.T)),
        ResidualEntry("Qt Q = I",
                      _gram_defect(_hessenberg_columns(suite.Q, qtq_block), ctx),
                      qtq_block),
        compare("J2 chain = J2 ledger", suite.J2, suite.J2_direct),
    ]

    # Outside its declared band H holds exact zeros; read the band beyond 2.
    H, block = suite.H, min(size, suite.H.exact_size)
    stray = max((abs(H.rows[i][j]) for i in range(block)
                 for j in _band(i, H.lower_bw, H.upper_bw, block) if abs(i - j) > 2),
                default=ctx.zero)
    scale = max(1, block_max_abs(H, block))
    entries.append(ResidualEntry("H bandwidth <= 2", stray / scale, block))

    return ResidualReport(size=size, guard=suite.guard,
                          precision=suite.precision, entries=tuple(entries))
