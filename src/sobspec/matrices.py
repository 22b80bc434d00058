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

Every matrix is banded and stores only its band, by diagonals, except Q.
Q is upper Hessenberg with a rank-one upper triangle, so it is held by O(n)
generators and expanded to its band only when its entries are read.  The
three identities of Q are checked from the generators in O(n * bandwidth):
each of Q R, R Q and Qt Q is a band near the diagonal plus a rank-one tail
above it.

Truncation bookkeeping: every matrix carries ``exact_size``, the number of
leading rows/columns guaranteed to agree with the semi-infinite object.
Commuting Cholesky factors consumes one row, forming Q/R consumes one, and a
product consumes min(left upper bandwidth, right lower bandwidth).  Residuals
are only ever evaluated inside the intersection of the operands' exact
regions, and every identity goes through one routine, :func:`block_residual`,
which reads a band and, for the products of Q, its rank-one tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import mul, sub

from .core import DEFAULT_PRECISION, context, to_mpf
from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    NotPositiveDefiniteError,
)


@dataclass(frozen=True)
class BandedMatrix:
    """Immutable truncation of a semi-infinite banded operator.

    Only the band is stored: ``diagonals[lower_bw + k]`` is diagonal k (k < 0
    below the main one), top-left entry first, and every entry outside the
    band is an exact zero that is never held.  Every matrix is assembled by
    ``from_diagonals``, except the cheap derivations ``transpose``,
    ``shifted`` and ``scaled``.  ``exact_size`` marks the leading block
    unaffected by truncation.  Serialization emits band entries only.
    """

    nrows: int
    ncols: int
    lower_bw: int
    upper_bw: int
    exact_size: int
    precision: int
    diagonals: tuple

    def entry(self, i, j):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.nrows}x{self.ncols} matrix")
        if not self.in_band(i, j):
            return context(self.precision).zero
        return self.diagonals[self.lower_bw + j - i][min(i, j)]

    def in_band(self, i, j):
        return -self.lower_bw <= j - i <= self.upper_bw

    def diagonal(self, k):
        """Diagonal k, top-left entry first; exact zeros outside the band."""
        if self.in_band(0, k):
            return self.diagonals[self.lower_bw + k]
        return (context(self.precision).zero,) * _diagonal_length(self.nrows, self.ncols, k)

    def band_entries(self):
        """Yield (i, j, value) over the declared band, row-major."""
        for i in range(self.nrows):
            for j in range(max(0, i - self.lower_bw), min(self.ncols, i + self.upper_bw + 1)):
                yield i, j, self.diagonals[self.lower_bw + j - i][min(i, j)]

    def transpose(self):
        return BandedMatrix(self.ncols, self.nrows, self.upper_bw, self.lower_bw,
                            self.exact_size, self.precision, self.diagonals[::-1])

    def shifted(self, lam):
        """self + lam * I on the common diagonal."""
        lam = to_mpf(lam, context(self.precision))
        diagonals = list(self.diagonals)
        diagonals[self.lower_bw] = tuple(v + lam for v in diagonals[self.lower_bw])
        return self._with_diagonals(tuple(diagonals))

    def scaled(self, s):
        """s * self, multiplying the band entries only."""
        s = to_mpf(s, context(self.precision))
        return self._with_diagonals(tuple(tuple(v * s for v in diagonal)
                                          for diagonal in self.diagonals))

    def _with_diagonals(self, diagonals):
        return BandedMatrix(self.nrows, self.ncols, self.lower_bw, self.upper_bw,
                            self.exact_size, self.precision, diagonals)


@dataclass(frozen=True)
class HessenbergQ(BandedMatrix):
    """The orthogonal factor Q = L L1^(-T) of :func:`qr_pair`, held by its
    O(n) generators.

    Q(j + 1, j) = ``sub[j]`` and Q(j, j) = ``diag[j]``; above the diagonal
    Q(j, i) = Q(j, i - 1) * rho_i with rho_i = -L1(i, i - 1) / L1(i, i)
    (``rho[i]``, and ``rho[0]`` is one), so the upper triangle has rank one.
    ``diagonals`` is left unset until something reads it (``entry``,
    ``band_entries``, ``transpose``, a product, serialization); then the band
    is expanded once, by the forward substitution against ``l1`` that
    :func:`qr_pair` always used, and cached.
    """

    diagonals: tuple = field(init=False, repr=False, compare=False)
    diag: tuple
    sub: tuple
    rho: tuple
    l1: BandedMatrix = field(repr=False)

    def __getattr__(self, name):  # only for a missing attribute: ``diagonals`` until expanded
        if name != "diagonals":
            raise AttributeError(name)
        diagonals = from_diagonals(_hessenberg_diagonals(self, self.nrows - 1),
                                   self.exact_size, self.precision).diagonals
        object.__setattr__(self, "diagonals", diagonals)
        return diagonals


def _hessenberg_diagonals(Q, upto):
    """Diagonals -1 to ``upto`` of a :class:`HessenbergQ`: diagonal k >= 1
    from diagonal k - 1 by forward substitution against L1, in one fixed
    operation order, so an entry has the same bits however far this goes.
    The diagonals are tuples, which ``from_diagonals`` keeps without a copy."""
    zero = context(Q.precision).zero  # made in Q's context, as left operand
    l1diag, l1sub = Q.l1.diagonal(0), Q.l1.diagonal(-1)
    diagonals = {-1: Q.sub, 0: Q.diag}
    for k in range(1, upto + 1):
        prev = diagonals[k - 1]
        diagonals[k] = tuple([(zero - prev[j] * l1sub[j + k - 1]) / l1diag[j + k]
                              for j in range(len(prev) - 1)])
    return diagonals


def _diagonal_length(nrows, ncols, k):
    return max(0, min(nrows - max(-k, 0), ncols - max(k, 0)))


def from_diagonals(diagonals, exact_size, precision, shape=None):
    """The matrix holding ``diagonals[k]`` on diagonal k (k < 0 below the main
    one, top-left entry first) and exact zeros elsewhere.

    ``shape`` is (nrows, ncols), square by the main diagonal if omitted.  The
    outermost offsets, cut to the shape, declare the band; every offset
    between them must be given at its full length.
    """
    nrows, ncols = shape or (len(diagonals[0]),) * 2
    lower_bw = min(-min(diagonals), max(nrows - 1, 0))
    upper_bw = min(max(diagonals), max(ncols - 1, 0))
    stored = []
    for k in range(-lower_bw, upper_bw + 1):
        diagonal = tuple(diagonals.get(k, ()))
        if len(diagonal) != _diagonal_length(nrows, ncols, k):
            raise InvalidParameterError(
                f"diagonal {k} of a {nrows}x{ncols} matrix has {len(diagonal)} entries")
        stored.append(diagonal)
    return BandedMatrix(nrows, ncols, lower_bw, upper_bw,
                        max(0, min(exact_size, nrows, ncols)), precision, tuple(stored))


def _symmetric_from_diagonals(diagonals, exact_size, precision):
    """Symmetric variant: ``diagonals[k]`` for k >= 0, mirrored below."""
    full = dict(diagonals)
    full.update({-k: diagonal for k, diagonal in diagonals.items() if k})
    return from_diagonals(full, exact_size, precision)


def identity(n, precision):
    return from_diagonals({0: [context(precision).one] * n}, n, precision)


def multiply(A, B):
    """A @ B with band union and exact-size propagation.

    The product consumes w = min(A.upper_bw, B.lower_bw) guard rows: entry
    (i, j) of the infinite product sums over k <= min(i + A.upper_bw,
    j + B.lower_bw), so the truncated sum is complete and made of exact
    operand entries only while i, j stay w short of the operands' markers.
    Diagonal r gathers diagonal p of A times diagonal r - p of B, p
    ascending, so every entry adds its terms in ascending k, starting from
    its first term (adding it to an exact zero would not change its bits).
    """
    if A.ncols != B.nrows:
        raise InvalidParameterError("inner dimensions differ")
    nrows, ncols = A.nrows, B.ncols
    prec = max(A.precision, B.precision)
    ctx = context(prec)
    adiags = A.diagonals
    if A.precision < prec:  # a product rounds in its left operand's context
        adiags = [[ctx.make_mpf(v._mpf_) for v in d] for d in adiags]
    diagonals = {}
    for r in range(-min(A.lower_bw + B.lower_bw, max(nrows - 1, 0)),
                   min(A.upper_bw + B.upper_bw, max(ncols - 1, 0)) + 1):
        out = [None] * _diagonal_length(nrows, ncols, r)
        for p in range(max(-A.lower_bw, r - B.upper_bw),
                       min(A.upper_bw, r + B.lower_bw) + 1):
            # rows i with 0 <= i < nrows, 0 <= i + p < A.ncols, 0 <= i + r < ncols
            lo, hi = max(0, -p, -r), min(nrows, A.ncols - p, ncols - r)
            a = adiags[A.lower_bw + p][lo + min(0, p):hi + min(0, p)]
            b = B.diagonals[B.lower_bw + r - p][lo + min(p, r):hi + min(p, r)]
            s = lo - max(0, -r)
            out[s:s + hi - lo] = [x * y if acc is None else acc + x * y
                                  for acc, x, y in zip(out[s:], a, b)]
        diagonals[r] = [ctx.zero if v is None else v for v in out]
    w = min(A.upper_bw, B.lower_bw)
    exact = min(A.exact_size, B.exact_size - w, A.ncols - w, A.nrows, B.ncols)
    return from_diagonals(diagonals, exact, prec, (nrows, ncols))


def _cut(A, lo, hi):
    """A's diagonals lo to hi as a matrix of its own, exact zeros elsewhere."""
    return from_diagonals({k: A.diagonal(k) for k in range(lo, hi + 1)},
                          A.exact_size, A.precision, (A.nrows, A.ncols))


def _leading(A, k, block):
    """Diagonal k of A's leading block x block (exact zeros outside the band)."""
    return A.diagonal(k)[:max(0, block - abs(k))]


def block_residual(A, B, block, tail=None):
    """Max-entry difference of the leading blocks, divided by max(1, largest
    |entry| of either block).

    Only the union of the two declared bands is read: outside it both
    operands are exact zeros.  The differences round in the context of the
    higher precision, which the swap puts on the left.

    ``tail = (left, right)`` gives A a rank-one part above its band: A(i, k)
    = left[i] * right[k] for k > i + A.upper_bw, as :func:`_q_products` holds
    a product of Q.  B must vanish there, so the largest tail entry is also
    the largest difference there; it comes from a running max of |left|, in
    O(block).  The swap cannot move a tail, so A must be the more precise.
    """
    if block < 1:
        raise InternalConsistencyError("empty comparison block")
    if tail and (A.precision < B.precision or B.upper_bw > A.upper_bw):
        raise InternalConsistencyError("a tail needs B within A's band and precision")
    if A.precision < B.precision:
        A, B = B, A
    diff = top = far = lead = context(A.precision).zero
    for k in range(-max(A.lower_bw, B.lower_bw), max(A.upper_bw, B.upper_bw) + 1):
        a, b = _leading(A, k, block), _leading(B, k, block)
        diff = max([diff, *map(abs, map(sub, a, b))])
        top = max([top, *map(abs, a), *map(abs, b)])
    if tail:
        left, right = tail
        for x, y in zip(left, right[A.upper_bw + 1:block]):
            lead = max(lead, abs(x))
            far = max(far, lead * abs(y))
    return max(diff, far) / max(1, top, far)


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
    jdiag, jsub = J.diagonal(0), J.diagonal(-1)
    diag, sub = [], []
    for i in range(n):
        pivot = sgn * (jdiag[i] - c)
        if i:
            pivot -= sub[i - 1] ** 2
        if not pivot > 0:
            raise NotPositiveDefiniteError(
                f"nonpositive pivot at row {i}: the shifted matrix is not "
                f"positive definite (c = {c} on the '{side}' side)"
            )
        diag.append(ctx.sqrt(pivot))
        if i + 1 < n:
            sub.append(sgn * jsub[i] / diag[i])
    return from_diagonals({0: diag, -1: sub}, J.exact_size, J.precision)


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
    ldiag, lsub = L.diagonal(0), L.diagonal(-1)
    diag, off = [], []
    for i in range(n):
        d = ldiag[i] ** 2
        if i + 1 < n:
            d += lsub[i] ** 2
            off.append(sgn * lsub[i] * ldiag[i + 1])
        diag.append(sgn * d + c)
    return _symmetric_from_diagonals({0: diag, 1: off}, L.exact_size - 1,
                                     L.precision)


def qr_pair(L, L1):
    """(Q, R) with Q = L L1^(-T) orthogonal and R = (L L1)^T upper triangular.

    Q is a :class:`HessenbergQ`: forward substitution against L1 (never
    inverting) gives its subdiagonal and diagonal, and each column above the
    diagonal is the previous one times rho_i = -L1(i, i - 1) / L1(i, i), so
    only these O(n) generators are computed here.  R has upper bandwidth 2
    and positive diagonal.  Both give up one guard row.
    """
    n = L.nrows
    prec = max(L.precision, L1.precision)
    exact = max(0, min(L.exact_size, L1.exact_size) - 1)
    ctx = context(prec)
    zero = ctx.zero
    ldiag, lsub = L.diagonal(0), L.diagonal(-1)
    l1diag, l1sub = L1.diagonal(0), L1.diagonal(-1)
    # Generators start from ``zero``, made in the ``prec`` context, as left operands.
    sub = [(zero + lsub[j]) / l1diag[j] for j in range(n - 1)]
    diag = []
    for j in range(n):
        acc = zero + ldiag[j]
        if j:
            acc -= sub[j - 1] * l1sub[j - 1]
        diag.append(acc / l1diag[j])
    rho = [ctx.one] + [(zero - l1sub[i - 1]) / l1diag[i] for i in range(1, n)]
    Q = HessenbergQ(n, n, min(1, max(n - 1, 0)), max(n - 1, 0), min(exact, n), prec,
                    tuple(diag), tuple(sub), tuple(rho), L1)
    R = replace(multiply(L, L1).transpose(), exact_size=exact)
    return Q, R


def build_T(sob, size):
    """Triangular connection matrix: row n holds the coefficients of s_n in
    the twice-transformed orthonormal basis (bandwidth 2 below the diagonal)."""
    if not 0 <= size <= sob.size:
        raise IndexError(f"size {size} outside ledger {sob.size}")
    return from_diagonals({0: sob.gamma_nn[:size], -1: sob.gamma_n1[1:size],
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

def _check_int(name, value, least, unit=""):
    """``value`` if it is an integer >= ``least``, else InvalidParameterError."""
    if not isinstance(value, int) or value < least:
        raise InvalidParameterError(
            f"{name} must be an integer >= {least}{unit}, got {value!r}")
    return value


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

        _check_int("size", size, 3)
        _check_int("guard", guard, 2)
        precision = DEFAULT_PRECISION if precision is None else precision
        _check_int("precision", precision, 64, " bits")
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
    finite section is exactly orthogonal and would show nothing.)  It reads
    Q's entries, so it expands a :class:`HessenbergQ` to its band.  Each
    inner product is one ``fdot``: exact products, summed and rounded once.
    """
    m = min(Q.exact_size if ncols is None else ncols, Q.ncols)
    rows = [[Q.entry(i, j) for j in range(m)] for i in range(min(block, Q.nrows))]
    ctx, worst = context(Q.precision), context(Q.precision).zero
    for i, u in enumerate(rows):
        for j in range(i, len(rows)):
            v = ctx.fdot(u, rows[j])
            worst = max(worst, abs(v - 1) if i == j else abs(v))
    return worst


def _q_products(Q, R):
    """Q R, R Q and Qt Q from Q's generators in O(n): name of the identity ->
    (band, tail), the product being ``band`` plus the rank-one ``tail``
    above it, as :func:`block_residual` reads them.

    With P_k = rho_0 ... rho_k and u_j = Q(j, j) / P_j, Q(j, k) = u_j P_k
    above the diagonal, and R has upper bandwidth 2, so

    * (Q R)(i, k) = u_i z_k for k >= i + 3, z_k = sum of P_m R(m, k),
    * (R Q)(i, k) = w_i P_k for k >= i + 3, w_i = sum of R(i, m) u_m,
    * (Qt Q)(i, k) = v_i P_k for k > i, v_i = P_i S_i + Q(i + 1, i) u_(i+1),
      and (Qt Q)(i, i) = P_i^2 S_i + Q(i + 1, i)^2,

    where S_i = u_0^2 + ... + u_i^2 is accumulated exactly and every sum is
    one ``fdot``.  The bands of Q R and R Q are offsets -1 to 2 of the
    products with Q's diagonals -1 to 2, bit for bit the full products'.  Qt Q
    is symmetric: its band is the diagonal (losing Q.lower_bw exact rows, Qt's
    upper bandwidth) and its tail the upper triangle.
    """
    ctx = context(Q.precision)
    n, zero = Q.nrows, ctx.zero
    near = from_diagonals(_hessenberg_diagonals(Q, min(2, n - 1)), Q.exact_size,
                          Q.precision)
    P = list(accumulate(Q.rho, mul))
    u = [d / p for d, p in zip(Q.diag, P)]
    rdiags = [R.diagonal(k) for k in range(3)]
    z = [ctx.fdot(P[max(0, k - 2):k + 1],
                  [rdiags[k - m][m] for m in range(max(0, k - 2), k + 1)])
         for k in range(n)]
    w = [ctx.fdot([rdiags[m - i][i] for m in range(i, min(i + 3, n))], u[i:i + 3])
         for i in range(n)]
    S = list(accumulate((ctx.fmul(x, x, exact=True) for x in u),
                        lambda a, b: ctx.fadd(a, b, exact=True)))
    sub, u_next = [*Q.sub, zero], [*u[1:], zero]  # row n is truncated off
    gram_diag = [ctx.fdot([ctx.fmul(p, p, exact=True), s], [sq, s])
                 for p, s, sq in zip(P, sub, S)]
    v = [ctx.fdot([p, s], [sq, un]) for p, s, sq, un in zip(P, sub, S, u_next)]
    gram = from_diagonals({0: gram_diag}, Q.exact_size - Q.lower_bw, Q.precision)
    return {
        "Q R = J - cI": (_cut(multiply(near, R), -1, 2), (u, z)),
        "R Q = J2 - cI": (_cut(multiply(R, near), -1, 2), (w, P)),
        "Qt Q = I": (gram, (v, P)),
    }


def verify_propositions(suite, size=None):
    """Residuals of every factorization identity of the chain.

    Each residual is evaluated on min(requested size, intersection of the
    operands' exact regions) by :func:`block_residual`.  The requested size
    must be an integer >= 1 (:class:`InvalidParameterError` otherwise), and an
    empty intersection raises :class:`InternalConsistencyError`.  The three
    identities of Q are read from its generators (:func:`_q_products`), so Q
    is never expanded.
    """
    size = suite.size if size is None else _check_int("size", size, 1)
    sgn = 1 if suite.side == "left" else -1
    c = to_mpf(suite.spec.c, context(suite.precision))
    R, H = suite.R, suite.H
    A0 = suite.J.shifted(-c).scaled(sgn)
    A2 = suite.J2.shifted(-c).scaled(sgn)
    A0sq = multiply(A0, A0)
    A2sq = multiply(A2, A2)
    Rt = R.transpose()
    RRt = multiply(R, Rt)
    Tt = suite.T.transpose()
    (QR, QR_tail), (RQ, RQ_tail), (QtQ, QtQ_tail) = _q_products(suite.Q, R).values()

    def compare(name, A, B, tail=None):
        block = min(size, A.exact_size, B.exact_size)
        return ResidualEntry(name, block_residual(A, B, block, tail), block)

    entries = [
        compare("H = T Tt", H, multiply(suite.T, Tt)),
        compare("H T = T (J2 - cI)^2", multiply(H, suite.T), multiply(suite.T, A2sq)),
        compare("Q R = J - cI", QR, A0, QR_tail),
        compare("R Q = J2 - cI", RQ, A2, RQ_tail),
        compare("(J2 - cI)^2 = R Rt", A2sq, RRt),
        compare("(J - cI)^2 = Rt R", A0sq, multiply(Rt, R)),
        compare("R Rt = Tt T", RRt, multiply(Tt, suite.T)),
        compare("Qt Q = I", QtQ, identity(QtQ.nrows, suite.precision), QtQ_tail),
        compare("J2 chain = J2 ledger", suite.J2, suite.J2_direct),
        # H stores only its declared band; its diagonals beyond 2 must vanish.
        compare("H bandwidth <= 2", H, _cut(H, -2, 2)),
    ]
    return ResidualReport(size=size, guard=suite.guard,
                          precision=suite.precision, entries=tuple(entries))
