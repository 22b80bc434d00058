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
multiplication by (x-c)^2 in the Sobolev basis.  The chain is stated for a
mass point left of the support; one right of it is the left-side problem of
the reflection x -> -x, so :meth:`MatrixSuite.build` runs the same chain on
-J at -c and negates J1 and J2, and Q R and R Q equal cI - J and cI - J2.

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

Each matrix operation runs at one precision: the operands of
:func:`multiply` and :func:`block_residual` (and so of :func:`qr_pair`) must
share it, and operands at two precisions raise :class:`InvalidParameterError`.
The chain (:func:`cholesky_shifted`, :func:`commute_cholesky`,
:func:`qr_pair`, the tridiagonal builders) and :func:`multiply` run on the
scalar kit (:class:`sobspec.core.Arith`) of that precision, mpf or
``EXACT``, and every matrix stores that kit's raw values; verification runs
exactly, on the :func:`aligned` ints, and rounds each residual once.
A product with B = A^T by value (A A for a symmetric A, X X^T, X^T X) is
symmetric term by term, so only its diagonals r >= 0 are formed and
mirrored, and a scan of two symmetric operands reads only their diagonals
k >= 0.
:class:`MatrixSuite` holds its inputs, the Sobolev ledger and the ten
matrices; it reaches the earlier ledgers through the Sobolev one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul, sub

from .christoffel import ChristoffelLedger
from .core import DEFAULT_PRECISION, Record, _check_int, _check_precision, _ints, arith, replace
from .errors import InternalConsistencyError, InvalidParameterError, NotPositiveDefiniteError
from .kernels import KernelTable
from .sobolev import SobolevLedger


class BandedMatrix(Record):
    """Immutable truncation of a semi-infinite banded operator.

    Only the band is stored: ``diagonals[lower_bw + k]`` is diagonal k (k < 0
    below the main one), top-left entry first, and every entry outside the
    band is an exact zero that is never held.  The diagonals hold raw values
    of the scalar kit (:class:`sobspec.core.Arith`); those of an
    :func:`aligned` matrix are ints standing for themselves times 2**``exp``.
    ``entry`` and ``band_entries`` return scalars, mpf at an mpf precision.
    Every matrix is assembled by ``from_diagonals``, except the cheap
    derivations ``transpose``, ``shifted`` and ``negated``.  ``exact_size``
    marks the leading block unaffected by truncation.
    """

    nrows: int
    ncols: int
    lower_bw: int
    upper_bw: int
    exact_size: int
    precision: int
    diagonals: tuple
    exp: int = None

    def entry(self, i, j):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.nrows}x{self.ncols} matrix")
        kit, k = self._scalars(), self.lower_bw + j - i
        return kit.wrap([self.diagonals[k][min(i, j)] if self.in_band(i, j) else kit.zero])[0]

    def in_band(self, i, j):
        return -self.lower_bw <= j - i <= self.upper_bw

    def diagonal(self, k):
        """Diagonal k as stored, top-left entry first; exact zeros outside the band."""
        if self.in_band(0, k):
            return self.diagonals[self.lower_bw + k]
        return (self._scalars().zero,) * _diagonal_length(self.nrows, self.ncols, k)

    def band_entries(self):
        """Yield (i, j, value) over the declared band, row-major, each value
        as ``entry`` returns it."""
        diagonals = tuple(map(self._scalars().wrap, self.diagonals))
        for i in range(self.nrows):
            for j in range(max(0, i - self.lower_bw), min(self.ncols, i + self.upper_bw + 1)):
                yield i, j, diagonals[self.lower_bw + j - i][min(i, j)]

    def _scalars(self):
        """The scalar kit of the stored values: the precision's, or ``int`` if aligned."""
        return arith(self.precision if self.exp is None else int)

    def transpose(self):
        return BandedMatrix(self.ncols, self.nrows, self.upper_bw, self.lower_bw,
                            self.exact_size, self.precision, self.diagonals[::-1], self.exp)

    def shifted(self, lam):
        """self + lam * I on the common diagonal, with the scalar kit's ``add``."""
        kit = arith(self.precision)
        lam = kit.of(lam)
        diagonals = list(self.diagonals)
        diagonals[self.lower_bw] = tuple(kit.add(v, lam) for v in diagonals[self.lower_bw])
        return self._with_diagonals(tuple(diagonals))

    def negated(self):
        """-self: every band entry's sign flipped, which is exact."""
        neg = self._scalars().neg
        return self._with_diagonals(tuple(tuple(map(neg, d)) for d in self.diagonals), self.exp)

    def _with_diagonals(self, diagonals, exp=None):
        return BandedMatrix(self.nrows, self.ncols, self.lower_bw, self.upper_bw,
                            self.exact_size, self.precision, diagonals, exp)


class HessenbergQ(BandedMatrix, derived=("diagonals",)):
    """The orthogonal factor Q = L L1^(-T) of :func:`qr_pair`, held by its
    O(n) generators.

    Q(j + 1, j) = ``sub[j]`` and Q(j, j) = ``diag[j]``; above the diagonal
    Q(j, i) = Q(j, i - 1) * rho_i with rho_i = -L1(i, i - 1) / L1(i, i)
    (``rho[i]``, and ``rho[0]`` is one), so the upper triangle has rank one;
    these generators are raw values, as the diagonals are.
    ``diagonals`` is left unset until something reads it (``entry``,
    ``band_entries``, ``transpose``, a product, serialization); then the band
    is expanded once, by the forward substitution against ``l1`` that
    :func:`qr_pair` always used, and cached; it is no field of Q.
    """

    diag: tuple
    sub: tuple
    rho: tuple
    l1: BandedMatrix

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
    The steps run on raw values with Q's scalar kit as ``x * (-s) / d``, L1's
    subdiagonal negated once, which has the bits of ``(-x) * s / d``: negation
    is exact and rounding to nearest symmetric in sign.  The diagonals are
    tuples, which ``from_diagonals`` keeps without a copy."""
    kit = arith(Q.precision)
    times, div = kit.mul, kit.div
    l1diag, l1sub, prev = Q.l1.diagonal(0), tuple(map(kit.neg, Q.l1.diagonal(-1))), Q.diag
    diagonals = {-1: Q.sub, 0: Q.diag}
    for k in range(1, upto + 1):
        prev = tuple([div(times(x, s), d) for x, s, d in zip(prev, l1sub[k - 1:], l1diag[k:])])
        diagonals[k] = prev
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
                        max(0, min(exact_size, nrows, ncols)), precision, tuple(stored), None)


def _symmetric_from_diagonals(diagonals, exact_size, precision):
    """Symmetric variant: ``diagonals[k]`` for k >= 0, mirrored below."""
    full = dict(diagonals)
    full.update({-k: diagonal for k, diagonal in diagonals.items() if k})
    return from_diagonals(full, exact_size, precision)


def identity(n, precision):
    return from_diagonals({0: [arith(precision).one] * n}, n, precision)


def _kit(A, B):
    """The scalar kit of both operands: their precision's, or ``int`` if aligned."""
    if (A.precision, A.exp is None) != (B.precision, B.exp is None):
        raise InvalidParameterError(f"operands at {A.precision} and {B.precision} bits, "
                                    "or one aligned; convert one first")
    return A._scalars()


def aligned(A):
    """A in exact ints: each entry m * 2**e becomes m * 2**(e - exp), ``exp``
    the smallest exponent of A's nonzero entries; an aligned A is kept."""
    if A.exp is not None:
        return A
    diagonals, exp = _ints(*A.diagonals)
    return A._with_diagonals(tuple(diagonals), exp)


def _is_transpose(A, B):
    """Whether B is A^T by value: shape, band and every stored entry.  Raw
    values compare by their bits, so unlike mpf ``==`` a NaN equals itself,
    and mirroring a product keeps its bits."""
    return ((A.nrows, A.ncols, A.lower_bw, A.upper_bw)
            == (B.ncols, B.nrows, B.upper_bw, B.lower_bw)
            and A.diagonals == B.diagonals[::-1])


def multiply(A, B):
    """A @ B with band union and exact-size propagation.

    The product consumes w = min(A.upper_bw, B.lower_bw) guard rows: entry
    (i, j) of the infinite product sums over k <= min(i + A.upper_bw,
    j + B.lower_bw), so the truncated sum is complete and made of exact
    operand entries only while i, j stay w short of the operands' markers.
    Diagonal r gathers diagonal p of A times diagonal r - p of B, p
    ascending, so every entry adds its terms in ascending k to an exact
    zero, which gives the first term its own bits.
    Both operands must have one precision, the product's.

    The sums run on raw values with the scalar kit of that precision, or the
    exact ``int`` kit for :func:`aligned` operands, whose exponents add.  When
    B is A^T by value, entry (j, i) has entry (i, j)'s terms, commuted, in
    the same order, so only diagonals r >= 0 are formed and the others
    mirror them.
    """
    if A.ncols != B.nrows:
        raise InvalidParameterError("inner dimensions differ")
    kit = _kit(A, B)
    add, times = kit.add, kit.mul
    mirror = _is_transpose(A, B)
    a_diags = A.diagonals
    b_diags = a_diags[::-1] if mirror else B.diagonals
    nrows, ncols = A.nrows, B.ncols
    diagonals = {}
    for r in range(0 if mirror else -min(A.lower_bw + B.lower_bw, max(nrows - 1, 0)),
                   min(A.upper_bw + B.upper_bw, max(ncols - 1, 0)) + 1):
        out = [kit.zero] * _diagonal_length(nrows, ncols, r)
        for p in range(max(-A.lower_bw, r - B.upper_bw),
                       min(A.upper_bw, r + B.lower_bw) + 1):
            # rows i with 0 <= i < nrows, 0 <= i + p < A.ncols, 0 <= i + r < ncols
            lo, hi = max(0, -p, -r), min(nrows, A.ncols - p, ncols - r)
            a = a_diags[A.lower_bw + p][lo + min(0, p):hi + min(0, p)]
            b = b_diags[B.lower_bw + r - p][lo + min(p, r):hi + min(p, r)]
            s = lo - max(0, -r)
            out[s:s + hi - lo] = map(add, out[s:s + hi - lo], map(times, a, b))
        diagonals[r] = out
    w = min(A.upper_bw, B.lower_bw)
    exact_size = min(A.exact_size, B.exact_size - w, A.ncols - w, A.nrows, B.ncols)
    product = (_symmetric_from_diagonals(diagonals, exact_size, A.precision) if mirror
               else from_diagonals(diagonals, exact_size, A.precision, (nrows, ncols)))
    return product if A.exp is None else replace(product, exp=A.exp + B.exp)


def _cut(A, lo, hi):
    """A's diagonals lo to hi as a matrix of its own, exact zeros elsewhere."""
    return replace(from_diagonals({k: A.diagonal(k) for k in range(lo, hi + 1)},
                                  A.exact_size, A.precision, (A.nrows, A.ncols)), exp=A.exp)


def block_residual(A, B, block, tail=None):
    """Max-entry difference of the leading blocks, divided by max(1, largest
    |entry| of either block), rounded once.

    Only the union of the two declared bands is read: outside it both
    operands are exact zeros, and when both are symmetric by value only
    diagonals k >= 0 are read.  Both operands must have one mpf precision.
    They are compared as :func:`aligned` ints at the smaller of their
    exponents, so differences and largest magnitudes are exact and only the
    division rounds.

    ``tail = (left, right, exp)`` gives A a rank-one part above its band,
    in ints: A(i, k) = left[i] * right[k] * 2**exp for k > i + A.upper_bw,
    as :func:`_q_products` holds a product of Q.  B must vanish there, so
    the largest tail entry is also the largest difference there; it is the
    exact product of a running max of |left| with |right|, in O(block).
    """
    if block < 1:
        raise InternalConsistencyError("empty comparison block")
    if tail and B.upper_bw > A.upper_bw:
        raise InternalConsistencyError("a tail needs B within A's band")
    A, B = aligned(A), aligned(B)
    _kit(A, B)
    exp = min(A.exp, B.exp)
    symmetric = _is_transpose(A, A) and _is_transpose(B, B)
    diff = top = 0
    for k in range(0 if symmetric else -max(A.lower_bw, B.lower_bw),
                   max(A.upper_bw, B.upper_bw) + 1):
        a, b = (_shifted(M.diagonal(k)[:max(0, block - abs(k))], M.exp - exp) for M in (A, B))
        d = list(map(sub, a, b))
        diff = max(diff, max(d, default=0), -min(d, default=0))
        top = max(top, max(a, default=0), -min(a, default=0), max(b, default=0),
                  -min(b, default=0))
    if tail:
        left, right, tail_exp = tail
        leads = accumulate(map(abs, left), max)  # running max of |left|
        far = max(map(mul, leads, map(abs, right[A.upper_bw + 1:block])), default=0)
        common = min(exp, tail_exp)
        diff, top, far = diff << (exp - common), top << (exp - common), far << (tail_exp - common)
        diff, top, exp = max(diff, far), max(top, far), common
    # diff * 2**exp / max(1, top * 2**exp) is diff / max(2**-exp, top); at
    # exp > 0, top = 0 means diff = 0, and max(1, top) serves.  The exact
    # ratio is rounded once.
    kit = arith(A.precision)
    return kit.wrap([kit.of(Fraction(diff, max(top, 1 << max(0, -exp))))])[0]


def _shifted(ints, by):
    """``ints`` times 2**by, for by >= 0; unshifted ints are kept as they are."""
    return [x << by for x in ints] if by else ints


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _tridiagonal(diag, off_sq, precision):
    """Symmetric tridiagonal matrix, exact at its full size, from its
    diagonal and the squares of its off-diagonal."""
    off = tuple(map(arith(precision).sqrt, off_sq))
    return _symmetric_from_diagonals({0: diag, 1: off}, len(diag), precision)


def build_jacobi(rec, size):
    """Tridiagonal symmetric truncation: diagonal beta_n, off-diagonal sqrt(gamma_{n+1})."""
    if not 0 <= size <= rec.size:
        raise IndexError(f"size {size} outside recurrence table {rec.size}")
    return _tridiagonal(rec.beta[:size], rec.gamma[1:size], rec.precision)


def build_iterated_jacobi(chris, size):
    """Tridiagonal truncation of the twice-transformed family from its scalar
    ledger: diagonal kappa_n, off-diagonal sqrt(tau_{n+1})."""
    if not 0 <= size <= chris.size:
        raise IndexError(f"size {size} outside ledger {chris.size}")
    return _tridiagonal(chris.kappa[:size], chris.tau[1:size], chris.kt.rec.precision)


def cholesky_shifted(J, c):
    """Lower bidiagonal L with L L^T = J - cI.

    Tridiagonal Cholesky is strictly forward-local, so the exact size is
    preserved.  A pivot that is not > 0 (a NaN included) means c lies inside
    or too close to the support and raises.  The loop runs on raw values
    with the scalar kit of J's precision, in the order of ``(J(i, i) - c) -
    L(i, i - 1) ** 2``, so it has the bits of the same formula on scalars.
    """
    kit, jdiag, jsub = arith(J.precision), J.diagonal(0), J.diagonal(-1)
    c = kit.of(c)
    minus, times, div, sqrt, gt = kit.sub, kit.mul, kit.div, kit.sqrt, kit.gt
    diag, low = [], []
    for i, d in enumerate(jdiag):
        pivot = minus(d, c)
        if i:
            pivot = minus(pivot, times(low[-1], low[-1]))
        if not gt(pivot, kit.zero):
            raise NotPositiveDefiniteError(
                f"nonpositive pivot at row {i}: the shifted Jacobi matrix is not positive "
                "definite, so the mass point lies inside or too close to the support")
        diag.append(sqrt(pivot))
        if i < len(jsub):
            low.append(div(jsub[i], diag[i]))
    return from_diagonals({0: diag, -1: low}, J.exact_size, J.precision)


def commute_cholesky(L, c):
    """Next Jacobi matrix in the chain: L^T L + cI.

    The last diagonal entry of L^T L needs a truncated-off row of L, read as
    zero, so the exact size drops by one.  Entry (i, i) is (L(i, i) ** 2 +
    L(i + 1, i) ** 2) + c, on raw values with L's scalar kit.
    """
    kit, ldiag, lsub = arith(L.precision), L.diagonal(0), L.diagonal(-1)
    c = kit.of(c)
    plus, times = kit.add, kit.mul
    diag = [plus(plus(times(x, x), times(s, s)), c) for x, s in zip(ldiag, (*lsub, kit.zero))]
    off = tuple(map(times, lsub, ldiag[1:]))
    return _symmetric_from_diagonals({0: diag, 1: off}, L.exact_size - 1, L.precision)


def qr_pair(L, L1):
    """(Q, R) with Q = L L1^(-T) orthogonal and R = (L L1)^T upper triangular.

    Q is a :class:`HessenbergQ`: forward substitution against L1 (never
    inverting) gives its subdiagonal and diagonal, and each column above the
    diagonal is the previous one times rho_i = -L1(i, i - 1) / L1(i, i), so
    only these O(n) generators are computed here, on raw values with the
    scalar kit.  R has upper bandwidth 2 and positive diagonal.  Both give
    up one guard row.
    """
    n = L.nrows
    exact = max(0, min(L.exact_size, L1.exact_size) - 1)
    kit, ldiag, lsub = arith(L.precision), L.diagonal(0), L.diagonal(-1)
    l1diag, l1sub = L1.diagonal(0), L1.diagonal(-1)
    div, minus, times, neg = kit.div, kit.sub, kit.mul, kit.neg
    sub = tuple(map(div, lsub, l1diag))
    acc = ldiag[:1] + tuple(minus(x, times(s, t)) for x, s, t in zip(ldiag[1:], sub, l1sub))
    diag = tuple(map(div, acc, l1diag))
    rho = (kit.one, *(div(neg(s), d) for s, d in zip(l1sub, l1diag[1:])))
    Q = HessenbergQ(n, n, min(1, max(n - 1, 0)), max(n - 1, 0), min(exact, n), L.precision,
                    diag=diag, sub=sub, rho=rho, l1=L1)
    R = replace(multiply(L, L1).transpose(), exact_size=exact)
    return Q, R


def build_T(sob, size):
    """Triangular connection matrix: row n holds the coefficients of s_n in
    the twice-transformed orthonormal basis (bandwidth 2 below the diagonal)."""
    if not 0 <= size <= sob.size:
        raise IndexError(f"size {size} outside ledger {sob.size}")
    return from_diagonals({0: sob.gamma_nn[:size], -1: sob.gamma_n1[1:size],
                            -2: sob.gamma_n2[2:size]}, size, sob.chris.kt.rec.precision)


def build_H(sob, size):
    """Pentadiagonal symmetric matrix of multiplication by (x-c)^2 in the
    Sobolev orthonormal basis, assembled from the (a, b, c) ledger entries."""
    if not 0 <= size <= sob.size:
        raise IndexError(f"size {size} outside ledger {sob.size}")
    return _symmetric_from_diagonals({0: sob.cdiag[:size], 1: sob.b[1:size],
                                      2: sob.a[2:size]}, size,
                                     sob.chris.kt.rec.precision)


# ---------------------------------------------------------------------------
# pipeline and verification
# ---------------------------------------------------------------------------

class MatrixSuite(Record):
    """All matrices of one configuration at one truncation.

    It holds its inputs (``spec``, ``size``, ``guard``, ``precision``), the
    Sobolev ledger ``sob`` (which reaches the earlier stages as ``sob.chris``,
    ``sob.chris.kt`` and ``sob.chris.kt.rec``) and the ten matrices.  Built at
    ``size + guard`` rows so that every verification block of ``size`` rows is
    exact.  ``J2`` comes from the double Cholesky commute (the chain route);
    ``J2_direct`` from the scalar recurrence ledger of the twice-transformed
    family -- the two feed a cross-check residual.
    """

    spec: object
    size: int
    guard: int
    precision: int
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
    def build(cls, spec, size, guard=4, precision=DEFAULT_PRECISION):
        _check_int("size", size, 3)
        _check_int("guard", guard, 2)
        precision = _check_precision(precision, 64)
        nb = size + guard
        rec = spec.measure.recurrence(nb + 5, precision)
        kt = KernelTable.build(rec, spec.c)
        chris = ChristoffelLedger.build(kt, nb + 2)
        sob = SobolevLedger.build(chris, spec.M, spec.N, nb + 2)
        J = build_jacobi(rec, nb)
        # Right of the support, the chain runs on the reflection, -J at -c:
        # kt.c, c rounded once, negates exactly, so L and L1 are the factors
        # of cI - J and cI - J1 bit for bit.
        right = spec.side == "right"
        c = -kt.c if right else kt.c
        L = cholesky_shifted(J.negated() if right else J, c)
        J1 = commute_cholesky(L, c)
        L1 = cholesky_shifted(J1, c)
        J2 = commute_cholesky(L1, c)
        if right:
            J1, J2 = J1.negated(), J2.negated()
        J2_direct = build_iterated_jacobi(chris, nb)
        Q, R = qr_pair(L, L1)
        T = build_T(sob, nb)
        H = build_H(sob, nb)
        return cls(spec=spec, size=size, guard=guard, precision=precision, sob=sob,
                   J=J, L=L, J1=J1, L1=L1, J2=J2, J2_direct=J2_direct,
                   Q=Q, R=R, T=T, H=H)

    def named_matrices(self):
        return {
            "J": self.J, "L": self.L, "J1": self.J1, "L1": self.L1,
            "J2": self.J2, "Q": self.Q, "R": self.R, "T": self.T, "H": self.H,
        }


class ResidualEntry(Record):
    name: str
    residual: object
    block: int


class ResidualReport(Record):
    """Max-entry relative residuals of the factorization identities, each on
    the guard-trimmed leading block recorded next to it."""

    entries: tuple

    @property
    def max_residual(self):
        return max(e.residual for e in self.entries)

    def all_within(self, tol):
        return all(e.residual <= tol for e in self.entries)

    def as_rows(self):
        return [(e.name, e.residual, e.block) for e in self.entries]


def _q_products(Q, R):
    """Q R, R Q and Qt Q from Q's generators in O(n): name of the identity ->
    (band, tail), the product being the :func:`aligned` ``band`` plus the
    rank-one ``tail`` above it, as :func:`block_residual` reads them.

    With P_k = rho_0 ... rho_k and u_j = Q(j, j) / P_j, Q(j, k) = u_j P_k
    above the diagonal, and R has upper bandwidth 2, so

    * (Q R)(i, k) = u_i z_k for k >= i + 3, z_k = sum of P_m R(m, k),
    * (R Q)(i, k) = w_i P_k for k >= i + 3, w_i = sum of R(i, m) u_m,
    * (Qt Q)(i, k) = v_i P_k for k > i, v_i = P_i S_i + Q(i + 1, i) u_(i+1),
      and (Qt Q)(i, i) = P_i^2 S_i + Q(i + 1, i)^2,

    where S_i = u_0^2 + ... + u_i^2.  P and u are rounded once, with Q's
    scalar kit, as Q's generators; they, Q's subdiagonal and R (given
    aligned or not) are then exact ints, and every sum above is an exact int
    sum, so a tail is (left, right, exp) in ints.  The bands of Q R and R Q
    are offsets -1 to 2 of the exact products of Q's diagonals -1 to 2 with
    the aligned R.  Qt Q is symmetric: its band is the diagonal (losing
    Q.lower_bw exact rows, Qt's upper bandwidth) and its tail the upper
    triangle.
    """
    kit, n, R = arith(Q.precision), Q.nrows, aligned(R)
    near = aligned(from_diagonals(_hessenberg_diagonals(Q, min(2, n - 1)), Q.exact_size,
                                  Q.precision))
    P = list(accumulate(Q.rho, kit.mul))
    u = list(map(kit.div, Q.diag, P))
    (P,), ep = _ints(P)
    (u,), eu = _ints(u)
    (sub,), es = _ints(Q.sub)
    r = [R.diagonal(k) for k in range(3)]  # R(m, m + k) = r[k][m]
    z, w = list(map(mul, P, r[0])), list(map(mul, r[0], u))
    for k in (1, 2):
        z[k:] = [x + p * y for x, p, y in zip(z[k:], P, r[k])]
        w[:n - k] = [x + y * v for x, y, v in zip(w, r[k], u[k:])]
    S = list(accumulate(x * x for x in u))
    sub, u_next = [*sub, 0], [*u[1:], 0]  # row n is truncated off
    eg, ev = min(2 * (ep + eu), 2 * es), min(ep + 2 * eu, es + eu)
    gram = [(p * p * sq << 2 * (ep + eu) - eg) + (s * s << 2 * es - eg)
            for p, s, sq in zip(P, sub, S)]
    v = [(p * sq << ep + 2 * eu - ev) + (s * un << es + eu - ev)
         for p, s, sq, un in zip(P, sub, S, u_next)]
    gram = replace(from_diagonals({0: gram}, Q.exact_size - Q.lower_bw, Q.precision), exp=eg)
    return {
        "Q R = J - cI": (_cut(multiply(near, R), -1, 2), (u, z, eu + ep + R.exp)),
        "R Q = J2 - cI": (_cut(multiply(R, near), -1, 2), (w, P, R.exp + eu + ep)),
        "Qt Q = I": (gram, (v, P, ev + ep)),
    }


def verify_propositions(suite):
    """Residuals of every factorization identity of the chain.

    Each residual is evaluated on min(suite size, intersection of the
    operands' exact regions) by :func:`block_residual`; an empty
    intersection raises :class:`InternalConsistencyError`.  The three
    identities of Q are read from its generators (:func:`_q_products`), so Q
    is never expanded.  Every product is exact, on :func:`aligned` operands.
    """
    minus_c = -suite.sob.chris.kt.c
    A0, A2 = suite.J.shifted(minus_c), suite.J2.shifted(minus_c)
    if suite.spec.side == "right":
        A0, A2 = A0.negated(), A2.negated()
    A0, A2, R, T, H = map(aligned, (A0, A2, suite.R, suite.T, suite.H))
    A0sq = multiply(A0, A0)
    A2sq = multiply(A2, A2)
    Rt = R.transpose()
    RRt = multiply(R, Rt)
    Tt = T.transpose()
    (QR, QR_tail), (RQ, RQ_tail), (QtQ, QtQ_tail) = _q_products(suite.Q, R).values()

    def compare(name, A, B, tail=None):
        block = min(suite.size, A.exact_size, B.exact_size)
        return ResidualEntry(name, block_residual(A, B, block, tail), block)

    entries = [
        compare("H = T Tt", H, multiply(T, Tt)),
        compare("H T = T (J2 - cI)^2", multiply(H, T), multiply(T, A2sq)),
        compare("Q R = J - cI", QR, A0, QR_tail),
        compare("R Q = J2 - cI", RQ, A2, RQ_tail),
        compare("(J2 - cI)^2 = R Rt", A2sq, RRt),
        compare("(J - cI)^2 = Rt R", A0sq, multiply(Rt, R)),
        compare("R Rt = Tt T", RRt, multiply(Tt, T)),
        compare("Qt Q = I", QtQ, identity(QtQ.nrows, suite.precision), QtQ_tail),
        compare("J2 chain = J2 ledger", suite.J2, suite.J2_direct),
        # H stores only its declared band; its diagonals beyond 2 must vanish.
        compare("H bandwidth <= 2", H, _cut(H, -2, 2)),
    ]
    return ResidualReport(tuple(entries))
