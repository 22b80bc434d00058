"""Matrix chain: builders, Cholesky commutes, QR, and the identity residuals."""

import json
import math
import operator
from fractions import Fraction as F
from itertools import accumulate

import mpmath as mp
import pytest
from mpmath.libmp import from_rational, mpf_neg, round_nearest

from helpers import (
    TOL30,
    assert_rel,
    assert_squared,
    dense_product,
    exact_matmul,
    exact_residual,
    exact_rows,
    fraction,
    mpf_of,
    reflected_laguerre,
)
from sobspec.core import (
    DEFAULT_PRECISION,
    EXACT,
    MeasureSpec,
    SobolevSpec,
    SqrtRational,
    arith,
    fields,
    replace,
)
from sobspec.errors import (
    InternalConsistencyError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    OracleUnsupportedError,
)
from sobspec.matrices import (
    BandedMatrix,
    HessenbergQ,
    MatrixSuite,
    _q_products,
    aligned,
    block_residual,
    build_jacobi,
    cholesky_shifted,
    commute_cholesky,
    from_diagonals,
    identity,
    multiply,
    qr_pair,
    verify_propositions,
)
from sobspec.oracle import squared_entry_compare
from sobspec.serialize import ledgers_to_doc, matrix_from_json, matrix_to_json
from sobspec.sobolev import SobolevLedger
from test_ledger_bits import CONFIGS, mpf_fields, sobolev_fields


@pytest.fixture(scope="module")
def suite(spec):
    return MatrixSuite.build(spec, size=20, guard=4)


def reflected_spec(size, alpha=0, c=1, M=1, N=1):
    """Laguerre of integer ``alpha`` reflected by x -> -x, with ``size``
    recurrence coefficients and the mass point c > 0 on its right."""
    measure = MeasureSpec.custom(
        beta=[-(2 * n + 1 + alpha) for n in range(size)],
        gamma=[n * (n + alpha) for n in range(size)],
        support=(float("-inf"), 0.0),
        norm0_sq=math.factorial(alpha),
    )
    return SobolevSpec(measure, c=c, M=M, N=N)


def identity_operands(suite):
    """The pairs verify_propositions compares through ``block_residual``,
    formed with mpf products (verify forms them exactly, on aligned
    operands): name -> (A, B)."""
    c = mpf_of(suite.spec.c, suite.precision)
    A0, A2 = suite.J.shifted(-c), suite.J2.shifted(-c)
    if suite.spec.side == "right":
        A0, A2 = A0.negated(), A2.negated()
    A2sq = multiply(A2, A2)
    R, T, Rt, Tt = suite.R, suite.T, suite.R.transpose(), suite.T.transpose()
    return {
        "H = T Tt": (suite.H, multiply(T, Tt)),
        "H T = T (J2 - cI)^2": (multiply(suite.H, T), multiply(T, A2sq)),
        "Q R = J - cI": (multiply(suite.Q, R), A0),
        "R Q = J2 - cI": (multiply(R, suite.Q), A2),
        "(J2 - cI)^2 = R Rt": (A2sq, multiply(R, Rt)),
        "(J - cI)^2 = Rt R": (multiply(A0, A0), multiply(Rt, R)),
        "R Rt = Tt T": (multiply(R, Rt), multiply(Tt, T)),
        "J2 chain = J2 ledger": (suite.J2, suite.J2_direct),
    }


def suite_and_operand_matrices(suite):
    """Every matrix of the suite, J2_direct, the transposes and every operand
    verify_propositions forms: name -> matrix."""
    matrices = dict(suite.named_matrices(), J2_direct=suite.J2_direct,
                    Qt=suite.Q.transpose(), Rt=suite.R.transpose(),
                    Tt=suite.T.transpose())
    for name, (A, B) in identity_operands(suite).items():
        matrices[f"{name} lhs"], matrices[f"{name} rhs"] = A, B
    return matrices


#: The identities verify_propositions reads from Q's generators, not from
#: products of matrices.
Q_ROWS = ("Q R = J - cI", "R Q = J2 - cI", "Qt Q = I")


def layout(m):
    """Shape, band, exact size, precision and the bits of every band entry."""
    return (m.nrows, m.ncols, m.lower_bw, m.upper_bw, m.exact_size, m.precision,
            [list(diagonal) for diagonal in m.diagonals])


def stray_entries(matrix):
    """Positions outside the declared band that hold anything but exact zero."""
    return [(i, j) for i in range(matrix.nrows) for j in range(matrix.ncols)
            if not matrix.in_band(i, j) and matrix.entry(i, j) != 0]


def band_with_tail(n=7):
    """A tridiagonal band with a rank-one tail (ints with their exponent,
    as ``block_residual`` reads it), the same matrix written out (its tail
    entries the exact products), and a tridiagonal B to compare them with."""
    of = arith(64).of
    band = from_diagonals({k: [of(F(3 * i + k, 7)) for i in range(n - abs(k))]
                           for k in (-1, 0, 1)}, n, 64)
    left, right, exp = [(-2) ** i * 3 for i in range(n)], [5 * (k + 1) for k in range(n)], -7
    dense = from_diagonals({**{k: [of(F(left[i] * right[i + k], 2 ** -exp))
                                   for i in range(n - k)] for k in range(2, n)},
                            **{k: band.diagonal(k) for k in (-1, 0, 1)}}, n, 64)
    B = from_diagonals({k: [of(F(i - k, 5)) for i in range(n - abs(k))]
                        for k in (-1, 0, 1)}, n, 64)
    return band, (left, right, exp), dense, B


def sided(side, spec, precision=DEFAULT_PRECISION):
    """Size 40 on the worked Laguerre example (left) or on the reflected
    measure (right)."""
    return MatrixSuite.build(spec if side == "left" else reflected_spec(49),
                             size=40, guard=4, precision=precision)


@pytest.fixture(scope="module", params=["left", "right"])
def sided_suite(request, spec):
    return sided(request.param, spec)


def exact_q_tails(Q, R):
    """Reference for the tails of ``_q_products``, independent of it: Q's
    rounded generators P_k = rho_0 ... rho_k and u_j = Q(j, j) / P_j formed
    with mpf, then z, w, S, v and the Gram diagonal as exact Fractions from
    them, Q's subdiagonal and R's entries: name -> (left, right) of the
    tail, and the Gram diagonal."""
    rho, diag, qsub = map(arith(Q.precision).wrap, (Q.rho, Q.diag, Q.sub))
    P = list(accumulate(rho, operator.mul))
    P, u = [fraction(p) for p in P], [fraction(d / p) for d, p in zip(diag, P)]
    n, sub, Rx = Q.nrows, [*map(fraction, qsub), 0], exact_rows(R)
    z = [sum(P[m] * Rx[m].get(k, 0) for m in range(k + 1)) for k in range(n)]
    w = [sum(Rx[i].get(m, 0) * u[m] for m in range(i, n)) for i in range(n)]
    S = [sum(x * x for x in u[:i + 1]) for i in range(n)]
    v = [P[i] * S[i] + sub[i] * (u[i + 1] if i + 1 < n else 0) for i in range(n)]
    gram = [P[i] ** 2 * S[i] + sub[i] ** 2 for i in range(n)]
    return {"Q R = J - cI": (u, z), "R Q = J2 - cI": (w, P), "Qt Q = I": (v, P)}, gram


def exact_identities(s):
    """Both sides of every residual row of verify_propositions as exact
    matrices (``exact_rows``), formed from the suite's mpf operands by exact
    products.  Q's rows take Q's diagonals -1 to 2 and the exact tails of
    :func:`exact_q_tails`, from Q's rounded generators."""
    c, right = mpf_of(s.spec.c, s.precision), s.spec.side == "right"
    A0, A2 = (exact_rows(M.shifted(-c).negated() if right else M.shifted(-c))
              for M in (s.J, s.J2))
    H, T, R, Tt, Rt = map(exact_rows, (s.H, s.T, s.R, s.T.transpose(), s.R.transpose()))
    A2sq, RRt = exact_matmul(A2, A2), exact_matmul(R, Rt)
    tails, gram_diag = exact_q_tails(s.Q, s.R)

    def q_side(band, name, lo):
        """``band``'s offsets -1 to 2 plus the exact tail from offset ``lo``."""
        left, right = tails[name]
        rows = [{j: v for j, v in row.items() if -1 <= j - i <= 2} for i, row in enumerate(band)]
        for i, row in enumerate(rows):
            for k in range(i + lo, len(rows)):
                row[k] = left[i] * right[k]
                if lo == 1:  # Qt Q is symmetric
                    rows[k][i] = row[k]
        return rows

    near = [{j: v for j, v in row.items() if j - i <= 2} for i, row in enumerate(exact_rows(s.Q))]
    gram = [{i: g} if g else {} for i, g in enumerate(gram_diag)]
    one = exact_rows(identity(s.Q.nrows, s.precision))
    return {
        "H = T Tt": (H, exact_matmul(T, Tt)),
        "H T = T (J2 - cI)^2": (exact_matmul(H, T), exact_matmul(T, A2sq)),
        "Q R = J - cI": (q_side(exact_matmul(near, R), "Q R = J - cI", 3), A0),
        "R Q = J2 - cI": (q_side(exact_matmul(R, near), "R Q = J2 - cI", 3), A2),
        "(J2 - cI)^2 = R Rt": (A2sq, RRt),
        "(J - cI)^2 = Rt R": (exact_matmul(A0, A0), exact_matmul(Rt, R)),
        "R Rt = Tt T": (RRt, exact_matmul(Tt, T)),
        "Qt Q = I": (q_side(gram, "Qt Q = I", 1), one),
        "J2 chain = J2 ledger": (exact_rows(s.J2), exact_rows(s.J2_direct)),
        "H bandwidth <= 2": (H, [{j: v for j, v in row.items() if abs(j - i) <= 2}
                                 for i, row in enumerate(H)]),
    }


def assert_residuals_equal_exact_reference(s):
    """Every residual row of verify_propositions is the exact residual of its
    operands, rounded once, bit for bit, on the block its operands' exact
    sizes allow."""
    rows = verify_propositions(s).as_rows()
    identities = exact_identities(s)
    assert [name for name, _, _ in rows] == list(identities)
    operands = identity_operands(s)
    for name, residual, block in rows:
        if name in operands and name not in Q_ROWS:  # see test_q_products_match_dense_products
            A, B = operands[name]
            assert block == min(s.size, A.exact_size, B.exact_size), name
        expected = exact_residual(*identities[name], block, s.precision)
        assert residual._mpf_ == expected._mpf_, name


def exact_laguerre_jacobi(n):
    """J of Laguerre, alpha = 0, at ``EXACT``: beta_k = 2k + 1, gamma_k = k^2."""
    off = [SqrtRational(1, k * k) for k in range(1, n)]
    return from_diagonals({-1: off, 0: [SqrtRational.from_rational(2 * k + 1) for k in range(n)],
                           1: off}, n, EXACT)


class TestJacobi:
    def test_entries(self, rec):
        J = build_jacobi(rec, 6)
        assert [int(J.entry(i, i)) for i in range(6)] == [1, 3, 5, 7, 9, 11]
        for n in range(5):
            assert_squared(J.entry(n, n + 1), F((n + 1) ** 2))

    def test_exactly_symmetric(self, rec):
        J = build_jacobi(rec, 8)
        for i in range(8):
            for j in range(8):
                assert J.entry(i, j) == J.entry(j, i)

    def test_band_discipline(self, rec):
        J = build_jacobi(rec, 6)
        assert (J.lower_bw, J.upper_bw, J.exact_size) == (1, 1, 6)
        for i in range(6):
            for j in range(6):
                if abs(i - j) > 1:
                    assert J.entry(i, j) == 0


class TestBandedStorage:
    def test_entry_index_range(self, rec):
        J = build_jacobi(rec, 6)
        assert J.entry(0, 5) == J.entry(5, 0) == 0
        assert J.entry(5, 5) == 11
        for i, j in ((-1, 0), (6, 0), (0, 6), (0, -1)):
            with pytest.raises(IndexError):
                J.entry(i, j)

    def test_json_missing_band_entry_rejected(self, rec):
        doc = json.loads(matrix_to_json("J", build_jacobi(rec, 6)))
        del doc["entries"][3]
        with pytest.raises(InvalidParameterError):
            matrix_from_json(json.dumps(doc))

    def test_json_out_of_band_entry_rejected(self, rec):
        doc = json.loads(matrix_to_json("J", build_jacobi(rec, 6)))
        doc["entries"].append([5, 0, "1"])
        with pytest.raises(InvalidParameterError):
            matrix_from_json(json.dumps(doc))


class TestCholeskyChain:
    def test_factor_values(self, rec):
        J = build_jacobi(rec, 8)
        L = cholesky_shifted(J, -1)
        assert_squared(L.entry(0, 0), F(2))
        assert_squared(L.entry(1, 0), F(1, 2))
        assert_squared(L.entry(1, 1), F(7, 2))
        assert L.exact_size == 8

    def test_reconstruction(self, rec):
        J = build_jacobi(rec, 8)
        L = cholesky_shifted(J, -1)
        LLt = multiply(L, L.transpose())
        assert block_residual(LLt, J.shifted(1), 8) <= TOL30

    def test_pivot_failure_inside_support(self, rec):
        J = build_jacobi(rec, 6)
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_shifted(J, 1)

    @pytest.mark.parametrize("precision", [64, 256, EXACT])
    @pytest.mark.parametrize("c", [F(1, 2), 1, 3])
    def test_mass_point_inside_the_support_raises(self, precision, c):
        # Laguerre, alpha = 0: a pivot <= 0 at c = 1/2, 1 and 3 (c = 1 makes
        # the first pivot exactly 0), at mpf precisions and exactly
        J = (exact_laguerre_jacobi(8) if precision == EXACT
             else build_jacobi(MeasureSpec.laguerre(0).recurrence(8, precision), 8))
        with pytest.raises(NotPositiveDefiniteError, match="nonpositive pivot"):
            cholesky_shifted(J, c)
        assert cholesky_shifted(J, -1).exact_size == 8

    @pytest.mark.parametrize("precision", [64, 256])
    @pytest.mark.parametrize("bad", ["nan", "-inf", "inf"])
    def test_non_finite_pivots_keep_the_mpf_verdicts(self, precision, bad):
        # `not pivot > 0` on mpf: a NaN or -inf pivot raises, +inf passes
        J = build_jacobi(MeasureSpec.laguerre(0).recurrence(6, precision), 6)
        diag = list(J.diagonal(0))
        diag[2] = arith(precision).ctx.mpf(bad)._mpf_
        J = from_diagonals({-1: J.diagonal(-1), 0: diag, 1: J.diagonal(1)}, 6, precision)
        if bad == "inf":
            L = cholesky_shifted(J, -1)
            assert L.entry(2, 2) == mp.inf and L.entry(3, 2) == 0
        else:
            with pytest.raises(NotPositiveDefiniteError, match="row 2"):
                cholesky_shifted(J, -1)

    def test_commute_values(self, rec):
        J = build_jacobi(rec, 8)
        L = cholesky_shifted(J, -1)
        J1 = commute_cholesky(L, -1)
        assert_rel(J1.entry(0, 0), mp.mpf(3) / 2)
        assert_squared(J1.entry(0, 1), F(7, 4))
        assert J1.exact_size == 7

    def test_second_commute_reaches_iterated_family(self, rec):
        J = build_jacobi(rec, 8)
        L = cholesky_shifted(J, -1)
        J1 = commute_cholesky(L, -1)
        L1 = cholesky_shifted(J1, -1)
        J2 = commute_cholesky(L1, -1)
        assert_rel(J2.entry(0, 0), mp.mpf(11) / 5)
        assert_squared(J2.entry(0, 1), F(69, 25))
        assert J2.exact_size == 6


class TestQRPair:
    def test_factor_values(self, suite):
        assert_squared(suite.Q.entry(0, 0), F(4, 5))
        assert_squared(suite.Q.entry(1, 0), F(1, 5))
        assert_squared(suite.R.entry(0, 0), F(5))
        assert_squared(suite.R.entry(0, 1), F(36, 5))
        assert_squared(suite.R.entry(0, 2), F(4, 5))

    def test_r_is_upper_banded_with_positive_diagonal(self, suite):
        R = suite.R
        assert (R.lower_bw, R.upper_bw) == (0, 2)
        for i in range(R.exact_size):
            assert R.entry(i, i) > 0

    def test_q_structure(self, suite):
        Q = suite.Q
        assert Q.lower_bw == 1
        for i in range(8):
            for j in range(i - 1):
                assert Q.entry(i, j) == 0

    def test_exact_size_consumption(self, rec):
        J = build_jacobi(rec, 10)
        L = cholesky_shifted(J, -1)
        J1 = commute_cholesky(L, -1)
        L1 = cholesky_shifted(J1, -1)
        Q, R = qr_pair(L, L1)
        assert Q.exact_size == R.exact_size == 8

    def test_q_is_held_by_its_generators_until_read(self, rec):
        L = cholesky_shifted(build_jacobi(rec, 10), -1)
        L1 = cholesky_shifted(commute_cholesky(L, -1), -1)
        Q, _ = qr_pair(L, L1)
        assert isinstance(Q, HessenbergQ) and "diagonals" not in vars(Q)
        assert (len(Q.diag), len(Q.sub), len(Q.rho)) == (10, 9, 10)
        assert (Q.lower_bw, Q.upper_bw) == (1, 9)
        ctx = arith(Q.precision).ctx
        diag, sub, rho = map(arith(Q.precision).wrap, (Q.diag, Q.sub, Q.rho))
        # Q(j, i) = Q(j, j) rho_(j+1) ... rho_i above the diagonal
        for j, i in ((0, 5), (2, 9), (4, 5)):
            expected = diag[j] * ctx.fprod(rho[j + 1:i + 1])
            assert abs(Q.entry(j, i) - expected) <= ctx.ldexp(abs(expected), 8 - Q.precision)
        assert vars(Q)["diagonals"] is Q.diagonals  # expanded once, then cached
        assert Q.entry(1, 0) == sub[0] and Q.entry(3, 3) == diag[3]
        assert Q.entry(3, 1) == 0
        # the expansion is the forward substitution against L1, bit for bit
        for j in range(10):
            for i in range(j + 1, 10):
                step = (ctx.zero - Q.entry(j, i - 1) * L1.entry(i, i - 1)) / L1.entry(i, i)
                assert Q.entry(j, i)._mpf_ == step._mpf_, (j, i)

    @pytest.mark.parametrize("precision", [64, 256, 1024])
    def test_expansion_survives_json_bit_for_bit(self, spec, precision):
        Q = MatrixSuite.build(spec, size=20, guard=4, precision=precision).Q
        name, parsed = matrix_from_json(matrix_to_json("Q", Q))
        assert name == "Q" and type(parsed) is BandedMatrix
        assert layout(parsed) == layout(Q)
        assert parsed.diagonal(-1) == Q.sub and parsed.diagonal(0) == Q.diag

    @pytest.mark.parametrize("precision", [64, 256, 1024])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_raw_expansion_is_the_mpf_recurrence(self, spec, side, precision):
        # the expansion runs on _mpf_ tuples as x * (-s) / d; the mpf objects
        # give the same bits by -x * s / d
        Q = sided(side, spec, precision).Q
        l1diag, l1sub, prev = map(arith(precision).wrap,
                                  (Q.l1.diagonal(0), Q.l1.diagonal(-1), Q.diag))
        for k in range(1, Q.nrows):
            prev = [-x * s / d for x, s, d in zip(prev, l1sub[k - 1:], l1diag[k:])]
            assert list(Q.diagonal(k)) == [v._mpf_ for v in prev], k


class TestSuiteAndResiduals:
    def test_all_identities_within_tolerance(self, suite):
        report = verify_propositions(suite)
        assert report.all_within(TOL30)
        assert {e.block for e in report.entries} == {20}

    def test_expected_identity_names(self, suite):
        names = [e.name for e in verify_propositions(suite).entries]
        assert names == [
            "H = T Tt",
            "H T = T (J2 - cI)^2",
            "Q R = J - cI",
            "R Q = J2 - cI",
            "(J2 - cI)^2 = R Rt",
            "(J - cI)^2 = Rt R",
            "R Rt = Tt T",
            "Qt Q = I",
            "J2 chain = J2 ledger",
            "H bandwidth <= 2",
        ]

    def test_h_values_from_reference_tables(self, suite):
        H = suite.H
        assert_rel(H.entry(0, 0), mp.mpf(5) / 2)
        assert_rel(H.entry(1, 1), mp.mpf(19) / 2)
        assert_rel(H.entry(2, 2), mp.mpf(5331) / 178)
        assert_squared(H.entry(0, 1), F(121, 8))
        assert_squared(H.entry(0, 2), F(89, 8))

    def test_t_values_from_reference_tables(self, suite):
        assert_squared(suite.T.entry(2, 2), F(16 * 1777, 6141))
        assert_squared(suite.T.entry(1, 0), F(121, 20))

    def test_guard_consumption_bookkeeping(self, suite):
        nb = suite.size + suite.guard
        assert suite.J.exact_size == nb
        assert suite.L.exact_size == nb
        assert suite.J1.exact_size == nb - 1
        assert suite.J2.exact_size == nb - 2
        assert suite.Q.exact_size == suite.R.exact_size == nb - 2
        assert suite.T.exact_size == suite.H.exact_size == nb

    def test_zero_mass_reduction_to_shifted_square(self, rec):
        spec0 = SobolevSpec(MeasureSpec.laguerre(0), c=-1, M=0, N=0)
        s = MatrixSuite.build(spec0, size=12, guard=4)
        shifted = s.J.shifted(1)
        assert block_residual(s.H, multiply(shifted, shifted), 12) <= TOL30

    def test_right_side_support(self):
        s = MatrixSuite.build(reflected_spec(30), size=10, guard=4)
        assert s.spec.side == "right"
        report = verify_propositions(s)
        assert report.all_within(TOL30)
        # mirrored chain: cI - J is what gets factored
        assert_squared(s.L.entry(0, 0), F(2))

    def test_right_side_pivot_failure_names_no_point(self):
        # the support is declared too short: c = -5 lies inside the measure's
        # true support, so the chain on the reflection fails at its first pivot
        measure = replace(reflected_spec(20).measure, support=(float("-inf"), -30.0))
        with pytest.raises(NotPositiveDefiniteError, match="row 0") as failure:
            MatrixSuite.build(SobolevSpec(measure, c=-5, M=1, N=1), size=8)
        assert "c = " not in str(failure.value)

    def test_empty_block_raises(self, suite):
        with pytest.raises(InternalConsistencyError):
            block_residual(suite.H, suite.H, 0)

    def test_size_and_guard_validation(self, spec):
        with pytest.raises(InvalidParameterError):
            MatrixSuite.build(spec, size=2)
        with pytest.raises(InvalidParameterError):
            MatrixSuite.build(spec, size=8, guard=1)
        with pytest.raises(InvalidParameterError):
            MatrixSuite.build(spec, size=8, precision=32)
        for size in (8.0, "8", None, F(8)):
            with pytest.raises(InvalidParameterError):
                MatrixSuite.build(spec, size=size)
        with pytest.raises(InvalidParameterError):
            MatrixSuite.build(spec, size=8, guard=4.0)

    @pytest.mark.parametrize("precision", [100.5, "256", 63])
    def test_precision_must_be_an_int_of_64_bits_or_more(self, spec, precision):
        # EXACT is the one precision that is no int (TestExactSuite).
        with pytest.raises(InvalidParameterError):
            MatrixSuite.build(spec, size=8, precision=precision)

    def test_determinism(self, spec):
        a = MatrixSuite.build(spec, size=6, guard=3)
        b = MatrixSuite.build(spec, size=6, guard=3)
        for name, ma in a.named_matrices().items():
            mb = b.named_matrices()[name]
            assert ma.diagonals == mb.diagonals

    def test_a_symmetric_matrix_stores_each_mirrored_diagonal_once(self, suite):
        for name in ("J", "J1", "J2", "J2_direct", "H"):
            A = getattr(suite, name)
            assert A.lower_bw == A.upper_bw >= 1, name
            for k in range(1, A.lower_bw + 1):
                assert A.diagonals[A.lower_bw - k] is A.diagonals[A.lower_bw + k], (name, k)


class TestBandLocalVerification:
    """Residual scans read the declared bands only; these pin why that loses
    nothing and that the values match the dense scans bit for bit."""

    def test_zero_outside_declared_band(self, sided_suite):
        s = sided_suite
        matrices = suite_and_operand_matrices(s)
        for name, m in s.named_matrices().items():
            matrices[f"{name} from json"] = matrix_from_json(matrix_to_json(name, m))[1]
        for name, m in matrices.items():
            assert stray_entries(m) == [], name

    def test_stores_exactly_its_band(self, sided_suite):
        matrices = suite_and_operand_matrices(sided_suite)
        Q = matrices.pop("Q")  # held by its generators, see TestQRPair
        for name, m in matrices.items():
            stored = sum(len(diagonal) for diagonal in m.diagonals)
            assert stored == len(list(m.band_entries())), name
            assert matrix_from_json(matrix_to_json(name, m))[1] == m, name
        assert layout(matrix_from_json(matrix_to_json("Q", Q))[1]) == layout(Q)

    def test_residuals_equal_exact_reference(self, sided_suite):
        assert_residuals_equal_exact_reference(sided_suite)

    @pytest.mark.parametrize("precision", [64, 1024])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_residuals_equal_exact_reference_at_64_and_1024_bits(self, spec, side, precision):
        assert_residuals_equal_exact_reference(sided(side, spec, precision))

    @pytest.mark.parametrize("precision", [64, 256, 1024])
    @pytest.mark.parametrize("size", [6, 20])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_residuals_equal_exact_reference_on_the_ledger_grid(self, name, size, precision):
        measure, c, M, N = CONFIGS[name]
        spec = SobolevSpec(measure(size + 4 + 5), c, M, N)
        assert_residuals_equal_exact_reference(MatrixSuite.build(spec, size, 4, precision))

    def test_symmetric_scan_needs_both_operands_symmetric(self, suite):
        # B is the symmetric H but for one entry below the diagonal, so the
        # scan of diagonals k >= 0 alone would miss the difference.
        A, kit, block = suite.H, arith(suite.precision), 12
        diagonals = list(A.diagonals)
        below = list(diagonals[A.lower_bw - 1])
        below[5] = (kit.wrap([below[5]])[0] + kit.ctx.mpf(1) / 3)._mpf_
        diagonals[A.lower_bw - 1] = tuple(below)
        B = replace(A, diagonals=tuple(diagonals))
        for X, Y in ((A, B), (B, A)):
            residual = block_residual(X, Y, block)
            assert residual > 0
            expected = exact_residual(exact_rows(X), exact_rows(Y), block, suite.precision)
            assert residual._mpf_ == expected._mpf_

    def test_scan_covers_union_of_bands(self):
        I = identity(4, 64)
        zero = arith(64).zero
        U = BandedMatrix(4, 4, 0, 3, 4, 64,
                         I.diagonals + ((zero,) * 3, (zero,) * 2, (mp.mpf(-3)._mpf_,)))
        assert block_residual(I, U, 4) == block_residual(U, I, 4) == 1
        assert block_residual(I, U, 3) == 0

    def test_scan_takes_entries_wider_than_the_precision(self):
        wide = (arith(256).ctx.mpf(7) / 3)._mpf_  # 256 bits in a 64-bit matrix
        A = from_diagonals({0: [wide, wide]}, 2, 64)
        residual = block_residual(A, identity(2, 64), 2)
        assert abs(residual - mp.mpf(4) / 7) < mp.mpf(2) ** -60

    def test_non_finite_entry_raises(self):
        # m * 2**e has no infinity or NaN; the parent scan reported inf or nan.
        for bad in (mp.inf, -mp.inf, mp.nan):
            A = from_diagonals({0: list(map(arith(64).of, (1, bad)))}, 2, 64)
            for X, Y in ((A, identity(2, 64)), (identity(2, 64), A)):
                with pytest.raises(NumericalFailureError, match="non-finite"):
                    block_residual(X, Y, 2)

    def test_q_products_match_dense_products(self, sided_suite):
        s, p = sided_suite, sided_suite.precision
        Q, R = s.Q, s.R
        dense = {"Q R = J - cI": multiply(Q, R), "R Q = J2 - cI": multiply(R, Q),
                 "Qt Q = I": multiply(Q.transpose(), Q)}
        ctx = arith(p).ctx
        tol = ctx.ldexp(1, 8 - p)
        products = _q_products(Q, R)
        assert set(products) == set(Q_ROWS)
        # R given aligned gives the same ints
        assert repr(_q_products(Q, aligned(R))) == repr(products)
        for name, (band, (left, right, exp)) in products.items():
            assert type(band) is BandedMatrix, name
            assert all(type(x) is int for x in (*left, *right, exp)), name
            D = dense[name]
            for i in range(D.nrows):
                for k in range(D.ncols):
                    if band.in_band(i, k):
                        piece = ctx.ldexp(band.entry(i, k), band.exp)
                    elif k - i > band.upper_bw:
                        piece = ctx.ldexp(left[i] * right[k], exp)
                    elif name == "Qt Q = I":  # symmetric: the upper triangle mirrored
                        piece = ctx.ldexp(left[k] * right[i], exp)
                    else:
                        piece = 0
                    assert abs(piece - D.entry(i, k)) <= tol, (name, i, k)
        # the tails are the exact sums of the Fraction reference, bit for bit
        tails, gram = exact_q_tails(Q, R)
        for name, (_, (left, right, exp)) in products.items():
            x, y = tails[name]
            assert [[F(a * b) * F(2) ** exp for b in right] for a in left] == \
                [[a * b for b in y] for a in x], name
        band = products["Qt Q = I"][0]
        assert [F(x) * F(2) ** band.exp for x in band.diagonal(0)] == gram
        # the bands keep the exact sizes of the products, so the rows' blocks
        rows = {name: block for name, _, block in verify_propositions(s).as_rows()}
        operands = identity_operands(s)
        for name in Q_ROWS[:2]:
            A, B = operands[name]
            assert products[name][0].exact_size == A.exact_size, name
            assert rows[name] == min(s.size, A.exact_size, B.exact_size), name
        assert products["Qt Q = I"][0].exact_size == dense["Qt Q = I"].exact_size
        assert rows["Qt Q = I"] == min(s.size, dense["Qt Q = I"].exact_size)

    def test_split_residual_equals_block_residual_of_its_matrix(self):
        band, tail, dense, B = band_with_tail()
        # the tail holds the largest difference from block 5 on
        assert block_residual(dense, B, 4) < block_residual(dense, B, 5)
        for block in range(1, band.nrows + 1):
            expected = exact_residual(exact_rows(dense), exact_rows(B), block, 64)
            assert block_residual(band, B, block, tail)._mpf_ == expected._mpf_, block
            assert block_residual(dense, B, block)._mpf_ == expected._mpf_, block

    def test_tail_rejects_b_wider_than_the_band_above(self):
        band, tail, dense, _ = band_with_tail()
        # diagonal 2 of B would meet the tail, which is read as B's zeros
        wide = from_diagonals({k: dense.diagonal(k) for k in range(-1, 3)}, 7, 64)
        for B in (wide, dense):
            with pytest.raises(InternalConsistencyError):
                block_residual(band, B, 3, tail)

    def test_tail_rejects_a_less_precise_than_b(self):
        band, tail, _, B = band_with_tail()
        # B's 64-bit values, exact at 128 bits
        precise = from_diagonals({k: B.diagonal(k) for k in (-1, 0, 1)}, 7, 128)
        with pytest.raises(InvalidParameterError, match="bits"):
            block_residual(band, precise, 3, tail)

    def test_verification_makes_no_rounded_sums(self, spec, monkeypatch):
        # every sum of verify is an exact int sum: no fdot (exact products,
        # rounded sum) and no exact fmul/fadd on mpf operands
        s = MatrixSuite.build(spec, size=100, guard=4)

        def forbidden(name, original=None):
            def call(ctx, *args, **kwargs):
                if original is None or kwargs.get("exact"):
                    raise AssertionError(f"verification called {name}")
                return original(ctx, *args, **kwargs)
            return call

        monkeypatch.setattr(mp.ctx_mp.MPContext, "fdot", forbidden("fdot"))
        for name in ("fmul", "fadd"):
            monkeypatch.setattr(mp.ctx_mp.MPContext, name,
                                forbidden(name, getattr(mp.ctx_mp.MPContext, name)))
        with pytest.raises(AssertionError, match="fdot"):
            arith(s.precision).ctx.fdot([1], [1])
        assert verify_propositions(s).all_within(TOL30)

    def test_verify_never_expands_q_at_size_200(self, spec, monkeypatch):
        s = MatrixSuite.build(spec, size=200, guard=4)
        products = []

        def recording(A, B):
            P = multiply(A, B)
            products.append((A, B, P))
            return P

        monkeypatch.setattr("sobspec.matrices.multiply", recording)
        report = verify_propositions(s)
        assert "diagonals" not in vars(s.Q)
        # every product verify forms: A0^2, A2^2, R Rt, the two Q bands, T Tt,
        # H T, T A2^2, Rt R and Tt T, each exact on aligned operands
        assert len(products) == 10
        for matrices in products:
            assert all(m.exp is not None for m in matrices)
            assert max(max(m.lower_bw, m.upper_bw) for m in matrices) <= 4
        assert report.all_within(TOL30)
        assert {e.block for e in report.entries} == {200}


def mpf_paths(value, where):
    """Where ``value``, walked through tuples, holds an mpf object."""
    if hasattr(value, "_mpf_"):
        return [where]
    if isinstance(value, tuple):
        return [path for k, v in enumerate(value) for path in mpf_paths(v, f"{where}[{k}]")]
    return []


class TestRawStorage:
    """Ledgers and matrices store the raw values of their precision's kit;
    only the public readers make mpf objects."""

    @pytest.fixture(scope="class", params=[(20, 64), (20, 256), (100, 64), (100, 256)],
                    ids=lambda p: f"{p[0]}-{p[1]}")
    def built(self, request, spec):
        size, precision = request.param
        return MatrixSuite.build(spec, size, guard=4, precision=precision)

    def test_no_ledger_field_or_stored_diagonal_holds_an_mpf(self, built):
        sob = built.sob
        kt = sob.chris.kt
        matrices = dict(built.named_matrices(), J2_direct=built.J2_direct)
        list(built.Q.band_entries())  # expands Q's band into ``diagonals``
        owners = {"rec": kt.rec, "kt": kt, "chris": sob.chris, "sob": sob, **matrices}
        # only the inputs c, M and N stay the mpf they were converted to
        assert [path for name, owner in owners.items() for field, value in vars(owner).items()
                for path in mpf_paths(value, f"{name}.{field}")] == ["kt.c", "sob.M", "sob.N"]
        assert all(v.context is arith(built.precision).ctx for v in (kt.c, sob.M, sob.N))
        assert "diagonals" in vars(built.Q)
        # every stored value of a matrix is a canonical _mpf_ of at most p bits
        assert all(type(v) is tuple and len(v) == 4 and v[3] <= built.precision
                   for m in matrices.values() for diagonal in m.diagonals for v in diagonal)

    def test_entry_and_band_entries_wrap_the_stored_value(self, built):
        ctx, wrap = arith(built.precision).ctx, arith(built.precision).wrap
        for name, m in built.named_matrices().items():
            entries = list(m.band_entries())
            stored = wrap(m.diagonals[m.lower_bw + j - i][min(i, j)] for i, j, _ in entries)
            assert [(v._mpf_, v.context) for _, _, v in entries] == \
                [(v._mpf_, v.context) for v in stored], name
            assert all(m.entry(i, j)._mpf_ == v._mpf_ and m.entry(i, j).context is ctx
                       for (i, j, _), v in zip(entries, stored)), name
            outside = [m.entry(i, j) for i in range(8) for j in range(8) if not m.in_band(i, j)]
            assert all(v.context is ctx and v == 0 for v in outside), name

    def test_json_round_trip_stores_the_same_raw_diagonals(self, built):
        for name, m in built.named_matrices().items():
            _, back = matrix_from_json(matrix_to_json(name, m))
            assert back.diagonals == m.diagonals, name
            assert mpf_paths(back.diagonals, name) == [], name

    def test_aligned_entry_is_an_int_on_both_sides_of_the_band(self, built):
        # H has offsets -2 to 2 and R 0 to 2; out of the band, entry gave an
        # mpf zero where diagonal gave the int 0
        for A in (aligned(built.H), aligned(built.R)):
            for i in range(9):
                for j in range(9):
                    v = A.entry(i, j)
                    assert type(v) is int and v == A.diagonal(j - i)[min(i, j)], (i, j)
            assert not A.in_band(0, 3) and not A.in_band(3, 0)


class TestProducts:
    """``multiply`` keeps the bits of the dense ascending-k sum, and forms a
    symmetric product's lower half as the mirror of its upper half."""

    @pytest.mark.parametrize("precision", [64, 256, 1024])
    def test_products_equal_dense_reference(self, precision):
        s = MatrixSuite.build(reflected_spec(23), size=14, guard=4, precision=precision)
        # right side: negated() makes J2 - cI's two off-diagonals distinct
        # objects, so its symmetry is seen by value
        A2 = s.J2.shifted(-mpf_of(s.spec.c, precision)).negated()
        R, Rt, T = s.R, s.R.transpose(), s.T
        symmetric = {"A2 A2": (A2, A2), "R Rt": (R, Rt), "Rt R": (Rt, R),
                     "T Tt": (T, T.transpose())}
        for name, (A, B) in {**symmetric, "H T": (s.H, T)}.items():
            P = multiply(A, B)
            assert ([[P.entry(i, j)._mpf_ for j in range(P.ncols)] for i in range(P.nrows)]
                    == dense_product(A, B)), name
            if name in symmetric:
                for r in range(1, P.upper_bw + 1):
                    assert all(x is y for x, y in zip(P.diagonal(-r), P.diagonal(r))), name

    @pytest.mark.parametrize("precision", [64, 1024])
    def test_aligned_products_are_exact(self, precision):
        # the same loop with the int kit: each entry the exact sum, and the
        # mirrored half of a symmetric product too
        s = MatrixSuite.build(reflected_spec(23), size=14, guard=4, precision=precision)
        A2 = aligned(s.J2.shifted(-mpf_of(s.spec.c, precision)).negated())
        R, T, H = map(aligned, (s.R, s.T, s.H))
        for A, B in ((A2, A2), (R, R.transpose()), (R.transpose(), R), (H, T),
                     (T, multiply(A2, A2))):
            P = multiply(A, B)
            assert P.exp == A.exp + B.exp
            assert exact_rows(P) == exact_matmul(exact_rows(A), exact_rows(B))


#: Ledger fields that flip sign under the reflection x -> -x, c -> -c: at
#: every index, or (second table) at the indices n of one parity.  Every other
#: ledger field keeps its sign.
REFLECTED_FLIPS = {"rec.beta", "kt.K01", "chris.d", "chris.kappa", "sob.b", "sob.gamma_n1",
                   "sob.alpha1", "sob.xi1"}
REFLECTED_PARITY_FLIPS = {"sob.Sc": 1, "sob.Sdc": 0}


def reflection_pairs(right, left):
    """(name, right value, left value, whether the sign flips) over every
    matrix band entry and ledger value of two suites, as ``_mpf_`` tuples;
    the Sobolev ledger's values include its auxiliary coefficients."""
    pairs = []
    for name, m in dict(right.named_matrices(), J2_direct=right.J2_direct).items():
        mirror = getattr(left, name)
        assert (m.nrows, m.lower_bw, m.upper_bw, m.exact_size) == (
            mirror.nrows, mirror.lower_bw, mirror.upper_bw, mirror.exact_size), name
        for k in range(-m.lower_bw, m.upper_bw + 1):
            flip = k == 0 if name.startswith("J") else k % 2 == 1
            pairs += [(f"{name}[{k}]", x, y, flip)
                      for x, y in zip(m.diagonal(k), mirror.diagonal(k), strict=True)]
    ledgers = [("rec", right.sob.chris.kt.rec, left.sob.chris.kt.rec),
               ("kt", right.sob.chris.kt, left.sob.chris.kt),
               ("chris", right.sob.chris, left.sob.chris), ("sob", right.sob, left.sob),
               ("sob", right.sob.auxiliary(), left.sob.auxiliary())]
    seen = set()
    for prefix, a, b in ledgers:
        for name in fields(a):
            values = getattr(a, name)
            if isinstance(values, tuple) and name != "cjets":
                key = f"{prefix}.{name}"
                seen.add(key)
                pairs += [(f"{key}[{n}]", x, y,
                           key in REFLECTED_FLIPS or REFLECTED_PARITY_FLIPS.get(key) == n % 2)
                          for n, (x, y) in enumerate(zip(values, getattr(b, name),
                                                         strict=True))]
    jets = (right.sob.chris.kt.cjets, left.sob.chris.kt.cjets)
    pairs += [(f"cjets[{n}][{j}]", x, y, (n + j) % 2 == 1)
              for n, (xs, ys) in enumerate(zip(*jets, strict=True))
              for j, (x, y) in enumerate(zip(xs, ys, strict=True))]
    pairs += [("kt.c", right.sob.chris.kt.c._mpf_, left.sob.chris.kt.c._mpf_, True),
              ("sob.M", right.sob.M._mpf_, left.sob.M._mpf_, False),
              ("sob.N", right.sob.N._mpf_, left.sob.N._mpf_, False)]
    # a flip rule for a field that is not walked would pass unread
    assert REFLECTED_FLIPS | REFLECTED_PARITY_FLIPS.keys() <= seen
    return pairs


class TestReflection:
    """A mass point right of the support is the left-side problem of the
    reflected measure: the right-side suite of reflected Laguerre at c equals
    the Laguerre suite at -c, magnitudes bit for bit and signs by fixed rules."""

    @pytest.mark.parametrize("precision", [64, 256, 1024])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("c, M, N", [(1, 1, 1), (F(1, 4), 0, 0), (F(5, 2), F(1, 2), 3)])
    def test_right_side_is_the_reflected_left_side(self, alpha, c, M, N, precision):
        size, guard = 12, 4
        right = MatrixSuite.build(reflected_spec(size + guard + 5, alpha, c, M, N),
                                  size, guard, precision)
        left = MatrixSuite.build(SobolevSpec(MeasureSpec.laguerre(alpha), -c, M, N),
                                 size, guard, precision)
        assert (right.spec.side, left.spec.side) == ("right", "left")
        pairs = reflection_pairs(right, left)
        assert len(pairs) > 500
        wrong = [name for name, x, y, flip in pairs if x != (mpf_neg(y) if flip else y)]
        assert not wrong
        rows = [(name, res._mpf_, block) for name, res, block
                in verify_propositions(right).as_rows()]
        assert rows == [(name, res._mpf_, block) for name, res, block
                        in verify_propositions(left).as_rows()]


class TestBuildOnlyWhatIsRead:
    def test_auxiliary_coefficients_are_formed_only_for_the_ledger_document(
            self, spec, monkeypatch):
        # No matrix, residual or matrix file reads alpha1, alpha0 or the xi's,
        # so a build, its verification and its matrix files never form them;
        # the ledger document forms them once.
        def unread(sob):
            raise AssertionError("auxiliary coefficients formed without a reader")

        monkeypatch.setattr(SobolevLedger, "auxiliary", unread)
        suites = [MatrixSuite.build(s, size=8, guard=4) for s in (spec, reflected_spec(17))]
        for s in suites:
            assert verify_propositions(s).all_within(TOL30)
            for name, m in s.named_matrices().items():
                matrix_to_json(name, m)
        monkeypatch.undo()
        calls, formed = [], SobolevLedger.auxiliary
        monkeypatch.setattr(SobolevLedger, "auxiliary", lambda sob: calls.append(sob) or formed(sob))
        for s in suites:
            ledgers_to_doc(s)
        assert len(calls) == 2 and all(a is s.sob for a, s in zip(calls, suites))


class TestOrthogonalityTrend:
    def test_qtq_is_identity_on_trimmed_block(self, suite):
        QtQ = multiply(suite.Q.transpose(), suite.Q)
        assert block_residual(QtQ, identity(QtQ.nrows, suite.precision), 20) <= TOL30


class TestPrecisionContext:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_every_value_lives_in_the_precision_context(self, spec, side):
        # A value made in the global context would round at mp.mp.prec when
        # it is the left operand, so none may reach a matrix or a ledger: each
        # stored raw value has at most 128 bits, each mpf is of arith(128).ctx.
        chosen = spec if side == "left" else reflected_spec(30)
        s = MatrixSuite.build(chosen, size=8, guard=4, precision=128)
        # The matrices and ledgers alone hold fewer than 1000 values at this
        # size; the operands verify_propositions forms lift the list above it.
        operands = [m for pair in identity_operands(s).values() for m in pair]
        values = [v for m in [*s.named_matrices().values(), s.J2_direct, *operands]
                  for diagonal in m.diagonals for v in diagonal]
        values += [*s.Q.diag, *s.Q.sub, *s.Q.rho]
        sob = s.sob
        kt = sob.chris.kt
        for ledger in (kt.rec, kt, sob.chris, sob, sob.auxiliary()):
            for name in fields(ledger):
                if isinstance(getattr(ledger, name), tuple) and name != "cjets":
                    values.extend(getattr(ledger, name))
        values += [v for row in kt.cjets for v in row]
        mpfs = [sob.M, sob.N, kt.c, *(res for _, res, _ in verify_propositions(s).as_rows())]
        assert len(values) > 1000
        assert all(type(v) is tuple and v[3] <= 128 for v in values)
        assert all(v.context is arith(128).ctx for v in mpfs)

    def test_verify_converts_a_wide_mass_point_before_negating_it(self):
        # c = -1/3 made at 300 bits in the global context, read with that
        # context back at 53 bits: -c formed there rounds to 53 bits, and the
        # shifts J - cI and J2 - cI then miss by about 1e-18.
        with mp.workprec(300):
            c = -mp.mpf(1) / 3
        with mp.workprec(53):
            wide = MatrixSuite.build(SobolevSpec(MeasureSpec.laguerre(0), c, 1, 1), 12,
                                     precision=256)
            rows = verify_propositions(wide).as_rows()
        exact = MatrixSuite.build(SobolevSpec(MeasureSpec.laguerre(0), F(-1, 3), 1, 1), 12,
                                  precision=256)
        assert wide.named_matrices() == exact.named_matrices()
        assert all(res <= TOL30 for _, res, _ in rows), rows

    @pytest.mark.parametrize("literal", [
        "-0.4749952525594461092483435261195537215397431083592451959264847564696",
        "-700.476200753292612652064279287757447621682752174888515904584744529078"])
    def test_a_decimal_mass_point_builds_as_its_nearest_value(self, literal):
        # The CLI reads --c as this Fraction.  Its numerator has more than 64
        # bits, so rounding the numerator and then the quotient misses the
        # nearest 64-bit value by an ulp; at -700.47... the miss reaches
        # every matrix, at -0.47... only the kernel table's c.
        q = F(literal)
        nearest = arith(64).ctx.make_mpf(from_rational(q.numerator, q.denominator, 64,
                                                     round_nearest))

        def stored(c):
            s = MatrixSuite.build(SobolevSpec(MeasureSpec.laguerre(0), c, 1, 1), 8,
                                  precision=64)
            kt = s.sob.chris.kt
            return ([mpf_fields(x) for x in (kt.rec, kt, s.sob.chris)] + [sobolev_fields(s.sob)]
                    + [m.diagonals for m in (*s.named_matrices().values(), s.J2_direct)])

        assert stored(q) == stored(nearest)

    def test_mixed_precisions_raise(self, spec):
        # Each matrix operation runs at one precision; a caller converts first.
        lo = MatrixSuite.build(spec, size=8, guard=4, precision=64)
        hi = MatrixSuite.build(spec, size=8, guard=4, precision=256)
        for operation, *args in ((multiply, lo.J, hi.L), (multiply, hi.J, lo.L),
                                 (qr_pair, lo.L, hi.L1), (block_residual, lo.J2, hi.J2, 8),
                                 (block_residual, hi.J2, lo.J2, 8)):
            with pytest.raises(InvalidParameterError, match="bits"):
                operation(*args)


class TestExactChain:
    """The chain functions run over mpf and, at ``EXACT`` precision, over
    exact signed square roots of rationals."""

    def test_float_chain_matches_exact_chain_at_size_200(self):
        n, prec = 204, 256  # size 200 plus the default guard of 4
        exact_J = exact_laguerre_jacobi(n)
        float_J = build_jacobi(MeasureSpec.laguerre(0).recurrence(n, prec), n)

        def chain(J):
            L = cholesky_shifted(J, -1)
            J1 = commute_cholesky(L, -1)
            L1 = cholesky_shifted(J1, -1)
            Q, R = qr_pair(L, L1)
            return {"L": L, "J1": J1, "L1": L1, "J2": commute_cholesky(L1, -1),
                    "R": R, "Q": Q}

        floats, exacts = chain(float_J), chain(exact_J)
        tol = arith(prec).ctx.ldexp(1, -prec // 2)
        fq, eq = floats.pop("Q"), exacts.pop("Q")
        assert (fq.lower_bw, fq.upper_bw, fq.exact_size) == \
            (eq.lower_bw, eq.upper_bw, eq.exact_size)
        for name in ("diag", "sub", "rho"):
            report = squared_entry_compare(
                f"Q {name}", {(i, 0): v for i, v in enumerate(arith(prec).wrap(getattr(fq, name)))},
                {(i, 0): v for i, v in enumerate(getattr(eq, name))}, tol)
            assert report.total == len(getattr(eq, name)) and report.all_ok, \
                report.summary()
        for name, em in exacts.items():
            fm = floats[name]
            assert (fm.lower_bw, fm.upper_bw, fm.exact_size) == \
                (em.lower_bw, em.upper_bw, em.exact_size)
            report = squared_entry_compare(
                name, {(i, j): v for i, j, v in fm.band_entries()},
                {(i, j): v for i, j, v in em.band_entries()}, tol)
            assert report.all_ok, report.summary()


def _exact_identities(suite):
    """Identities of ``verify_propositions`` as pairs of ``EXACT`` matrices,
    J - cI and J2 - cI reflected right of the support.  T (J2 - cI)^2 cannot
    be formed (its terms have incompatible radicands), and Qt Q = I is left
    to the floating checks."""
    minus_c = -suite.sob.chris.kt.c
    A0, A2 = suite.J.shifted(minus_c), suite.J2.shifted(minus_c)
    if suite.spec.side == "right":
        A0, A2 = A0.negated(), A2.negated()
    R, T = suite.R, suite.T
    RRt = multiply(R, R.transpose())
    return {
        "J2 chain = J2 ledger": (suite.J2, suite.J2_direct),
        "Q R = J - cI": (multiply(suite.Q, R), A0),
        "R Q = J2 - cI": (multiply(R, suite.Q), A2),
        "H = T Tt": (suite.H, multiply(T, T.transpose())),
        "(J2 - cI)^2 = R Rt": (multiply(A2, A2), RRt),
        "(J - cI)^2 = Rt R": (multiply(A0, A0), multiply(R.transpose(), R)),
        "R Rt = Tt T": (RRt, multiply(T.transpose(), T)),
    }


class TestExactSuite:
    """``MatrixSuite.build`` at ``EXACT``: the package's one chain and its
    ledgers over exact signed square roots of rationals."""

    WORKED = SobolevSpec(MeasureSpec.laguerre(0), -1, 1, 1)
    REFLECTED = SobolevSpec(reflected_laguerre(60 + 4 + 5), F(1, 2), 1, 1)
    NEAR_SUPPORT = SobolevSpec(MeasureSpec.laguerre(2), F(-1, 10**6), 1, 3)

    @pytest.mark.parametrize("spec", [WORKED, REFLECTED], ids=["left", "right"])
    def test_an_exact_build_works_on_both_sides(self, spec):
        suite = MatrixSuite.build(spec, 6, precision=EXACT)
        assert suite.precision == EXACT
        for name, matrix in suite.named_matrices().items():
            assert matrix.precision == EXACT
            assert all(isinstance(v, SqrtRational) for _, _, v in matrix.band_entries()), name

    def test_a_non_integer_alpha_is_unsupported(self):
        spec = SobolevSpec(MeasureSpec.laguerre(F(1, 2)), -1, 1, 1)
        with pytest.raises(OracleUnsupportedError):
            MatrixSuite.build(spec, 6, precision=EXACT)

    @pytest.mark.parametrize("spec, size", [(WORKED, 60), (REFLECTED, 60), (NEAR_SUPPORT, 30)],
                             ids=["left-60", "right-60", "near-support-30"])
    def test_identities_hold_exactly(self, spec, size):
        suite = MatrixSuite.build(spec, size, precision=EXACT)
        for name, (A, B) in _exact_identities(suite).items():
            block = min(size, A.exact_size, B.exact_size)
            assert block >= size - 2, name
            for k in range(-max(A.lower_bw, B.lower_bw), max(A.upper_bw, B.upper_bw) + 1):
                n = max(0, block - abs(k))
                assert A.diagonal(k)[:n] == B.diagonal(k)[:n], (name, k)


class TestLowPrecision:
    def test_double_equivalent_precision_still_builds(self, spec):
        s = MatrixSuite.build(spec, size=8, guard=4, precision=64)
        report = verify_propositions(s)
        # far looser residuals, but the identities hold to working accuracy
        assert report.max_residual <= mp.mpf("1e-10")
