"""Matrix chain: builders, Cholesky commutes, QR, and the identity residuals."""

import json
from dataclasses import fields
from fractions import Fraction as F

import mpmath as mp
import pytest

from helpers import TOL30, assert_rel, assert_squared, dense_block_residual
from sobspec.core import (
    EXACT,
    MeasureSpec,
    SobolevSpec,
    context,
    laguerre_recurrence,
    to_mpf,
)
from sobspec.errors import (
    InternalConsistencyError,
    InvalidParameterError,
    NotPositiveDefiniteError,
)
from sobspec.matrices import (
    BandedMatrix,
    HessenbergQ,
    MatrixSuite,
    _q_products,
    block_residual,
    build_jacobi,
    cholesky_shifted,
    commute_cholesky,
    from_diagonals,
    identity,
    multiply,
    orthogonality_defect,
    qr_pair,
    verify_propositions,
)
from sobspec.oracle import SqrtRational, squared_entry_compare
from sobspec.serialize import matrix_from_json, matrix_to_json


@pytest.fixture(scope="module")
def suite(spec):
    return MatrixSuite.build(spec, size=20, guard=4)


def reflected_spec(size):
    measure = MeasureSpec.custom(
        beta=[-(2 * n + 1) for n in range(size)],
        gamma=[n * n for n in range(size)],
        support=(float("-inf"), 0.0),
        norm0_sq=1,
    )
    return SobolevSpec(measure, c=1, M=1, N=1)


def identity_operands(suite):
    """The pairs verify_propositions compares through ``block_residual``,
    formed the same way: name -> (A, B)."""
    sgn = 1 if suite.side == "left" else -1
    c = to_mpf(suite.spec.c, context(suite.precision))
    A0 = suite.J.shifted(-c).scaled(sgn)
    A2 = suite.J2.shifted(-c).scaled(sgn)
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
            [[v._mpf_ for v in diagonal] for diagonal in m.diagonals])


def stray_entries(matrix):
    """Positions outside the declared band that hold anything but exact zero."""
    return [(i, j) for i in range(matrix.nrows) for j in range(matrix.ncols)
            if not matrix.in_band(i, j) and matrix.entry(i, j) != 0]


def band_with_tail(n=7):
    """A tridiagonal band with a rank-one tail, the same matrix written
    out, and a tridiagonal B to compare them with."""
    ctx = context(64)
    band = from_diagonals({k: [ctx.mpf(3 * i + k) / 7 for i in range(n - abs(k))]
                           for k in (-1, 0, 1)}, n, 64)
    left = [ctx.mpf(-2) ** i / 3 for i in range(n)]
    right = [ctx.mpf(5) / (k + 1) for k in range(n)]
    dense = from_diagonals({**{k: [left[i] * right[i + k] for i in range(n - k)]
                               for k in range(2, n)},
                            **{k: band.diagonal(k) for k in (-1, 0, 1)}}, n, 64)
    B = from_diagonals({k: [ctx.mpf(i - k) / 5 for i in range(n - abs(k))]
                        for k in (-1, 0, 1)}, n, 64)
    return band, (left, right), dense, B


@pytest.fixture(scope="module", params=["left", "right"])
def sided_suite(request, spec):
    """Size 40 on the worked Laguerre example and on the reflected measure."""
    if request.param == "left":
        return MatrixSuite.build(spec, size=40, guard=4)
    return MatrixSuite.build(reflected_spec(49), size=40, guard=4)


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

    def test_side_validation(self, rec):
        J = build_jacobi(rec, 6)
        with pytest.raises(InvalidParameterError):
            cholesky_shifted(J, -1, side="up")


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
        ctx = context(Q.precision)
        # Q(j, i) = Q(j, j) rho_(j+1) ... rho_i above the diagonal
        for j, i in ((0, 5), (2, 9), (4, 5)):
            expected = Q.diag[j] * ctx.fprod(Q.rho[j + 1:i + 1])
            assert abs(Q.entry(j, i) - expected) <= ctx.ldexp(abs(expected), 8 - Q.precision)
        assert vars(Q)["diagonals"] is Q.diagonals  # expanded once, then cached
        assert Q.entry(1, 0) == Q.sub[0] and Q.entry(3, 3) == Q.diag[3]
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
        assert s.side == "right"
        report = verify_propositions(s)
        assert report.all_within(TOL30)
        # mirrored chain: cI - J is what gets factored
        assert_squared(s.L.entry(0, 0), F(2))

    def test_empty_block_raises(self, suite):
        with pytest.raises(InternalConsistencyError):
            block_residual(suite.H, suite.H, 0)

    def test_size_and_guard_validation(self, spec, suite):
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
        for size in (8.5, 0, -3):
            with pytest.raises(InvalidParameterError):
                verify_propositions(suite, size=size)

    @pytest.mark.parametrize("precision", [100.5, EXACT, "256", 63])
    def test_precision_must_be_an_int_of_64_bits_or_more(self, spec, precision):
        with pytest.raises(InvalidParameterError):
            MatrixSuite.build(spec, size=8, precision=precision)

    def test_determinism(self, spec):
        a = MatrixSuite.build(spec, size=6, guard=3)
        b = MatrixSuite.build(spec, size=6, guard=3)
        for name, ma in a.named_matrices().items():
            mb = b.named_matrices()[name]
            assert ma.diagonals == mb.diagonals


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

    def test_residuals_equal_dense_scan(self, sided_suite):
        s = sided_suite
        report = {name: (res, block) for name, res, block
                  in verify_propositions(s).as_rows()}
        expected = {}
        for name, (A, B) in identity_operands(s).items():
            if name in Q_ROWS:  # see test_q_products_match_dense_products
                continue
            block = min(s.size, A.exact_size, B.exact_size)
            expected[name] = (dense_block_residual(A, B, block), block)
        H, block = s.H, min(s.size, s.H.exact_size)
        with mp.workprec(s.precision):
            stray = max([abs(H.entry(i, j)) for i in range(block)
                         for j in range(block) if abs(i - j) > 2] + [mp.mpf(0)])
            scale = max([mp.mpf(1)] + [abs(H.entry(i, j)) for i in range(block)
                                       for j in range(block)])
        expected["H bandwidth <= 2"] = (stray / scale, block)
        assert set(report) - set(expected) == set(Q_ROWS)
        for name, value in expected.items():
            assert report[name] == value, name

    def test_scan_covers_union_of_bands(self):
        I = identity(4, 64)
        zero = context(64).zero
        U = BandedMatrix(4, 4, 0, 3, 4, 64,
                         I.diagonals + ((zero,) * 3, (zero,) * 2, (mp.mpf(-3),)))
        assert block_residual(I, U, 4) == block_residual(U, I, 4) == 1
        assert block_residual(I, U, 3) == 0

    def test_q_products_match_dense_products(self, sided_suite):
        s, p = sided_suite, sided_suite.precision
        Q, R = s.Q, s.R
        dense = {"Q R = J - cI": multiply(Q, R), "R Q = J2 - cI": multiply(R, Q),
                 "Qt Q = I": multiply(Q.transpose(), Q)}
        tol = context(p).ldexp(1, 8 - p)
        products = _q_products(Q, R)
        assert set(products) == set(Q_ROWS)
        for name, (band, (left, right)) in products.items():
            assert type(band) is BandedMatrix, name
            D = dense[name]
            for i in range(D.nrows):
                for k in range(D.ncols):
                    if band.in_band(i, k):
                        piece = band.entry(i, k)
                    elif k - i > band.upper_bw:
                        piece = left[i] * right[k]
                    elif name == "Qt Q = I":  # symmetric: the upper triangle mirrored
                        piece = left[k] * right[i]
                    else:
                        piece = 0
                    assert abs(piece - D.entry(i, k)) <= tol, (name, i, k)
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
            assert block_residual(band, B, block, tail) == block_residual(dense, B, block), block

    def test_tail_rejects_b_wider_than_the_band_above(self):
        band, tail, dense, _ = band_with_tail()
        # diagonal 2 of B would meet the tail, which is read as B's zeros
        wide = from_diagonals({k: dense.diagonal(k) for k in range(-1, 3)}, 7, 64)
        for B in (wide, dense):
            with pytest.raises(InternalConsistencyError):
                block_residual(band, B, 3, tail)

    def test_tail_rejects_a_less_precise_than_b(self):
        band, tail, _, B = band_with_tail()
        precise = from_diagonals({k: [to_mpf(v, context(128)) for v in B.diagonal(k)]
                                  for k in (-1, 0, 1)}, 7, 128)
        with pytest.raises(InternalConsistencyError):
            block_residual(band, precise, 3, tail)

    def test_verify_never_expands_q_at_size_200(self, spec, monkeypatch):
        s = MatrixSuite.build(spec, size=200, guard=4)
        bandwidths = []

        def recording(A, B):
            P = multiply(A, B)
            bandwidths.extend(max(m.lower_bw, m.upper_bw) for m in (A, B, P))
            return P

        monkeypatch.setattr("sobspec.matrices.multiply", recording)
        report = verify_propositions(s)
        assert "diagonals" not in vars(s.Q)
        assert bandwidths and max(bandwidths) <= 4
        assert report.all_within(TOL30)
        assert {e.block for e in report.entries} == {200}


class TestOrthogonalityTrend:
    def test_qtq_is_identity_on_trimmed_block(self, suite):
        QtQ = multiply(suite.Q.transpose(), suite.Q)
        assert block_residual(QtQ, identity(QtQ.nrows, suite.precision), 20) <= TOL30

    def test_qqt_defect_strictly_decreasing(self, spec):
        defects = []
        for size in (10, 20, 40):
            s = MatrixSuite.build(spec, size=size, guard=4)
            defects.append(orthogonality_defect(s.Q, 5))
        assert defects[0] > defects[1] > defects[2]


class TestPrecisionContext:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_every_value_lives_in_the_precision_context(self, spec, side):
        # A value made in the global context would round at mp.mp.prec when
        # it is the left operand, so none may reach a matrix or a ledger.
        chosen = spec if side == "left" else reflected_spec(30)
        s = MatrixSuite.build(chosen, size=8, guard=4, precision=128)
        # The matrices and ledgers alone hold fewer than 1000 values at this
        # size; the operands verify_propositions forms lift the list above it.
        operands = [m for pair in identity_operands(s).values() for m in pair]
        values = [v for m in [*s.named_matrices().values(), s.J2_direct, *operands]
                  for diagonal in m.diagonals for v in diagonal]
        values += [*s.Q.diag, *s.Q.sub, *s.Q.rho]
        for ledger in (s.rec, s.kt, s.chris, s.sob):
            for f in fields(ledger):
                if isinstance(getattr(ledger, f.name), tuple) and f.name != "support":
                    values.extend(getattr(ledger, f.name))
        values += [s.kt.c, *(v for row in s.kt.cjets.values for v in row)]
        values += [res for _, res, _ in verify_propositions(s).as_rows()]
        assert len(values) > 1000
        assert all(v.context is context(128) for v in values)

    def test_mixed_precisions_round_at_the_larger_one(self, spec):
        lo = MatrixSuite.build(spec, size=8, guard=4, precision=64)
        hi = MatrixSuite.build(spec, size=8, guard=4, precision=256)
        with mp.workprec(256):
            for A, B in ((lo.J, hi.L), (hi.J, lo.L)):
                P = multiply(A, B)
                assert P.precision == 256
                for i in range(P.nrows):
                    for j in range(P.ncols):
                        ref = mp.mpf(0)
                        for k in range(A.ncols):
                            ref += mp.mpf(A.entry(i, k)) * B.entry(k, j)
                        assert P.entry(i, j) == ref, (i, j)
        res = block_residual(lo.J2, hi.J2, 8)
        assert res == block_residual(hi.J2, lo.J2, 8) > 0
        assert res.context is context(256)


class TestExactChain:
    """The chain functions run over mpf and, at ``EXACT`` precision, over
    exact signed square roots of rationals."""

    def test_float_chain_matches_exact_chain_at_size_200(self):
        n, prec = 204, 256  # size 200 plus the default guard of 4
        # closed-form Laguerre, alpha = 0: beta_k = 2k + 1, gamma_k = k^2
        off = [SqrtRational(1, k * k) for k in range(1, n)]
        exact_J = from_diagonals({
            -1: off, 0: [SqrtRational.from_rational(2 * k + 1) for k in range(n)], 1: off,
        }, n, EXACT)
        float_J = build_jacobi(laguerre_recurrence(0, n, prec), n)

        def chain(J):
            L = cholesky_shifted(J, -1)
            J1 = commute_cholesky(L, -1)
            L1 = cholesky_shifted(J1, -1)
            Q, R = qr_pair(L, L1)
            return {"L": L, "J1": J1, "L1": L1, "J2": commute_cholesky(L1, -1),
                    "R": R, "Q": Q}

        floats, exacts = chain(float_J), chain(exact_J)
        tol = context(prec).ldexp(1, -prec // 2)
        fq, eq = floats.pop("Q"), exacts.pop("Q")
        assert (fq.lower_bw, fq.upper_bw, fq.exact_size) == \
            (eq.lower_bw, eq.upper_bw, eq.exact_size)
        for name in ("diag", "sub", "rho"):
            report = squared_entry_compare(
                f"Q {name}", {(i, 0): v for i, v in enumerate(getattr(fq, name))},
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


class TestLowPrecision:
    def test_double_equivalent_precision_still_builds(self, spec):
        s = MatrixSuite.build(spec, size=8, guard=4, precision=64)
        report = verify_propositions(s)
        # far looser residuals, but the identities hold to working accuracy
        assert report.max_residual <= mp.mpf("1e-10")
