"""Exact-rational oracle: the package's base recurrence at ``EXACT``, Gram
matrices, monic systems by exact LDL^T, signed square roots.

These run first in spirit: every frozen expected value elsewhere in the
suite was derived from (or verified against) the constructions here.  The
moment functional of ``helpers`` (closed-form Laguerre polynomials and the
moments (n + alpha)!) is the independent anchor of the recurrence route.
"""

import hashlib
import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from helpers import fractions, in_monomials, laguerre_monic, moment_inner, poly_mul
from sobspec.core import EXACT, MeasureSpec, SobolevSpec, SqrtRational, arith
from sobspec.errors import (
    InvalidParameterError,
    NotPositiveDefiniteError,
    OracleUnsupportedError,
)
from sobspec.matrices import MatrixSuite
from sobspec.oracle import (
    MAX_ROWS,
    build_oracle_suite,
    grams,
    monic_system,
    shift_matrix,
    squared_entry_compare,
)

C, M, N = F(-1), F(1), F(1)
SHIFT = [-C, F(1)]  # x + 1


@pytest.fixture(scope="module")
def table():
    return MeasureSpec.laguerre(0).recurrence(10, EXACT)


@pytest.fixture(scope="module")
def gram_matrices(table):
    return grams(table, C, M, N)


@pytest.fixture(scope="module")
def it2(gram_matrices):
    return monic_system(gram_matrices[1])


@pytest.fixture(scope="module")
def sob(gram_matrices):
    return monic_system(gram_matrices[2])


def moments_from_recurrence(alpha, count):
    """||P_0||^2 (J^n)_00 for n < count, from the package's exact table:
    x^n = sum_k u_k P_k, with u pushed through x P_k = P_(k+1) + beta_k P_k
    + gamma_k P_(k-1)."""
    rec = MeasureSpec.laguerre(alpha).recurrence(count + 1, EXACT)
    beta, gamma, norm_sq = fractions(rec.beta), fractions(rec.gamma), fractions(rec.norm_sq)
    u, out = [F(1)] + [F(0)] * count, []
    for _ in range(count):
        out.append(norm_sq[0] * u[0])
        u = [(u[k - 1] if k else 0) + beta[k] * u[k]
             + (gamma[k + 1] * u[k + 1] if k < count else 0) for k in range(count + 1)]
    return out


def _matmul(X, Y):
    return [[sum((a * b for a, b in zip(row, col) if a and b), F(0)) for col in zip(*Y)]
            for row in X]


def _leading(X, n):
    return [list(row[:n]) for row in X[:n]]


class TestMoments:
    """The exact recurrence and the Gram matrices against the moments (n + alpha)!."""

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_recurrence_reproduces_the_moments(self, alpha):
        assert moments_from_recurrence(alpha, 16) == [F(math.factorial(n + alpha))
                                                     for n in range(16)]

    def test_factorials(self):
        assert moments_from_recurrence(0, 5) == [1, 1, 2, 6, 24]

    def test_alpha_two(self):
        assert moments_from_recurrence(2, 3) == [2, 6, 24]

    def test_non_integer_alpha_rejected(self):
        for alpha in (0.5, F(5, 2)):
            with pytest.raises(OracleUnsupportedError):
                MeasureSpec.laguerre(alpha).recurrence(4, EXACT)
        with pytest.raises(OracleUnsupportedError):
            build_oracle_suite(F(1, 2), C, M, N, 4)

    def test_negative_alpha_rejected(self):
        # alpha <= -1 is no measure: MeasureSpec.laguerre refuses it.
        with pytest.raises(InvalidParameterError):
            build_oracle_suite(-1, C, M, N, 4)

    def test_count_validated(self):
        for size in (0, 4.0, "4", None, True):
            with pytest.raises(InvalidParameterError):
                build_oracle_suite(0, C, M, N, size)

    @pytest.mark.parametrize("position, value", [
        (1, float("-inf")), (2, float("nan")), (0, float("nan")), (0, float("inf")),
        (1, "x"), (0, "y"), (3, None), (0, "1/0"), (1, "1/0"), (2, "1/0"), (3, "1/0"),
    ])
    def test_non_numbers_are_invalid_parameters(self, position, value):
        # Each used to escape as OverflowError, ValueError, TypeError or
        # ZeroDivisionError.
        args = [0, C, M, N]
        args[position] = value
        with pytest.raises(InvalidParameterError):
            build_oracle_suite(*args, 4)

    def test_rational_literals_and_floats_are_read_exactly(self):
        # alpha reaches MeasureSpec.laguerre as a Fraction, so it takes what c, M and N take.
        assert (build_oracle_suite("0", "-1", 1.0, "1", 4).matrices
                == build_oracle_suite(0.0, C, M, N, 4).matrices
                == build_oracle_suite(0, C, M, N, 4).matrices)

    def test_modified_moment_of_shifted_square(self, gram_matrices):
        assert gram_matrices[1][0][0] == 5

    def test_sobolev_pairing_of_ones(self, gram_matrices):
        Gs = gram_matrices[2]
        assert Gs[0][0] == 2
        P = [laguerre_monic(0, i) for i in range(len(Gs))]
        assert Gs == [[moment_inner(0, p, q, C, M, N) for q in P] for p in P]

    @pytest.mark.parametrize("k", [1, 2])
    def test_iterated_is_standard_times_shift_power(self, k):
        c = F(-3, 2)
        shift = [F(1)]
        for _ in range(k):
            shift = poly_mul(shift, [-c, F(1)])
        for alpha in (0, 1):
            G = grams(MeasureSpec.laguerre(alpha).recurrence(8, EXACT), c, M, N)[k - 1]
            P = [laguerre_monic(alpha, i) for i in range(len(G))]
            assert G == [[moment_inner(alpha, poly_mul(shift, p), q) for q in P] for p in P]

    @pytest.mark.parametrize("k", [1, 2])
    def test_iterated_moments_run_out_k_early(self, k):
        # (x - c) P_i needs P_(i+1): the Grams stop one degree short of the basis.
        G = grams(MeasureSpec.laguerre(0).recurrence(6, EXACT), C, M, N)[k - 1]
        assert len(G) == 5 and all(len(row) == 5 for row in G)


class TestGramSchmidt:
    """Monic systems by exact LDL^T, which is Gram-Schmidt in the base basis."""

    def test_standard_first_polynomials(self):
        rec = MeasureSpec.laguerre(0).recurrence(3, EXACT)
        assert fractions(rec.beta)[0] == 1  # P_1 = x - 1
        assert fractions(rec.norm_sq) == (1, 1, 4)

    def test_standard_recurrence_alpha0(self):
        rec = MeasureSpec.laguerre(0).recurrence(9, EXACT)
        assert fractions(rec.beta) == tuple(2 * n + 1 for n in range(9))
        assert fractions(rec.gamma) == tuple(F(n * n) for n in range(9))

    def test_alpha_one_recurrence(self):
        rec = MeasureSpec.laguerre(1).recurrence(6, EXACT)
        beta, gamma = fractions(rec.beta), fractions(rec.gamma)
        assert beta[0] == 2
        assert beta[1] == 4
        assert gamma[1] == 2

    def test_orthonormal_gram_is_identity_squared_form(self, table):
        norm_sq = fractions(table.norm_sq)
        P = [laguerre_monic(0, i) for i in range(7)]
        for i in range(7):
            for j in range(7):
                ip = moment_inner(0, P[i], P[j])
                assert ip * ip / (norm_sq[i] * norm_sq[j]) == (1 if i == j else 0)

    def test_iterated_gram_diagonal(self, it2):
        coeffs, norm_sq = it2
        S = [in_monomials(0, row) for row in coeffs[:7]]
        shift2 = poly_mul(SHIFT, SHIFT)
        for i in range(7):
            for j in range(7):
                ip = moment_inner(0, poly_mul(shift2, S[i]), S[j])
                assert ip == (norm_sq[i] if i == j else 0) and norm_sq[i] > 0

    def test_sobolev_first_degree_is_x(self, sob):
        coeffs, norm_sq = sob
        assert coeffs[1] == [1, 1]  # P_1 + P_0 = x
        assert norm_sq[1] == 4

    def test_sobolev_gram_diagonal(self, sob):
        coeffs, norm_sq = sob
        S = [in_monomials(0, row) for row in coeffs[:7]]
        for i in range(7):
            for j in range(7):
                ip = moment_inner(0, S[i], S[j], C, M, N)
                assert (ip == 0) == (i != j)
                assert i != j or ip == norm_sq[i]

    def test_degree_cap(self):
        build_oracle_suite(0, C, M, N, 3)
        with pytest.raises(OracleUnsupportedError):
            build_oracle_suite(0, C, M, N, MAX_ROWS + 1)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            monic_system([[F(0)]])
        with pytest.raises(NotPositiveDefiniteError):
            monic_system([[F(1), F(2)], [F(2), F(1)]])


class TestSobolevStructure:
    """(x - c)^2 in the Sobolev product, with its point masses, in the base
    basis: A^2 Gs on the leading block where the truncated product is whole."""

    @pytest.fixture(scope="class")
    def shift_square_pairing(self, table, gram_matrices):
        A = [row[:-1] for row in shift_matrix(table, C)]
        n = len(A) - 2
        return _leading(_matmul(_matmul(A, A), gram_matrices[2]), n)

    def test_multiplication_by_shift_square_is_symmetric(self, shift_square_pairing):
        assert shift_square_pairing == [list(col) for col in zip(*shift_square_pairing)]

    def test_shift_square_pairing_drops_to_iterated(self, shift_square_pairing,
                                                    gram_matrices):
        n = len(shift_square_pairing)
        assert shift_square_pairing == _leading(gram_matrices[1], n)

    def test_five_term_band_vanishes_exactly(self, shift_square_pairing, sob):
        n = len(shift_square_pairing)
        Cs = [row + [F(0)] * (n - len(row)) for row in sob[0][:n]]
        pairing = _matmul(_matmul(Cs, shift_square_pairing), list(map(list, zip(*Cs))))
        for i in range(3, n):
            for k in range(i - 2):
                assert pairing[i][k] == 0
            assert pairing[i][i - 2] != 0


class TestSqrtRational:
    def test_from_rational(self):
        x = SqrtRational.from_rational(F(-3, 4))
        assert x.sign == -1 and x.square == F(9, 16)

    def test_mul_div(self):
        a = SqrtRational(1, F(2))
        b = SqrtRational(1, F(1, 2))
        assert (a * b).square == 1 and (a / b).square == 4

    def test_addition_collapses_compatible_radicals(self):
        # sqrt(5/4) + sqrt(49/20) = 6/sqrt(5)
        a = SqrtRational(1, F(5, 4))
        b = SqrtRational(1, F(49, 20))
        assert (a + b).square == F(36, 5)

    def test_addition_with_signs(self):
        a = SqrtRational(1, F(9))
        b = SqrtRational(-1, F(4))
        s = a + b
        assert s.sign == 1 and s.square == 1

    def test_cancellation_to_zero(self):
        a = SqrtRational(1, F(7, 3))
        assert (a - a).sign == 0
        assert (a + (-a)).square == 0

    def test_incompatible_radicals_raise(self):
        a = SqrtRational(1, F(2))
        b = SqrtRational(1, F(3))
        with pytest.raises(ArithmeticError):
            a + b

    def test_sqrt_of_rational_value(self):
        assert SqrtRational.from_rational(F(9, 4)).sqrt().as_rational() == F(3, 2)
        with pytest.raises(NotPositiveDefiniteError):
            SqrtRational.from_rational(F(-1)).sqrt()

    def test_zero_normalization(self):
        assert SqrtRational(0, F(5)).square == 0
        assert SqrtRational(1, F(0)).sign == 0

    def test_equality_coerces_ints_and_fractions(self):
        assert SqrtRational(1, 1) == 1
        assert not SqrtRational(1, 4) != 2  # sqrt(4) is 2
        assert SqrtRational(-1, F(1, 4)) == F(-1, 2)
        assert SqrtRational(0, 0) == 0
        assert SqrtRational(1, 2) != 1
        assert SqrtRational(1, 1) in [None, 1]

    def test_equality_with_other_types_is_false(self):
        assert not SqrtRational(1, 1) == None  # noqa: E711
        assert SqrtRational(1, 1) != "1"
        assert SqrtRational(1, 1) not in [None, "1"]

    def test_hash_agrees_with_equality(self):
        half = SqrtRational(1, F(1, 4))
        assert hash(half) == hash(F(1, 2))
        assert hash(SqrtRational(1, 1)) == hash(1)
        assert hash(SqrtRational(0, 0)) == hash(0)
        assert {half: "x"}[F(1, 2)] == "x"
        assert len({SqrtRational(1, 2), SqrtRational(1, F(2))}) == 1


class TestOracleSuite:
    def test_iterated_jacobi_values(self):
        suite = build_oracle_suite(0, C, M, N, 4)
        j2 = suite.matrices["J2"]
        assert j2[0][0].as_rational() == F(11, 5)
        assert j2[0][1].square == F(69, 25)
        assert j2[1][1].as_rational() == F(1501, 345)

    def test_connection_and_five_term_values(self):
        suite = build_oracle_suite(0, C, M, N, 4)
        T, H = suite.matrices["T"], suite.matrices["H"]
        assert T[0][0].square == F(5, 2)
        assert T[1][0] == SqrtRational(1, F(121, 20))
        assert H[0][0].as_rational() == F(5, 2)
        assert H[0][1].square == F(121, 8)
        assert H[0][2].square == F(89, 8)

    def test_mass_point_inside_support_rejected(self):
        for c in (F(1), 0):
            with pytest.raises(InvalidParameterError, match="must lie outside the support"):
                build_oracle_suite(0, c, M, N, 4)


CHAIN_CONFIGS = {"worked-example": (0, C, M, N), "alpha1": (1, F(-1, 2), F(2), F(1, 3))}


@pytest.fixture(scope="module", params=[(name, rows) for rows in (10, MAX_ROWS)
                                        for name in CHAIN_CONFIGS],
                ids=lambda p: p[0] if p[1] == 10 else f"{p[0]}-{p[1]}")
def chain_suite(request):
    name, rows = request.param
    return build_oracle_suite(*CHAIN_CONFIGS[name], rows)


def _product(A, B, block):
    """Leading block x block of the dense exact product A B."""
    return [[sum((A[i][j] * B[j][k] for j in range(len(B)) if A[i][j].sign and B[j][k].sign),
                 SqrtRational(0, 0))
             for k in range(block)] for i in range(block)]


def _shifted(A, c, block):
    """Leading block x block of A - cI."""
    return [[A[i][k] - (c if i == k else 0) for k in range(block)] for i in range(block)]


class TestOracleChainIdentities:
    """Q, R and J2_shift_sq come from the package's chain run in exact
    arithmetic; these identities tie them to J and to the J2 of the exact
    LDL^T, at 10 rows and at the oracle's cap.  Each block is the leading one
    where the truncated product is complete: R is upper triangular with
    bandwidth 2 and Q upper Hessenberg."""

    def test_qr_is_shifted_j(self, chain_suite):
        m, n = chain_suite.matrices, chain_suite.exact_size
        assert _product(m["Q"], m["R"], n) == _shifted(m["J"], chain_suite.c, n)

    def test_rq_is_shifted_j2(self, chain_suite):
        m, n = chain_suite.matrices, chain_suite.exact_size
        assert _product(m["R"], m["Q"], n - 1) == _shifted(m["J2"], chain_suite.c, n - 1)

    def test_r_rt_is_j2_shift_sq(self, chain_suite):
        m, n = chain_suite.matrices, chain_suite.exact_size
        Rt = list(zip(*m["R"]))
        assert _product(m["R"], Rt, n - 2) == [list(row[:n - 2])
                                               for row in m["J2_shift_sq"][:n - 2]]


class TestExactBand:
    """The band claim, proved exactly at the oracle's cap from the monic
    systems: C_s G2 C_s^T holds <(x - c)^2 S_n, S_k> and C_s G2 C2^T holds
    <(x - c)^2 S_n, P^[2]_k> in dmu, so only offsets k - n in -2..2 (H) and
    -2..0 (T) may be nonzero; the outer ones never vanish."""

    @pytest.mark.parametrize("name", CHAIN_CONFIGS)
    def test_pairings_vanish_exactly_off_the_h_and_t_bands(self, name):
        alpha, c, m, n = CHAIN_CONFIGS[name]
        rec = MeasureSpec.laguerre(alpha).recurrence(MAX_ROWS + 1, EXACT)
        _, G2, Gs = grams(rec, c, m, n)
        Cs, C2 = ([row + [F(0)] * (MAX_ROWS - len(row)) for row in monic_system(G)[0]]
                  for G in (Gs, G2))
        for Y, band in ((Cs, range(-2, 3)), (C2, range(-2, 1))):
            pairing = _matmul(_matmul(Cs, G2), [list(col) for col in zip(*Y)])
            assert all(pairing[i][k] == 0 for i in range(MAX_ROWS) for k in range(MAX_ROWS)
                       if k - i not in band)
            assert all(pairing[i][i + k] for k in (band[0], band[-1])
                       for i in range(max(0, -k), MAX_ROWS - max(0, k)))


#: SHA-256 of the (sign, square) of every entry of ``.matrices``, matrices
#: in name order, for four configurations: the worked example, a second
#: alpha, and two near-support c with the near-root N = 1/4.
ORACLE_DIGESTS = {
    "worked-example-29": ((0, C, M, N, MAX_ROWS),
                          "6793f24e3abf33d56b33e0ae0b38386b9d67318b6c19b765a15f3a0cd7de9541"),
    "alpha2-29": ((2, F(-1, 3), F(1), F(2), MAX_ROWS),
                  "05ca79cc29bd79cc7a70daae8a2b2d039d1b79b7f575dc851b7441c94d46c413"),
    "near-support-12": ((2, F(-1, 10**6), F(1), F(3), 12),
                        "af8b5de326bed68a4118fdc89cca00cca110a70969647dda99f333f54f8a3167"),
    "near-root-10": ((0, F(-1, 10**12), F(1), F(1, 4), 10),
                     "91d29b020a400b143fad1c39859125b5ff1ae7ec549e82ddc0e47f479534e205"),
}


@pytest.mark.parametrize("name", ORACLE_DIGESTS)
def test_oracle_entries_are_pinned(name):
    config, expected = ORACLE_DIGESTS[name]
    rows = [(label, [[(e.sign, e.square) for e in row] for row in matrix])
            for label, matrix in sorted(build_oracle_suite(*config).matrices.items())]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == expected


class TestFloatPathAgainstOracle:
    @pytest.mark.parametrize("name", CHAIN_CONFIGS)
    def test_float_suite_matches_the_oracle_at_the_cap(self, name):
        # The floating chain and ledgers at 256 bits against the exact suite
        # at MAX_ROWS, over every band entry inside each matrix's exact block.
        alpha, c, m, n = CHAIN_CONFIGS[name]
        spec = SobolevSpec(MeasureSpec.laguerre(alpha), c, m, n)
        suite = MatrixSuite.build(spec, MAX_ROWS - 4, guard=4, precision=256)
        exact = build_oracle_suite(alpha, c, m, n, MAX_ROWS).matrices
        for label, matrix in suite.named_matrices().items():
            cells = [(i, j) for i, j, _ in matrix.band_entries()
                     if max(i, j) < matrix.exact_size]
            report = squared_entry_compare(
                label, {ij: matrix.entry(*ij) for ij in cells},
                {(i, j): exact[label][i][j] for i, j in cells}, F(1, 2**128))
            assert report.all_ok, report.summary()


class TestSquaredEntryCompare:
    def test_match_and_mismatch_reported_not_raised(self):
        exact = {
            (0, 0): SqrtRational(1, F(25, 4)),
            (0, 1): SqrtRational(-1, F(2)),
            (1, 1): SqrtRational(0, 0),
        }
        floats = {(0, 0): 2.5, (0, 1): -1.41421356237309515, (1, 1): 0.0}
        report = squared_entry_compare("demo", floats, exact, 1e-12)
        assert report.all_ok and report.passed == 3

        floats[(0, 1)] = 1.41421356237309515  # sign flip
        report = squared_entry_compare("demo", floats, exact, 1e-12)
        assert not report.all_ok and report.passed == 2
        bad = [v for v in report.verdicts if not v.ok]
        assert bad[0].sign_ok is False

    def test_zero_reference_bounds_the_value_not_its_square(self):
        exact = {(0, 0): SqrtRational(0, 0)}
        assert not squared_entry_compare("z", {(0, 0): 1e-20}, exact, 1e-30).all_ok
        assert squared_entry_compare("z", {(0, 0): -1e-31}, exact, 1e-30).all_ok

    @pytest.mark.parametrize("tol", [1e-12, mp.mpf("1e-12"), F(1, 10**12)])
    def test_float_mpf_and_fraction_tolerances(self, tol):
        ctx = arith(256).ctx
        exact = {(0, 0): SqrtRational(1, 2), (0, 1): SqrtRational(0, 0)}
        floats = {(0, 0): ctx.sqrt(2) * (1 + ctx.mpf("1e-14")), (0, 1): ctx.mpf("1e-13")}
        assert squared_entry_compare("t", floats, exact, tol).all_ok
        floats[(0, 0)] = ctx.sqrt(2) * (1 + ctx.mpf("1e-11"))
        report = squared_entry_compare("t", floats, exact, tol)
        assert report.passed == 1 and report.verdicts[0].sign_ok
