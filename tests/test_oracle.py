"""Exact-rational oracle: moments, Gram-Schmidt, signed square roots.

These run first in spirit: every frozen expected value elsewhere in the
suite was derived from (or verified against) the constructions here.
"""

from fractions import Fraction as F

import mpmath as mp
import pytest

from sobspec.core import context
from sobspec.errors import (
    InvalidParameterError,
    NotPositiveDefiniteError,
    OracleUnsupportedError,
)
from sobspec.oracle import (
    MomentFunctional,
    SqrtRational,
    build_oracle_suite,
    gram_schmidt,
    laguerre_moments,
    poly_mul,
    squared_entry_compare,
)

C, M, N = F(-1), F(1), F(1)
SHIFT2 = (F(1), F(2), F(1))  # (x + 1)^2


@pytest.fixture(scope="module")
def moments():
    return laguerre_moments(0, 40)


@pytest.fixture(scope="module")
def std(moments):
    return gram_schmidt(MomentFunctional.standard(moments), 8)


@pytest.fixture(scope="module")
def it2(moments):
    return gram_schmidt(MomentFunctional.iterated(moments, 2, C), 8)


@pytest.fixture(scope="module")
def sob(moments):
    return gram_schmidt(MomentFunctional.sobolev(moments, C, M, N), 8)


class TestMoments:
    def test_factorials(self):
        assert laguerre_moments(0, 5) == (1, 1, 2, 6, 24)

    def test_alpha_two(self):
        assert laguerre_moments(2, 3) == (2, 6, 24)

    def test_non_integer_alpha_rejected(self):
        with pytest.raises(OracleUnsupportedError):
            laguerre_moments(0.5, 4)

    def test_negative_alpha_rejected(self):
        with pytest.raises(OracleUnsupportedError):
            laguerre_moments(-1, 4)

    def test_count_validated(self):
        with pytest.raises(InvalidParameterError):
            laguerre_moments(0, 0)

    def test_modified_moment_of_shifted_square(self, moments):
        f = MomentFunctional.iterated(moments, 2, C)
        assert f.inner((F(1),), (F(1),)) == 5

    def test_sobolev_pairing_of_ones(self, moments):
        f = MomentFunctional.sobolev(moments, C, M, N)
        assert f.inner((F(1),), (F(1),)) == 2

    @pytest.mark.parametrize("k", [1, 2])
    def test_iterated_is_standard_times_shift_power(self, moments, k):
        c = F(-3, 2)
        shift = (F(1),)
        for _ in range(k):
            shift = poly_mul(shift, (-c, F(1)))
        it, base = MomentFunctional.iterated(moments, k, c), MomentFunctional.standard(moments)
        polys = [(F(1),), (F(-1), F(1)), (F(2), F(0), F(-1, 3)), (F(1, 2), F(-2), F(0), F(5))]
        for f in polys:
            for g in polys:
                assert it.inner(f, g) == base.inner(poly_mul(f, shift), g)

    @pytest.mark.parametrize("k", [1, 2])
    def test_iterated_moments_run_out_k_early(self, k):
        f = MomentFunctional.iterated(laguerre_moments(0, 6), k, C)
        top = 6 - k - 1  # highest moment order left
        f.inner((F(1),), (F(0),) * top + (F(1),))
        with pytest.raises(OracleUnsupportedError):
            f.inner((F(0), F(1)), (F(0),) * top + (F(1),))


class TestGramSchmidt:
    def test_standard_first_polynomials(self, std):
        assert std.coeffs[1] == (F(-1), F(1))
        assert std.norm_sq[1] == 1
        assert std.norm_sq[2] == 4

    def test_standard_recurrence_alpha0(self, std):
        betas, gammas = std.recurrence()
        assert betas == tuple(2 * n + 1 for n in range(len(betas)))
        assert gammas == tuple(F(n * n) for n in range(len(gammas)))

    def test_alpha_one_recurrence(self):
        sys1 = gram_schmidt(MomentFunctional.standard(laguerre_moments(1, 30)), 6)
        betas, gammas = sys1.recurrence()
        assert betas[0] == 2
        assert betas[1] == 4
        assert gammas[1] == 2

    def test_orthonormal_gram_is_identity_squared_form(self, std):
        for i in range(7):
            for j in range(7):
                ip = std.functional.inner(std.coeffs[i], std.coeffs[j])
                squared = ip * ip / (std.norm_sq[i] * std.norm_sq[j])
                assert squared == (1 if i == j else 0)

    def test_iterated_gram_diagonal(self, it2):
        gram = it2.gram(6)
        for i in range(7):
            for j in range(7):
                if i != j:
                    assert gram[i][j] == 0
                else:
                    assert gram[i][j] > 0

    def test_sobolev_first_degree_is_x(self, sob):
        assert sob.coeffs[1] == (F(0), F(1))
        assert sob.norm_sq[1] == 4

    def test_sobolev_gram_diagonal(self, sob):
        gram = sob.gram(6)
        for i in range(7):
            for j in range(7):
                assert (gram[i][j] == 0) == (i != j)

    def test_degree_cap(self, moments):
        with pytest.raises(OracleUnsupportedError):
            gram_schmidt(MomentFunctional.standard(moments), 13)

    def test_not_positive_definite(self):
        bad = MomentFunctional.standard((F(0), F(0), F(0)))
        with pytest.raises(NotPositiveDefiniteError):
            gram_schmidt(bad, 1)


class TestSobolevStructure:
    def test_multiplication_by_shift_square_is_symmetric(self, moments):
        f = MomentFunctional.sobolev(moments, C, M, N)
        for i in range(9):
            for j in range(9):
                p = tuple(F(0) for _ in range(i)) + (F(1),)
                q = tuple(F(0) for _ in range(j)) + (F(1),)
                left = f.inner(poly_mul(SHIFT2, p), q)
                right = f.inner(p, poly_mul(SHIFT2, q))
                assert left == right

    def test_shift_square_pairing_drops_to_iterated(self, moments, sob):
        fs = MomentFunctional.sobolev(moments, C, M, N)
        f2 = MomentFunctional.iterated(moments, 2, C)
        for n in range(7):
            for k in range(7):
                left = fs.inner(poly_mul(SHIFT2, sob.coeffs[n]), sob.coeffs[k])
                assert left == f2.inner(sob.coeffs[n], sob.coeffs[k])

    def test_five_term_band_vanishes_exactly(self, moments, sob):
        fs = MomentFunctional.sobolev(moments, C, M, N)
        for n in range(3, 9):
            for k in range(n - 2):
                assert fs.inner(poly_mul(SHIFT2, sob.coeffs[n]), sob.coeffs[k]) == 0


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
        with pytest.raises(OracleUnsupportedError):
            build_oracle_suite(0, F(1), M, N, 4)


@pytest.fixture(scope="module", params=[(0, C, M, N), (1, F(-1, 2), F(2), F(1, 3))],
                ids=["worked-example", "alpha1"])
def suite10(request):
    return build_oracle_suite(*request.param, 10)


def _product(A, B, block):
    """Leading block x block of the dense exact product A B."""
    return [[sum((A[i][j] * B[j][k] for j in range(len(B))), SqrtRational(0, 0))
             for k in range(block)] for i in range(block)]


def _shifted(A, c, block):
    """Leading block x block of A - cI."""
    return [[A[i][k] - (c if i == k else 0) for k in range(block)] for i in range(block)]


class TestOracleChainIdentities:
    """Q, R and J2_shift_sq come from the package's chain run in exact
    arithmetic; these identities tie them to the Gram-Schmidt J and J2.
    Each block is the leading one where the truncated product is complete:
    R is upper triangular with bandwidth 2 and Q upper Hessenberg."""

    def test_qr_is_shifted_j(self, suite10):
        m = suite10.matrices
        assert _product(m["Q"], m["R"], 10) == _shifted(m["J"], suite10.c, 10)

    def test_rq_is_shifted_j2(self, suite10):
        m = suite10.matrices
        assert _product(m["R"], m["Q"], 9) == _shifted(m["J2"], suite10.c, 9)

    def test_r_rt_is_j2_shift_sq(self, suite10):
        m = suite10.matrices
        Rt = list(zip(*m["R"]))
        assert _product(m["R"], Rt, 8) == [list(row[:8]) for row in m["J2_shift_sq"][:8]]


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
        ctx = context(256)
        exact = {(0, 0): SqrtRational(1, 2), (0, 1): SqrtRational(0, 0)}
        floats = {(0, 0): ctx.sqrt(2) * (1 + ctx.mpf("1e-14")), (0, 1): ctx.mpf("1e-13")}
        assert squared_entry_compare("t", floats, exact, tol).all_ok
        floats[(0, 0)] = ctx.sqrt(2) * (1 + ctx.mpf("1e-11"))
        report = squared_entry_compare("t", floats, exact, tol)
        assert report.passed == 1 and report.verdicts[0].sign_ok
