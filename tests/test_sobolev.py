"""Sobolev-type family: boundary pairs, norms, connections, five-term entries."""

import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from helpers import (TOL30, as_mpf, assert_rel, assert_squared, custom_table, fraction,
                     laguerre_monic, mpq, oracle_families, oracle_value, poly_deriv, poly_eval,
                     rel, with_auxiliary)
from sobspec.christoffel import ChristoffelLedger
from sobspec.core import EXACT, MeasureSpec, eval_jet
from sobspec.errors import DegeneratePointError, InvalidParameterError, NumericalFailureError
from sobspec.kernels import KernelTable
from sobspec.oracle import build_oracle_suite
from sobspec.sobolev import SobolevLedger, eval_sobolev

RNG_SEED = 77077


@pytest.fixture(scope="module")
def oracle_sob():
    """Monomial coefficients and squared norms of the monic Sobolev family
    through degree 8, from the oracle's exact LDL^T."""
    return oracle_families(1, 1, 9)[1]


@pytest.fixture(scope="module")
def oracle_twelve():
    """The exact twice-transformed and Sobolev families through degree 11."""
    return oracle_families(1, 1, 12)


@pytest.fixture(scope="module")
def oracle_T():
    """The exact connection matrix: T[n][k] = <s_n, p2_k> in (x + 1)^2 dmu."""
    return build_oracle_suite(0, -1, 1, 1, 8).matrices["T"]


class TestBoundary:
    def test_degree_zero(self, sob):
        sob = as_mpf(sob)
        assert (sob.Sc[0], sob.Sdc[0]) == (1, 0)

    def test_degree_one(self, sob):
        sob = as_mpf(sob)
        assert (sob.Sc[1], sob.Sdc[1]) == (-1, 1)

    def test_against_oracle_through_six(self, rec, sob, oracle_sob):
        sob = as_mpf(sob)
        with mp.workprec(rec.precision):
            for n in range(7):
                sc, sdc = sob.Sc[n], sob.Sdc[n]
                ref_c = poly_eval(oracle_sob[0][n], F(-1))
                ref_d = poly_eval(poly_deriv(oracle_sob[0][n]), F(-1))
                assert rel(sc, mp.mpf(ref_c.numerator) / ref_c.denominator) <= TOL30
                assert rel(sdc, mp.mpf(ref_d.numerator) / ref_d.denominator) <= TOL30


class TestNorms:
    def test_degree_zero(self, sob):
        sob = as_mpf(sob)
        assert sob.normS_sq[0] == 2
        assert_squared(sob.t[0], F(1, 2))

    def test_degree_one(self, sob):
        sob = as_mpf(sob)
        assert sob.normS_sq[1] == 4

    def test_t_ratio_from_reference_tables(self, sob):
        sob = as_mpf(sob)
        assert_squared(sob.t[0] / sob.t[2], F(89, 8))

    def test_oracle_norms(self, sob, oracle_sob):
        sob = as_mpf(sob)
        for n in range(7):
            ref = oracle_sob[1][n]
            assert_rel(sob.normS_sq[n], mp.mpf(ref.numerator) / ref.denominator)


class TestGammaConnection:
    def test_reference_table_entries(self, sob):
        sob = as_mpf(sob)
        g00 = sob.gamma_nn[0]
        g11, g01 = sob.gamma_nn[1], sob.gamma_n1[1]
        assert_squared(g00, F(5, 2))
        assert_squared(g11, F(69, 20))
        assert_squared(g01, F(121, 20))

    def test_oracle_inner_products(self, rec, chris, spec, oracle_T):
        # gamma_{k,n} = <s_n, p2_k>; compare in squared form against the oracle
        sob = as_mpf(SobolevLedger.build(chris, spec.M, spec.N, 10))
        with mp.workprec(rec.precision):
            for n in range(7):
                for k in range(max(0, n - 2), n + 1):
                    target_sq = oracle_T[n][k].square
                    got = {n: sob.gamma_nn[n], n - 1: sob.gamma_n1[n], n - 2: sob.gamma_n2[n]}[k]
                    assert rel(got * got,
                               mp.mpf(target_sq.numerator) / target_sq.denominator) <= TOL30

    def test_literal_reading_fails_oracle(self, rec, kt, chris, sob, spec, oracle_T):
        # gamma_{0,1} by the published bracket, from the ledgers' fields: its
        # derivative factor r_k P'_k(c) at k = 1 (verbatim) gives 3/sqrt(5) at
        # (1,0) instead of 11/(2 sqrt(5)), the k = 0 value the ledger holds;
        # it cannot reproduce the oracle inner product.
        rec, kt, chris, sob = map(as_mpf, (rec, kt, chris, sob))
        r, j, t = rec.leading, kt.cjets, sob.t
        with mp.workprec(rec.precision):
            def gamma_01(k):
                mass = (spec.M * t[1] * sob.Sc[1] * j[0][0] * r[0]
                        + spec.N * t[1] * sob.Sdc[1] * j[k][1] * r[k])
                bracket = chris.d[0] * t[1] / r[1] + chris.e[0] * (r[1] / r[0]) * mass
                return -mp.sqrt(kt.K[0] / kt.K[1]) * bracket

            assert rel(gamma_01(0), sob.gamma_n1[1]) <= TOL30
            literal = gamma_01(1)
            target_sq = oracle_T[1][0].square
            assert rel(literal ** 2, mp.mpf(target_sq.numerator) / target_sq.denominator) > 0.1
            assert_squared(literal, F(9, 5))


class TestFiveTerm:
    def test_reference_table_entries(self, sob):
        sob = as_mpf(sob)
        a0, b0, c0 = sob.a[0], sob.b[0], sob.cdiag[0]
        assert a0 == 0 and b0 == 0
        assert_rel(c0, mp.mpf(5) / 2)
        b1, c1 = sob.b[1], sob.cdiag[1]
        assert_squared(b1, F(121, 8))
        assert_rel(c1, mp.mpf(19) / 2)
        a2, c2 = sob.a[2], sob.cdiag[2]
        assert_squared(a2, F(89, 8))
        assert_rel(c2, mp.mpf(5331) / 178)

    def test_a_is_t_ratio(self, sob):
        sob = as_mpf(sob)
        for n in range(2, 16):
            assert_rel(sob.a[n], sob.t[n - 2] / sob.t[n])

    def test_upper_route_matches_symmetric_assembly(self, sob):
        # rho_{n+1,n} computed from its own display must equal b_{n+1}
        sob = as_mpf(sob)
        with mp.workprec(sob.chris.kt.rec.precision):
            for n in range(15):
                up = sob.gamma_nn[n] * sob.gamma_n1[n + 1]
                if n >= 1:
                    up += sob.gamma_n1[n] * sob.gamma_n2[n + 1]
                assert rel(up, sob.b[n + 1]) <= TOL30

    def test_upper_t_ratio_route(self, sob):
        # rho_{n+2,n} = t_n/t_{n+2} equals a_{n+2}
        sob = as_mpf(sob)
        with mp.workprec(sob.chris.kt.rec.precision):
            for n in range(14):
                assert rel(sob.t[n] / sob.t[n + 2], sob.a[n + 2]) <= TOL30

    def test_five_term_residual_pointwise(self, rec, sob):
        led = as_mpf(sob)
        rng = random.Random(RNG_SEED)
        with mp.workprec(rec.precision):
            for n in range(16):
                for _ in range(3):
                    x = mp.mpf(rng.uniform(0, 10))
                    lhs = (x + 1) ** 2 * eval_sobolev(sob, n, x, normalized=True)
                    rhs = led.cdiag[n] * eval_sobolev(sob, n, x, normalized=True)
                    rhs += led.a[n + 2] * eval_sobolev(sob, n + 2, x, normalized=True)
                    rhs += led.b[n + 1] * eval_sobolev(sob, n + 1, x, normalized=True)
                    if n >= 1:
                        rhs += led.b[n] * eval_sobolev(sob, n - 1, x, normalized=True)
                    if n >= 2:
                        rhs += led.a[n] * eval_sobolev(sob, n - 2, x, normalized=True)
                    assert rel(lhs, rhs) <= TOL30


class TestEvaluation:
    def test_normalized_constant(self, sob):
        assert_squared(eval_sobolev(sob, 0, 5.0, normalized=True), F(1, 2))

    def test_monic_degree_one_is_x(self, sob):
        assert_rel(eval_sobolev(sob, 1, 2.0), mp.mpf(2))
        assert_rel(eval_sobolev(sob, 1, -7.0), mp.mpf(-7))

    def test_value_at_mass_point_matches_boundary(self, rec, sob):
        with mp.workprec(rec.precision):
            for n in range(8):
                assert rel(eval_sobolev(sob, n, -1), as_mpf(sob).Sc[n]) <= TOL30

    def test_oracle_pointwise(self, rec, sob, oracle_sob):
        with mp.workprec(rec.precision):
            for n in range(7):
                for x in (F(0), F(1, 3), F(5), F(-2)):
                    ref = poly_eval(oracle_sob[0][n], x)
                    got = eval_sobolev(sob, n, mp.mpf(x.numerator) / x.denominator)
                    assert rel(got, mp.mpf(ref.numerator) / ref.denominator) <= TOL30

    def test_determinant_cross_form(self, rec, kt, oracle_sob):
        # 3x3-determinant representation, from the table's confluent values,
        # against the exact S_n
        rng = random.Random(RNG_SEED + 5)
        table, kt = as_mpf(rec), as_mpf(kt)
        M, N = mp.mpf(1), mp.mpf(1)
        with mp.workprec(rec.precision):
            for n in range(1, 7):
                K = kt.K[n - 1]
                K01 = kt.K01[n - 1]
                K11 = kt.K11[n - 1]
                pj = kt.cjets
                det2 = (1 + M * K) * (1 + N * K11) - N * K01 * M * K01
                for _ in range(5):
                    x = mp.mpf(rng.uniform(0, 10))
                    j = eval_jet(rec, n, x, 0)
                    Kx, K01x = (mp.fsum(j[k][0] * pj[k][i] / table.norm_sq[k] for k in range(n))
                                for i in (0, 1))
                    row0 = [j[n][0], M * Kx, N * K01x]
                    row1 = [pj[n][0], 1 + M * K, N * K01]
                    row2 = [pj[n][1], M * K01, 1 + N * K11]
                    det3 = (row0[0] * (row1[1] * row2[2] - row1[2] * row2[1])
                            - row0[1] * (row1[0] * row2[2] - row1[2] * row2[0])
                            + row0[2] * (row1[0] * row2[1] - row1[1] * row2[0]))
                    assert rel(det3 / det2, oracle_value(oracle_sob, n, x)) <= TOL30


class TestAuxConnections:
    def test_reference_values(self, sob):
        sob = with_auxiliary(sob)
        a0_0, x0_0 = sob.alpha0[0], sob.xi0[0]
        assert_squared(a0_0, F(2))
        assert_squared(x0_0, F(5))
        x0_1 = sob.xi0[1]
        assert_squared(x0_1, F(69, 5))

    def test_xi_equals_leading_ratio(self, rec, chris, sob):
        rec, chris, sob = as_mpf(rec), as_mpf(chris), with_auxiliary(sob)
        with mp.workprec(rec.precision):
            for n in range(16):
                assert rel(sob.xi0[n], rec.leading[n] / chris.r2[n]) <= TOL30

    def test_base_family_expansion(self, rec, sob, oracle_twelve):
        # p_n = xi0 p2_n + xi1 p2_{n-1} + xi2 p2_{n-2} pointwise, p2 exact
        it2 = oracle_twelve[0]
        table, sob = as_mpf(rec), with_auxiliary(sob)
        rng = random.Random(RNG_SEED + 2)
        with mp.workprec(rec.precision):
            for n in range(12):
                for _ in range(3):
                    x = mp.mpf(rng.uniform(0, 10))
                    p2 = [oracle_value(it2, k, x, normalized=True) for k in range(n + 1)]
                    rhs = sob.xi0[n] * p2[n]
                    if n >= 1:
                        rhs += sob.xi1[n] * p2[n - 1]
                    if n >= 2:
                        rhs += sob.xi2[n] * p2[n - 2]
                    p = table.leading[n] * eval_jet(rec, n, x, order=0)[n][0]
                    assert rel(p, rhs) <= TOL30

    def test_kernel_expansion_of_normalized_family(self, rec, kt, sob, oracle_twelve):
        # s_n = alpha1 p_{n+1} + alpha0 p_n - M s_n(c) K_{n+1}(x,c)
        #       - N s_n'(c) K01_{n+1}(x,c) pointwise, s_n exact
        rng = random.Random(RNG_SEED + 3)
        table, kt, sob = as_mpf(rec), as_mpf(kt), with_auxiliary(sob)
        with mp.workprec(rec.precision):
            for n in range(10):
                sc = sob.t[n] * sob.Sc[n]
                sdc = sob.t[n] * sob.Sdc[n]
                for _ in range(3):
                    x = mp.mpf(rng.uniform(0, 10))
                    j = eval_jet(rec, n + 1, x, order=0)
                    K, K01 = (mp.fsum(j[k][0] * kt.cjets[k][i] / table.norm_sq[k]
                                      for k in range(n + 2)) for i in (0, 1))
                    rhs = (sob.alpha1[n] * table.leading[n + 1] * j[n + 1][0]
                           + sob.alpha0[n] * table.leading[n] * j[n][0] - sc * K - sdc * K01)
                    lhs = oracle_value(oracle_twelve[1], n, x, normalized=True)
                    assert rel(lhs, rhs) <= TOL30


class TestTheThreeGammaRoutes:
    def test_connection_expansion_pointwise(self, rec, sob, oracle_twelve):
        # s_n = gamma_nn p2_n + gamma_n1 p2_{n-1} + gamma_n2 p2_{n-2}, both
        # families exact
        it2, sobolev = oracle_twelve
        sob = as_mpf(sob)
        rng = random.Random(RNG_SEED + 4)
        with mp.workprec(rec.precision):
            for n in range(12):
                for _ in range(3):
                    x = mp.mpf(rng.uniform(0, 10))
                    p2 = [oracle_value(it2, k, x, normalized=True) for k in range(n + 1)]
                    rhs = sob.gamma_nn[n] * p2[n]
                    if n >= 1:
                        rhs += sob.gamma_n1[n] * p2[n - 1]
                    if n >= 2:
                        rhs += sob.gamma_n2[n] * p2[n - 2]
                    lhs = oracle_value(sobolev, n, x, normalized=True)
                    assert rel(lhs, rhs) <= TOL30


class TestDegenerateMasses:
    def test_zero_masses_reduce_to_base_family(self, rec, chris):
        led = SobolevLedger.build(chris, 0, 0, 16)
        view, table = as_mpf(led), as_mpf(rec)
        rng = random.Random(RNG_SEED + 6)
        with mp.workprec(rec.precision):
            for n in range(12):
                assert rel(view.t[n], table.leading[n]) <= TOL30
                x = mp.mpf(rng.uniform(0, 10))
                # p_n = P_n / n! for alpha = 0, exact from the closed form
                p = poly_eval(laguerre_monic(0, n), fraction(x)) / math.factorial(n)
                assert rel(eval_sobolev(led, n, x, normalized=True), mpq(p)) <= TOL30

    def test_single_mass_configurations_build(self, chris):
        for Mv, Nv in ((1, 0), (0, 1), (F(3, 2), 0)):
            led = SobolevLedger.build(chris, Mv, Nv, 10)
            assert all(t > 0 for t in as_mpf(led).t)


class TestLedgerInputs:
    def test_size_zero_is_an_empty_ledger(self, chris):
        assert SobolevLedger.build(chris, 1, 1, 0).size == 0

    @pytest.mark.parametrize("size", [-1, True, 4.0])
    def test_size_must_be_a_nonnegative_integer(self, chris, size):
        with pytest.raises(InvalidParameterError):
            SobolevLedger.build(chris, 1, 1, size)

    @pytest.mark.parametrize("M, N", [(-1, 1), (1, F(-1, 2)), (float("nan"), 0),
                                      (1, float("inf"))])
    def test_masses_must_be_finite_and_nonnegative(self, chris, M, N):
        with pytest.raises(InvalidParameterError, match="masses"):
            SobolevLedger.build(chris, M, N, 10)

    @pytest.mark.parametrize("M, N", [(-1, 1), (1, F(-1, 2))])
    def test_masses_must_be_nonnegative_at_exact(self, M, N):
        exact = ChristoffelLedger.build(
            KernelTable.build(MeasureSpec.laguerre(0).recurrence(8, EXACT), -1), 6)
        assert SobolevLedger.build(exact, 1, 0, 6).size == 6
        with pytest.raises(InvalidParameterError, match="masses"):
            SobolevLedger.build(exact, M, N, 6)


def _chris(beta, gamma, c, precision):
    return ChristoffelLedger.build(KernelTable.build(custom_table(beta, gamma, precision), c),
                                   len(beta) - 2)


class TestBuildGuards:
    """Each check of ``SobolevLedger.build`` raises on an input that trips it.
    The boundary system's determinant is at least 1 and every squared norm is
    positive in exact arithmetic, so it takes a build of 12 bits, whose
    rounding breaks both, to trip them; at 64 bits the same data builds."""

    def test_rounding_makes_the_boundary_system_singular(self):
        beta, gamma = [1, 1, -1, -1, 1, 2, -1, 2], [0, 1, 1, 1, 1, 2, 1, 4]
        with pytest.raises(DegeneratePointError, match="singular"):
            SobolevLedger.build(_chris(beta, gamma, 10, 12), 3, 100, 6)
        SobolevLedger.build(_chris(beta, gamma, 10, 64), 3, 100, 6)

    def test_rounding_makes_a_squared_norm_nonpositive(self):
        beta, gamma = [0, 1, -1, -1, 0, 3, 0, 3], [0, 2, 3, 1, 1, 4, 2, 2]
        with pytest.raises(NumericalFailureError, match="squared norm at n = 5 "):
            SobolevLedger.build(_chris(beta, gamma, 10, 12), 1, 100, 6)
        SobolevLedger.build(_chris(beta, gamma, 10, 64), 1, 100, 6)
