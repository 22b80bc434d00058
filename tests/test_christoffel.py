"""Twice-transformed family: connection coefficients, recurrence, evaluation."""

import dataclasses
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from helpers import PAIR_IDS, PAIRS, TOL30, assert_rel, assert_squared, custom_table, rel
from sobspec.christoffel import ChristoffelLedger, eval_iterated
from sobspec.core import MeasureSpec, context, eval_jet
from sobspec.errors import DegeneratePointError, InvalidParameterError, NumericalFailureError
from sobspec.kernels import KernelTable
from sobspec.matrices import MatrixSuite, build_iterated_jacobi, verify_propositions
from sobspec.oracle import build_oracle_suite, grams, laguerre_basis, monic_system

RNG_SEED = 61409


class TestCoefficients:
    def test_first_pair_matches_coefficient_expansion(self, chris):
        # (x+1)^2 = P_2 - d_0 P_1 + e_0 P_0 forces d_0 = -6, e_0 = 5.
        assert chris.d[0] == -6 and chris.e[0] == 5

    def test_e1_by_kernel_ratio(self, chris):
        assert_rel(chris.e[1], mp.mpf(69) / 5)

    def test_positivity(self, chris):
        assert all(e > 0 for e in chris.e)
        assert all(t > 0 for t in chris.tau)

    def test_dual_e_formulas(self, rec, kt, chris):
        with mp.workprec(rec.precision):
            for n in range(16):
                kernel_form = (rec.norm_sq[n + 1] / rec.norm_sq[n]) * kt.K[n + 1] / kt.K[n]
                assert rel(chris.e[n], kernel_form) <= TOL30

    def test_exact_values_from_oracle(self, chris):
        # The oracle route: e_n = |P2_n|^2_[2] / |P_n|^2 over exact rationals.
        basis = laguerre_basis(0, 10)
        _, it2_norm_sq = monic_system(grams(basis, F(-1), 1, 1)[1])
        for n in range(7):
            e_exact = it2_norm_sq[n] / basis[2][n]
            assert_rel(chris.e[n], mp.mpf(e_exact.numerator) / e_exact.denominator)


class TestLeading:
    def test_degree_zero(self, chris):
        assert_squared(chris.r2[0], F(1, 5))

    def test_degree_one(self, chris):
        assert_squared(chris.r2[1], F(5, 69))

    def test_norm_relation(self, rec, chris):
        for n in range(16):
            assert_rel(chris.norm2_sq[n], chris.e[n] * rec.norm_sq[n])
            assert_rel(chris.norm2_sq[n] * chris.r2[n] ** 2, mp.mpf(1))


class TestRecurrencePair:
    def test_worked_example_values(self, chris):
        k0 = chris.kappa[0]
        k1, t1 = chris.kappa[1], chris.tau[1]
        assert_rel(k0, mp.mpf(11) / 5)
        assert_rel(k1, mp.mpf(1501) / 345)
        assert_rel(t1, mp.mpf(69) / 25)

    def test_matches_exact_oracle_recurrence(self, chris):
        J2 = build_oracle_suite(0, -1, 1, 1, 6).matrices["J2"]
        for n in range(6):
            kappa = J2[n][n].as_rational()
            assert_rel(chris.kappa[n], mp.mpf(kappa.numerator) / kappa.denominator)
            if n >= 1:
                tau = J2[n - 1][n].square
                assert_rel(chris.tau[n], mp.mpf(tau.numerator) / tau.denominator)

    def test_dual_tau_formulas(self, rec, kt, chris):
        with mp.workprec(rec.precision):
            for n in range(1, 16):
                alt = (chris.r2[n - 1] * rec.norm_sq[n + 1] ** 0.5) ** 2 * kt.K[n + 1] / kt.K[n]
                assert rel(chris.tau[n], alt) <= TOL30


class TestDefiningIdentity:
    def test_shifted_square_connection(self, rec, chris):
        rng = random.Random(RNG_SEED)
        with mp.workprec(rec.precision):
            for n in range(16):
                for _ in range(5):
                    x = mp.mpf(rng.uniform(0, 10))
                    lhs = (x + 1) ** 2 * eval_iterated(chris, n, x, k=2, monic=True)
                    j = eval_jet(rec, n + 2, x, order=0)
                    rhs = j.jet(n + 2) - chris.d[n] * j.jet(n + 1) + chris.e[n] * j.jet(n)
                    assert rel(lhs, rhs) <= TOL30


class TestEvaluation:
    def test_once_transformed_degree_zero(self, chris):
        assert eval_iterated(chris, 0, 3.7, k=1) == 1

    def test_once_transformed_is_divided_difference(self, rec, kt, chris):
        rng = random.Random(RNG_SEED + 1)
        with mp.workprec(rec.precision):
            for n in range(1, 10):
                x = mp.mpf(rng.uniform(0, 10))
                j = eval_jet(rec, n + 1, x, order=0)
                expected = (j.jet(n + 1)
                            - kt.cjets.jet(n + 1) / kt.cjets.jet(n) * j.jet(n)) / (x + 1)
                assert_rel(eval_iterated(chris, n, x, k=1), expected)

    def test_once_transformed_at_mass_point(self, rec, kt, chris):
        # At x = c the kernel polynomial reads the confluent K_n(c, c).
        with mp.workprec(rec.precision):
            for n in range(1, 6):
                val = eval_iterated(chris, n, -1, k=1)
                expected = rec.norm_sq[n] * kt.K[n] / kt.cjets.jet(n)
                assert_rel(val, expected)

    def test_twice_transformed_monic_degree_one(self, chris):
        assert_rel(eval_iterated(chris, 1, -1, k=2, monic=True), mp.mpf(-16) / 5)

    def test_twice_transformed_orthonormal_degree_zero(self, chris):
        assert_squared(eval_iterated(chris, 0, 123.0, k=2), F(1, 5))

    def test_route_agreement_and_mass_point_value(self, rec, kt, chris):
        # the recurrence route must match the connection route, including
        # exactly at the mass point where the connection needs two derivatives
        with mp.workprec(rec.precision):
            for n in range(10):
                v = eval_iterated(chris, n, -1, k=2, monic=True)
                j = kt.cjets
                lhopital = (j.jet(n + 2, 2) - chris.d[n] * j.jet(n + 1, 2)
                            + chris.e[n] * j.jet(n, 2)) / 2
                assert rel(v, lhopital) <= TOL30

    def test_once_transformed_index_bound(self, rec, chris):
        # The kernel sum needs no P_{n+1}: the last row of the table is valid.
        assert eval_iterated(chris, rec.size - 1, 2.0, k=1) != 0
        for n in (-1, rec.size):
            with pytest.raises(IndexError):
                eval_iterated(chris, n, 2.0, k=1)

    def test_k_validation(self, chris):
        with pytest.raises(IndexError):
            eval_iterated(chris, 2, 0.0, k=3)

    def test_degenerate_point_guard(self):
        # Unvalidated custom data: declared support excludes c = 0 but the
        # symmetric recurrence has P_1(0) = 0.
        fake = MeasureSpec.custom(
            beta=[0] * 8, gamma=[0] + [1] * 7, support=(-10.0, -5.0), norm0_sq=1
        )
        table = fake.recurrence(8)
        kt0 = KernelTable.build(table, 0)
        ledger = ChristoffelLedger.build(kt0, 4)
        with pytest.raises(DegeneratePointError):
            eval_iterated(ledger, 1, 2.0, k=1)


def _ledger(alpha, c, precision, size=27):
    rec = MeasureSpec.laguerre(alpha).recurrence(size + 2, precision=precision)
    return ChristoffelLedger.build(KernelTable.build(rec, c), size)


class TestConnectionCheck:
    @pytest.mark.parametrize("field", ["kappa", "tau", "d", "e"])
    @pytest.mark.parametrize("precision", [64, 256])
    def test_corrupted_ledger_raises(self, precision, field):
        # One entry scaled by 1 + 2^(-p/4): kappa_3 and tau_3 enter P^[2]_4
        # through the recurrence, d_3 and e_3 enter P^[2]_3's connection.
        chris = _ledger(0, -1, precision)
        values = list(getattr(chris, field))
        values[3] *= 1 + context(precision).ldexp(1, -(precision // 4))
        bad = dataclasses.replace(chris, **{field: tuple(values)})
        n = 4 if field in ("kappa", "tau") else 3
        for offset in (0, 1, F(73, 10)):
            with pytest.raises(NumericalFailureError):
                eval_iterated(bad, n, -1 + offset, k=2)

    @pytest.mark.parametrize("index", [1, 9, 19])
    @pytest.mark.parametrize("precision", [128, 256])
    def test_corrupted_tau_breaches_the_j2_row(self, spec, precision, index):
        # tau feeds J2_direct's off-diagonal, and the "J2 chain = J2 ledger"
        # residual sets that against the Cholesky chain: tau's only check.
        suite = MatrixSuite.build(spec, size=20, guard=4, precision=precision)
        tau = list(suite.sob.chris.tau)
        tau[index] *= 1 + context(precision).ldexp(1, -(precision // 4))
        bad = dataclasses.replace(suite.sob.chris, tau=tuple(tau))
        corrupted = dataclasses.replace(
            suite, J2_direct=build_iterated_jacobi(bad, suite.J2_direct.nrows))
        row = "J2 chain = J2 ledger"
        clean, = (res for name, res, _ in verify_propositions(suite).as_rows() if name == row)
        wrong, = (res for name, res, _ in verify_propositions(corrupted).as_rows() if name == row)
        assert clean <= TOL30 < wrong

    @pytest.mark.parametrize("alpha, c", PAIRS, ids=PAIR_IDS)
    def test_valid_ledger_raises_nothing_near_mass_point(self, alpha, c):
        # Cancellation in the connection near c is within its guard.
        ctx = context(64)
        chris = _ledger(alpha, c, 64)
        for offset in ("1e-3", "1e-5", "1e-7"):
            x = ctx.mpf(c.numerator) / c.denominator + ctx.mpf(offset)
            for n in range(chris.size):
                eval_iterated(chris, n, x, k=2)


class TestLedgerInputs:
    def test_size_zero_is_an_empty_ledger(self, kt):
        assert ChristoffelLedger.build(kt, 0).size == 0

    @pytest.mark.parametrize("size", [-2, True, 4.0])
    def test_size_must_be_a_nonnegative_integer(self, kt, size):
        with pytest.raises(InvalidParameterError):
            ChristoffelLedger.build(kt, size)


class TestBuildGuards:
    """Each check of ``ChristoffelLedger.build`` raises on an input that trips it."""

    @pytest.mark.parametrize("index", [0, 1, 4])
    @pytest.mark.parametrize("precision", [64, 256])
    def test_kernel_entry_off_by_a_quarter_precision_trips_e_guard(self, precision, index):
        # K_i enters e_{i-1} (e_0 for i = 0) first, by e_n = ||P_{n+1}||^2 K_{n+1}
        # / (||P_n||^2 K_n).
        rec = MeasureSpec.laguerre(0).recurrence(10, precision)
        kt = KernelTable.build(rec, -1)
        K = list(kt.K)
        K[index] *= 1 + context(precision).ldexp(1, -(precision // 4))
        with pytest.raises(NumericalFailureError, match=f"for e_{max(index - 1, 0)} "):
            ChristoffelLedger.build(dataclasses.replace(kt, K=tuple(K)), 8)

    def test_rounding_at_three_bits_makes_an_e_negative(self):
        # e_n = ||P_{n+1}||^2 K_{n+1}(c, c) / (||P_n||^2 K_n(c, c)) > 0, but at
        # three bits e_3 rounds to -0.09, within the dual-formula guard, which
        # is absolute below 1; the Sobolev ledger's sqrt(e_3) then failed.
        beta, gamma = [2, -2.25, 0, 0.5, 3, 1], [0, 1, 4, 0.25, 1e-12, 0.25]
        kt = KernelTable.build(custom_table(beta, gamma, 3), 0.1)
        with pytest.raises(NumericalFailureError,
                           match="computed e_3 is -0.09; increase the precision"):
            ChristoffelLedger.build(kt, 4)
        ChristoffelLedger.build(KernelTable.build(custom_table(beta, gamma, 64), 0.1), 4)

    def test_rounding_at_three_bits_makes_a_wronskian_vanish(self):
        # P_4 P_3' - P_4' P_3 = ||P_3||^2 K_3(c, c) > 0, but at three bits
        # its two products round to one value.
        table = custom_table([0, 0, 0, 1, 1, 0, -1], [0, 4, 3, 0.25, 4, 4, 0.5], 3)
        with pytest.raises(DegeneratePointError, match="at n = 3 vanishes"):
            ChristoffelLedger.build(KernelTable.build(table, -3), 5)
