"""Twice-transformed family: connection coefficients, recurrence, leading
coefficients, and the residual rows that catch a corrupted ledger."""

import dataclasses
import functools
import random
from collections import Counter
from fractions import Fraction as F

import mpmath as mp
import pytest

from helpers import (TOL30, as_mpf, assert_rel, assert_squared, custom_table, logged_kit,
                     oracle_families, oracle_value, rel, scaled)
from sobspec.christoffel import ChristoffelLedger
from sobspec.core import EXACT, MeasureSpec, SobolevSpec, arith, eval_jet
from sobspec.errors import DegeneratePointError, InvalidParameterError, NumericalFailureError
from sobspec.kernels import KernelTable
from sobspec.matrices import (MatrixSuite, build_H, build_iterated_jacobi, build_T,
                              verify_propositions)
from sobspec.oracle import build_oracle_suite, grams, monic_system
from sobspec.sobolev import SobolevLedger

RNG_SEED = 61409


class TestCoefficients:
    def test_first_pair_matches_coefficient_expansion(self, chris):
        chris = as_mpf(chris)
        # (x+1)^2 = P_2 - d_0 P_1 + e_0 P_0 forces d_0 = -6, e_0 = 5.
        assert chris.d[0] == -6 and chris.e[0] == 5

    def test_e1_by_kernel_ratio(self, chris):
        chris = as_mpf(chris)
        assert_rel(chris.e[1], mp.mpf(69) / 5)

    def test_positivity(self, chris):
        chris = as_mpf(chris)
        assert all(e > 0 for e in chris.e)
        assert all(t > 0 for t in chris.tau)

    def test_dual_e_formulas(self, rec, kt, chris):
        rec, kt, chris = as_mpf(rec), as_mpf(kt), as_mpf(chris)
        with mp.workprec(rec.precision):
            for n in range(16):
                kernel_form = (rec.norm_sq[n + 1] / rec.norm_sq[n]) * kt.K[n + 1] / kt.K[n]
                assert rel(chris.e[n], kernel_form) <= TOL30

    def test_exact_values_from_oracle(self, chris):
        chris = as_mpf(chris)
        # The oracle route: e_n = |P2_n|^2_[2] / |P_n|^2 over exact rationals.
        table = MeasureSpec.laguerre(0).recurrence(10, EXACT)
        _, it2_norm_sq = monic_system(grams(table, F(-1), 1, 1)[1])
        for n in range(7):
            e_exact = it2_norm_sq[n] / table.norm_sq[n].as_rational()
            assert_rel(chris.e[n], mp.mpf(e_exact.numerator) / e_exact.denominator)


class TestLeading:
    def test_degree_zero(self, chris):
        chris = as_mpf(chris)
        assert_squared(chris.r2[0], F(1, 5))

    def test_degree_one(self, chris):
        chris = as_mpf(chris)
        assert_squared(chris.r2[1], F(5, 69))

    def test_norm_relation(self, rec, chris):
        rec, chris = as_mpf(rec), as_mpf(chris)
        for n in range(16):
            assert_rel(chris.norm2_sq[n], chris.e[n] * rec.norm_sq[n])
            assert_rel(chris.norm2_sq[n] * chris.r2[n] ** 2, mp.mpf(1))


class TestRecurrencePair:
    def test_worked_example_values(self, chris):
        chris = as_mpf(chris)
        k0 = chris.kappa[0]
        k1, t1 = chris.kappa[1], chris.tau[1]
        assert_rel(k0, mp.mpf(11) / 5)
        assert_rel(k1, mp.mpf(1501) / 345)
        assert_rel(t1, mp.mpf(69) / 25)

    def test_matches_exact_oracle_recurrence(self, chris):
        chris = as_mpf(chris)
        J2 = build_oracle_suite(0, -1, 1, 1, 6).matrices["J2"]
        for n in range(6):
            kappa = J2[n][n].as_rational()
            assert_rel(chris.kappa[n], mp.mpf(kappa.numerator) / kappa.denominator)
            if n >= 1:
                tau = J2[n - 1][n].square
                assert_rel(chris.tau[n], mp.mpf(tau.numerator) / tau.denominator)

    def test_dual_tau_formulas(self, rec, kt, chris):
        rec, kt, chris = as_mpf(rec), as_mpf(kt), as_mpf(chris)
        with mp.workprec(rec.precision):
            for n in range(1, 16):
                alt = (chris.r2[n - 1] * rec.norm_sq[n + 1] ** 0.5) ** 2 * kt.K[n + 1] / kt.K[n]
                assert rel(chris.tau[n], alt) <= TOL30


class TestDefiningIdentity:
    def test_shifted_square_connection(self, rec, chris):
        chris = as_mpf(chris)
        # (x+1)^2 P^[2]_n = P_{n+2} - d_n P_{n+1} + e_n P_n, the left side exact.
        it2 = oracle_families(1, 1, 16)[0]
        rng = random.Random(RNG_SEED)
        with mp.workprec(rec.precision):
            for n in range(16):
                for _ in range(5):
                    x = mp.mpf(rng.uniform(0, 10))
                    lhs = (x + 1) ** 2 * oracle_value(it2, n, x)
                    j = eval_jet(rec, n + 2, x, order=0)
                    rhs = j[n + 2][0] - chris.d[n] * j[n + 1][0] + chris.e[n] * j[n][0]
                    assert rel(lhs, rhs) <= TOL30


@functools.cache
def _clean(precision):
    """The worked example's suite at size 20 and its residual rows by name."""
    spec = SobolevSpec(MeasureSpec.laguerre(0), c=-1, M=1, N=1)
    suite = MatrixSuite.build(spec, size=20, guard=4, precision=precision)
    return suite, {name: res for name, res, _ in verify_propositions(suite).as_rows()}


class TestCorruptedLedger:
    @pytest.mark.parametrize("field", ["kappa", "tau", "d", "e"])
    @pytest.mark.parametrize("index", [1, 3, 9, 19])
    @pytest.mark.parametrize("precision", [128, 256])
    def test_corrupted_field_breaches_its_rows(self, precision, index, field):
        # One entry scaled by 1 + 2^(-p/4).  kappa and tau feed J2_direct, and
        # the "J2 chain = J2 ledger" residual sets that against the Cholesky
        # chain; d and e feed the Sobolev ledger, so T and H, and two residuals
        # set those against J2.
        suite, clean = _clean(precision)
        values = scaled(getattr(suite.sob.chris, field), index,
                        1 + arith(precision).ctx.ldexp(1, -(precision // 4)), precision)
        bad = dataclasses.replace(suite.sob.chris, **{field: values})
        if field in ("kappa", "tau"):
            rows = ["J2 chain = J2 ledger"]
            corrupted = dataclasses.replace(
                suite, J2_direct=build_iterated_jacobi(bad, suite.J2_direct.nrows))
        else:
            rows = ["H T = T (J2 - cI)^2", "R Rt = Tt T"]
            sob = SobolevLedger.build(bad, suite.sob.M, suite.sob.N, suite.sob.size)
            corrupted = dataclasses.replace(suite, sob=sob, T=build_T(sob, suite.T.nrows),
                                            H=build_H(sob, suite.H.nrows))
        wrong = {name: res for name, res, _ in verify_propositions(corrupted).as_rows()}
        assert all(clean[row] <= TOL30 < wrong[row] for row in rows)


class TestLedgerInputs:
    def test_size_zero_is_an_empty_ledger(self, kt):
        assert ChristoffelLedger.build(kt, 0).size == 0

    @pytest.mark.parametrize("size", [-2, True, 4.0])
    def test_size_must_be_a_nonnegative_integer(self, kt, size):
        with pytest.raises(InvalidParameterError):
            ChristoffelLedger.build(kt, size)


class TestFormedOnce:
    """A size-100, 256-bit build of the worked example through a logging kit
    forms each value that two formulas share once."""

    SIZE, PRECISION = 100, 256

    @pytest.fixture
    def kt(self):
        rec = MeasureSpec.laguerre(0).recurrence(self.SIZE + 2, self.PRECISION)
        return KernelTable.build(rec, -1)

    def test_each_wronskian_is_formed_once(self, kt, monkeypatch):
        calls = logged_kit(monkeypatch, self.PRECISION)
        ChristoffelLedger.build(kt, self.SIZE)
        products = Counter(tuple(map(id, args)) for name, args, _ in calls if name == "mul")
        jet = kt.cjets
        # W_k = P_{k+1}(c) P_k'(c) - P_{k+1}'(c) P_k(c): the denominator of
        # d_k and e_k and the numerator of e_{k-1}, for k = 0..size
        for k in range(self.SIZE + 1):
            (v0, d0), (v1, d1) = jet[k:k + 2]
            assert products[id(v1), id(d0)] == products[id(d1), id(v0)] == 1, k

    def test_each_kernel_ratio_root_is_formed_once(self, kt, monkeypatch):
        calls = logged_kit(monkeypatch, self.PRECISION)
        chris = ChristoffelLedger.build(kt, self.SIZE)
        SobolevLedger.build(chris, 1, 1, self.SIZE).auxiliary()
        quotients = [(args, q) for name, args, q in calls if name == "div"]
        roots = Counter(id(args[0]) for name, args, _ in calls if name == "sqrt")
        K = kt.K
        for n in range(self.SIZE):  # r2 reads rho_0..rho_{size-1}
            formed = [q for (a, b), q in quotients if a is K[n] and b is K[n + 1]]
            assert len(formed) == 1 and roots[id(formed[0])] == 1, n


class TestBuildGuards:
    """Each check of ``ChristoffelLedger.build`` raises on an input that trips it."""

    @pytest.mark.parametrize("index", [0, 1, 4])
    @pytest.mark.parametrize("precision", [64, 256])
    def test_kernel_entry_off_by_a_quarter_precision_trips_e_guard(self, precision, index):
        # K_i enters e_{i-1} (e_0 for i = 0) first, by e_n = ||P_{n+1}||^2 K_{n+1}
        # / (||P_n||^2 K_n).
        rec = MeasureSpec.laguerre(0).recurrence(10, precision)
        kt = KernelTable.build(rec, -1)
        K = scaled(kt.K, index, 1 + arith(precision).ctx.ldexp(1, -(precision // 4)), precision)
        with pytest.raises(NumericalFailureError, match=f"for e_{max(index - 1, 0)} "):
            ChristoffelLedger.build(dataclasses.replace(kt, K=K), 8)

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
