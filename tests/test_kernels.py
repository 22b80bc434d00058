"""Reproducing kernels: the confluent summation table at c and the pointwise
sums that ``eval_sobolev`` reads, checked against exact sums of the
closed-form Laguerre polynomials."""

import math
import random
from fractions import Fraction as F

import mpmath as mp

from helpers import (TOL30, as_mpf, assert_rel, laguerre_monic, mpq, poly_deriv, poly_eval,
                     rel)
from sobspec.core import _jet_rows, arith, fields
from sobspec.kernels import KernelTable
from sobspec.sobolev import _kernel_sum

RNG_SEED = 90125


def jets(rec, n, x, order):
    """The raw jet rows of P_0..P_n at x, as eval_sobolev forms them."""
    return _jet_rows(rec, n, arith(rec.precision).of(x), order)


def kernel(rec, n, x, y, j=0):
    """K^(0,j)_n(x, y) by eval_sobolev's sum over the jets at x and at y."""
    return _kernel_sum(rec, n, jets(rec, n, x, 0), jets(rec, n, y, 1), j)


def exact_kernel(n, x, y, j=0):
    """The same sum in Fractions, from the closed form (alpha = 0)."""
    total = F(0)
    for k in range(n + 1):
        P = laguerre_monic(0, k)
        total += poly_eval(P, x) * poly_eval(poly_deriv(P) if j else P, y) / math.factorial(k) ** 2
    return total


class TestKernelSum:
    def test_order_zero_is_one(self, rec):
        assert kernel(rec, 0, 2.0, -3.0) == 1

    def test_diagonal_values_at_mass_point(self, rec):
        assert kernel(rec, 1, -1, -1) == 5
        assert_rel(kernel(rec, 2, -1, -1), mp.mpf(69) / 4)

    def test_symmetry(self, rec):
        rng = random.Random(RNG_SEED)
        for _ in range(5):
            x, y = rng.uniform(0, 10), rng.uniform(0, 10)
            assert kernel(rec, 7, x, y) == kernel(rec, 7, y, x)

    def test_matches_exact_summation(self, rec):
        rng = random.Random(RNG_SEED + 1)
        for n in range(21):
            x, y = rng.uniform(0, 10), rng.uniform(0, 10)
            assert rel(kernel(rec, n, x, y), mpq(exact_kernel(n, F(x), F(y)))) <= TOL30

    def test_near_diagonal_matches_christoffel_darboux(self, rec):
        # The direct sum needs no division by x - y, so it keeps full accuracy
        # where (P_11(x) P_10(y) - P_10(x) P_11(y)) / (||P_10||^2 (x - y)) cancels.
        x, y = F(4), 4 + F(1, 2 ** 40)
        P10, P11 = laguerre_monic(0, 10), laguerre_monic(0, 11)
        cd = ((poly_eval(P11, x) * poly_eval(P10, y) - poly_eval(P10, x) * poly_eval(P11, y))
              / (math.factorial(10) ** 2 * (x - y)))
        assert cd == exact_kernel(10, x, y)
        assert rel(kernel(rec, 10, mpq(x), mpq(y)), mpq(cd)) <= TOL30

    def test_derivative_order_zero_vanishes(self, rec):
        assert kernel(rec, 0, 5.0, -1, j=1) == 0

    def test_derivative_first_orders_by_direct_summation(self, rec):
        assert kernel(rec, 1, 0.0, -1, j=1) == -1
        assert kernel(rec, 2, 0.0, -1, j=1) == -4

    def test_derivative_at_c_matches_exact_summation(self, rec, kt):
        # eval_sobolev's reading: the jets at c are the table's rows.
        rng = random.Random(RNG_SEED + 2)
        for n in range(1, 21):
            x = rng.uniform(0, 10)
            got = _kernel_sum(rec, n, jets(rec, n, x, 0), kt.cjets, 1)
            assert rel(got, mpq(exact_kernel(n, F(x), F(-1), j=1))) <= TOL30

    def test_confluent_values_match_table(self, rec, kt):
        # At x = c both pointwise sums are the table's confluent values.
        table = as_mpf(kt)
        for n in range(rec.size):
            assert rel(_kernel_sum(rec, n, kt.cjets, kt.cjets, 0), table.K[n]) <= TOL30
            assert rel(_kernel_sum(rec, n, kt.cjets, kt.cjets, 1), table.K01[n]) <= TOL30


class TestConfluents:
    def test_degree_zero(self, kt):
        kt = as_mpf(kt)
        assert kt.K[0] == 1 and kt.K01[0] == 0 and kt.K11[0] == 0

    def test_degree_one(self, kt):
        kt = as_mpf(kt)
        assert kt.K[1] == 5 and kt.K01[1] == -2 and kt.K11[1] == 1

    def test_diagonal_monotone_increasing(self, kt):
        kt = as_mpf(kt)
        for n in range(1, kt.size):
            assert kt.K[n] > kt.K[n - 1]

    def test_evaluation_gram_is_psd(self, kt):
        kt = as_mpf(kt)
        # det of [[K, K01], [K01, K11]] is nonnegative (zero at degree 0).
        for n in range(kt.size):
            det = kt.K[n] * kt.K11[n] - kt.K01[n] ** 2
            assert det >= -TOL30

    def test_confluent_values_match_table(self, kt):
        # K^(i,j)_n(c, c) = sum_{k<=n} P_k^(i)(c) P_k^(j)(c) / (k!)^2 for
        # alpha = 0, summed exactly from the closed form at c = -1.
        kt = as_mpf(kt)
        K = K01 = K11 = F(0)
        for n in range(kt.size):
            P = laguerre_monic(0, n)
            v, dv, h = poly_eval(P, -1), poly_eval(poly_deriv(P), -1), math.factorial(n) ** 2
            K, K01, K11 = K + v * v / h, K01 + v * dv / h, K11 + dv * dv / h
            for got, exact in ((kt.K[n], K), (kt.K01[n], K01), (kt.K11[n], K11)):
                assert rel(got, mpq(exact)) <= TOL30

    def test_kernel_ratio_roots_are_no_field(self, kt):
        # LEDGER_DIGESTS hash every field of the table, so rho is none
        assert fields(KernelTable) == (
            "rec", "c", "K", "K01", "K11", "cjets")
        kit, K = arith(kt.rec.precision), kt.K
        assert kt.rho == tuple(kit.sqrt(kit.div(K[n], K[n + 1])) for n in range(kt.size - 1))
