"""Reproducing kernels: the summation table at c and the pointwise closed forms."""

import random

import mpmath as mp
import pytest

from helpers import TOL30, assert_rel, rel
from sobspec.errors import ConfluentPointError
from sobspec.kernels import kernel_at, kernel_dy_at_c

RNG_SEED = 90125


class TestKernelAt:
    def test_order_zero_is_one(self, rec):
        assert kernel_at(rec, 0, 2.0, -3.0) == 1

    def test_diagonal_values_at_mass_point(self, rec):
        assert kernel_at(rec, 1, -1, -1) == 5
        assert_rel(kernel_at(rec, 2, -1, -1), mp.mpf(69) / 4)

    def test_symmetry(self, rec):
        rng = random.Random(RNG_SEED)
        for _ in range(5):
            x, y = rng.uniform(0, 10), rng.uniform(0, 10)
            assert kernel_at(rec, 7, x, y) == kernel_at(rec, 7, y, x)

    def test_quotient_matches_summation(self, rec):
        rng = random.Random(RNG_SEED + 1)
        with mp.workprec(rec.precision):
            for n in range(21):
                x, y = rng.uniform(0, 10), rng.uniform(0, 10)
                summed = mp.fsum(
                    (rec.leading[k] ** 2)
                    * mp.mpf(1) * _monic(rec, k, x) * _monic(rec, k, y)
                    for k in range(n + 1)
                )
                assert rel(kernel_at(rec, n, x, y), summed) <= TOL30

    def test_near_diagonal_switch(self, rec):
        x = mp.mpf(4)
        close = x + mp.mpf("1e-12")
        direct = kernel_at(rec, 10, x, close)
        summed = mp.fsum(
            (rec.leading[k] ** 2) * _monic(rec, k, x) * _monic(rec, k, close)
            for k in range(11)
        )
        assert rel(direct, summed) <= TOL30

    def test_index_bound(self, rec):
        with pytest.raises(IndexError):
            kernel_at(rec, rec.size - 1, 0.0, 1.0)


def _monic(rec, k, x):
    from sobspec.core import monic_value

    return monic_value(rec, k, x)


class TestKernelDy:
    def test_order_zero_vanishes(self, rec):
        assert kernel_dy_at_c(rec, 0, 5.0, -1) == 0

    def test_first_orders_by_direct_summation(self, rec):
        assert kernel_dy_at_c(rec, 1, 0.0, -1) == -1
        assert kernel_dy_at_c(rec, 2, 0.0, -1) == -4

    def test_closed_form_matches_summation(self, rec, kt):
        rng = random.Random(RNG_SEED + 2)
        with mp.workprec(rec.precision):
            for n in range(1, 21):
                x = mp.mpf(rng.uniform(0, 10))
                summed = mp.fsum(
                    (rec.leading[k] ** 2) * _monic(rec, k, x) * kt.cjets.jet(k, 1)
                    for k in range(n + 1)
                )
                assert rel(kernel_dy_at_c(rec, n, x, -1), summed) <= TOL30

    def test_confluent_point_rejected(self, rec):
        with pytest.raises(ConfluentPointError):
            kernel_dy_at_c(rec, 3, -1.0, -1)


class TestConfluents:
    def test_degree_zero(self, kt):
        assert kt.K[0] == 1 and kt.K01[0] == 0 and kt.K11[0] == 0

    def test_degree_one(self, kt):
        assert kt.K[1] == 5 and kt.K01[1] == -2 and kt.K11[1] == 1

    def test_diagonal_monotone_increasing(self, kt):
        for n in range(1, kt.size):
            assert kt.K[n] > kt.K[n - 1]

    def test_evaluation_gram_is_psd(self, kt):
        # det of [[K, K01], [K01, K11]] is nonnegative (zero at degree 0).
        for n in range(kt.size):
            det = kt.K[n] * kt.K11[n] - kt.K01[n] ** 2
            assert det >= -TOL30
