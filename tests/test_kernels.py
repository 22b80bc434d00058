"""Reproducing kernels: the summation table at c and the pointwise direct sums,
checked against independent sums of monic values and a 512-bit reference."""

import random

import mpmath as mp
import pytest

from helpers import PAIR_IDS, PAIRS, TOL30, assert_rel, rel
from sobspec.core import MeasureSpec, context, eval_jet
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

    def test_matches_monic_summation(self, rec):
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

    def test_near_diagonal_matches_summation(self, rec):
        x = mp.mpf(4)
        close = x + mp.mpf("1e-12")
        direct = kernel_at(rec, 10, x, close)
        summed = mp.fsum(
            (rec.leading[k] ** 2) * _monic(rec, k, x) * _monic(rec, k, close)
            for k in range(11)
        )
        assert rel(direct, summed) <= TOL30

    def test_index_bound(self, rec):
        # The sum reads P_0..P_n only, so the last row of the table is valid.
        assert kernel_at(rec, rec.size - 1, 1.0, 1.0) > 0
        for n in (-1, rec.size):
            with pytest.raises(IndexError):
                kernel_at(rec, n, 0.0, 1.0)


def _monic(rec, k, x):
    from sobspec.core import monic_value

    return monic_value(rec, k, x)


class TestKernelDy:
    def test_order_zero_vanishes(self, rec):
        assert kernel_dy_at_c(rec, 0, 5.0, -1) == 0

    def test_first_orders_by_direct_summation(self, rec):
        assert kernel_dy_at_c(rec, 1, 0.0, -1) == -1
        assert kernel_dy_at_c(rec, 2, 0.0, -1) == -4

    def test_matches_monic_summation(self, rec, kt):
        rng = random.Random(RNG_SEED + 2)
        with mp.workprec(rec.precision):
            for n in range(1, 21):
                x = mp.mpf(rng.uniform(0, 10))
                summed = mp.fsum(
                    (rec.leading[k] ** 2) * _monic(rec, k, x) * kt.cjets.jet(k, 1)
                    for k in range(n + 1)
                )
                assert rel(kernel_dy_at_c(rec, n, x, -1), summed) <= TOL30

    def test_confluent_values_match_table(self, rec, kt):
        # At x = c both pointwise sums are the table's confluent values.
        for n in range(rec.size):
            assert rel(kernel_at(rec, n, -1, -1), kt.K[n]) <= TOL30
            assert rel(kernel_dy_at_c(rec, n, -1, -1), kt.K01[n]) <= TOL30


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


class TestNearMassPoint:
    @pytest.mark.parametrize("alpha, c", PAIRS, ids=PAIR_IDS)
    def test_full_accuracy_at_64_bits(self, alpha, c):
        # However close x is to c, both kernels at 64 bits stay within
        # 2^(8-p) relative of a 512-bit direct sum at the same x.
        p, size = 64, 32
        low = MeasureSpec.laguerre(alpha).recurrence(size, precision=p)
        high = MeasureSpec.laguerre(alpha).recurrence(size, precision=512)
        ctx = context(p)
        bound = ctx.ldexp(1, 8 - p)
        jc = eval_jet(high, size - 1, c, order=1)
        for offset in ("3e-8", "1e-6", "1e-4"):
            x = ctx.mpf(c.numerator) / c.denominator + ctx.mpf(offset)
            jx = eval_jet(high, size - 1, x, order=0)
            for n in (5, 15, 30):
                with mp.workprec(512):
                    ref = mp.fsum(jx.jet(k) * jc.jet(k) / high.norm_sq[k] for k in range(n + 1))
                    ref01 = mp.fsum(jx.jet(k) * jc.jet(k, 1) / high.norm_sq[k]
                                    for k in range(n + 1))
                    assert abs(kernel_at(low, n, x, c) - ref) / abs(ref) <= bound
                    assert abs(kernel_dy_at_c(low, n, x, c) - ref01) / abs(ref01) <= bound
