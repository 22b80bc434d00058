"""Shipped reference tables against both computation paths."""

from dataclasses import replace
from fractions import Fraction as F

import mpmath as mp
import pytest

from helpers import TOL30
from sobspec.core import MeasureSpec, SobolevSpec, SqrtRational
from sobspec.golden import (
    MATRIX_NAMES,
    compare_reference,
    computed_counterparts,
    load_reference,
)
from sobspec.matrices import MatrixSuite
from sobspec.oracle import build_oracle_suite, squared_entry_compare


@pytest.fixture(scope="module")
def reference():
    return load_reference()


@pytest.fixture(scope="module")
def float_suite(spec):
    return MatrixSuite.build(spec, size=8, guard=4, precision=256)


@pytest.fixture(scope="module")
def oracle_suite():
    return build_oracle_suite(0, -1, 1, 1, 6)


@pytest.fixture(scope="module")
def counts(reference, float_suite, oracle_suite):
    _, matrices = reference
    return compare_reference(matrices, computed_counterparts(float_suite), oracle_suite, TOL30)


class TestFixtureShape:
    def test_all_matrices_present(self, reference):
        config, matrices = reference
        assert set(matrices) == set(MATRIX_NAMES)
        assert config == {"family": "laguerre", "alpha": 0, "c": -1, "M": 1, "N": 1}

    def test_block_shapes(self, reference):
        _, matrices = reference
        assert matrices["J"].nrows == matrices["J"].ncols == 6
        for name in MATRIX_NAMES:
            if name != "J":
                assert matrices[name].nrows == matrices[name].ncols == 5
            gm = matrices[name]
            assert len(gm.entries) == gm.nrows * gm.ncols

    def test_known_squared_entries(self, reference):
        _, matrices = reference
        assert matrices["H"].entries[(0, 1)].square == F(121, 8)
        assert matrices["Q"].entries[(0, 0)].square == F(4, 5)
        assert matrices["T"].entries[(0, 0)].square == F(5, 2)
        assert matrices["R"].entries[(0, 1)].square == F(36, 5)
        assert matrices["J2_shift_sq"].entries[(0, 0)].square == F(169)


class TestOraclePath:
    def test_every_entry_matches_exactly(self, counts):
        assert list(counts) == list(MATRIX_NAMES)
        for name, (exact, _, total) in counts.items():
            assert exact == total, name


class TestFloatPath:
    def test_every_entry_within_1e30(self, counts):
        for name, (_, within, total) in counts.items():
            assert within == total, name

    def test_one_altered_entry_is_one_mismatch_on_each_path(
            self, reference, float_suite, oracle_suite):
        _, matrices = reference
        gm = matrices["H"]
        ref = gm.entries[(0, 1)]
        assert ref.sign == 1
        entries = dict(gm.entries)
        entries[(0, 1)] = SqrtRational(-1, ref.square + F(1, 8))
        altered = dict(matrices, H=replace(gm, entries=entries))
        counts = compare_reference(altered, computed_counterparts(float_suite),
                                   oracle_suite, TOL30)
        for name, (exact, within, total) in counts.items():
            missed = 1 if name == "H" else 0
            assert (exact, within) == (total - missed, total - missed), name

    def test_a_fraction_tolerance_counts_as_its_decimal(self, counts, reference, float_suite,
                                                        oracle_suite):
        _, matrices = reference
        computed = computed_counterparts(float_suite)
        for tol in (F(1, 10 ** 30), "1e-30"):
            assert compare_reference(matrices, computed, oracle_suite, tol) == counts

    def test_shift_of_a_wide_mass_point_is_converted_first(self):
        # -c of an mpf made at 300 bits, formed in the global context at 53
        # bits, would round to 53 bits and move (J2 - cI)^2.
        with mp.workprec(300):
            c = -mp.mpf(1) / 3
        with mp.workprec(53):
            wide = MatrixSuite.build(SobolevSpec(MeasureSpec.laguerre(0), c, 1, 1), 12,
                                     precision=256)
            got = computed_counterparts(wide)["J2_shift_sq"]
        exact = MatrixSuite.build(SobolevSpec(MeasureSpec.laguerre(0), F(-1, 3), 1, 1), 12,
                                  precision=256)
        assert got == computed_counterparts(exact)["J2_shift_sq"]

    def test_squared_entry_reports_all_pass(self, reference, float_suite):
        _, matrices = reference
        computed = computed_counterparts(float_suite)
        for name in MATRIX_NAMES:
            gm = matrices[name]
            floats = {key: computed[name].entry(*key) for key in gm.entries}
            report = squared_entry_compare(name, floats, gm.entries, 1e-29)
            assert report.all_ok, report.summary()
