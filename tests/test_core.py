"""Recurrence tables, jets, the scalar kits and precision as a value."""

import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from math import isqrt

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (ComplexResult, finf, fnan, fninf, fnone, fone, from_man_exp,
                          from_rational, fzero, mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_neg,
                          mpf_sqrt, mpf_sub, round_nearest)

from helpers import (as_mpf, assert_rel, fraction, fractions, laguerre_monic, moment_inner,
                     mpq, poly_eval, reflected_laguerre, rel)
from sobspec import core
from sobspec.core import (
    EXACT,
    MeasureSpec,
    SobolevSpec,
    SqrtRational,
    arith,
    eval_jet,
)
from sobspec.errors import InvalidParameterError
from sobspec.kernels import KernelTable
from sobspec.matrices import MatrixSuite, verify_propositions
from sobspec.serialize import ledgers_to_doc, matrix_from_json, matrix_to_json


class TestLaguerreRecurrence:
    def test_jacobi_entries_alpha0(self, rec):
        rec = as_mpf(rec)
        assert [int(b) for b in rec.beta[:6]] == [1, 3, 5, 7, 9, 11]
        assert [int(g) for g in rec.gamma[:5]] == [0, 1, 4, 9, 16]
        assert_rel(mp.sqrt(rec.gamma[3]), mp.mpf(3))

    def test_alpha_one_against_moment_oracle(self):
        # The moments (n+1)! give beta_1 = <x P_1, P_1>/<P_1, P_1> = 4 and
        # gamma_1 = <P_1, P_1>/<P_0, P_0> = 2.
        r1 = as_mpf(MeasureSpec.laguerre(1).recurrence(6))
        assert r1.beta[1] == 4
        assert r1.gamma[1] == 2
        p0, p1 = laguerre_monic(1, 0), laguerre_monic(1, 1)
        h1 = moment_inner(1, p1, p1)
        assert moment_inner(1, [0] + p1, p1) / h1 == 4 and h1 / moment_inner(1, p0, p0) == 2

    def test_norm_seed_is_gamma_function(self):
        assert as_mpf(MeasureSpec.laguerre(0).recurrence(3)).norm_sq[0] == 1
        assert_rel(as_mpf(MeasureSpec.laguerre(0.5).recurrence(3)).norm_sq[0], mp.gamma(1.5))

    def test_norm_ratio_identity(self, rec):
        rec = as_mpf(rec)
        for n in range(1, rec.size):
            assert_rel(rec.norm_sq[n] / rec.norm_sq[n - 1], rec.gamma[n])

    def test_leading_positive_and_consistent(self, rec):
        rec = as_mpf(rec)
        for n in range(rec.size):
            assert rec.leading[n] > 0
            assert_rel(rec.leading[n] ** 2 * rec.norm_sq[n], mp.mpf(1))

    @pytest.mark.parametrize("alpha", [-1, -2, -1.0001, float("inf"), float("nan"), "1"])
    def test_alpha_validation(self, alpha):
        with pytest.raises(InvalidParameterError):
            MeasureSpec.laguerre(alpha)

    def test_size_validation(self):
        with pytest.raises(InvalidParameterError):
            MeasureSpec.laguerre(0).recurrence(0)

    @pytest.mark.parametrize("size, precision", [(4.0, 256), ("4", 256), (None, 256),
                                                 (4, "256"), (4, 100.5), (4, None), (4, 0),
                                                 (True, 256), (4, True), (4, 1.5),
                                                 (4, float("-inf")), (4, float("nan"))])
    def test_size_and_precision_must_be_integers(self, size, precision):
        # A precision of "256" would otherwise make a context apart from arith(256).ctx;
        # the one precision that is no int is EXACT.
        with pytest.raises(InvalidParameterError):
            MeasureSpec.laguerre(0).recurrence(size, precision)
        with pytest.raises(InvalidParameterError):
            reflected_laguerre(8).recurrence(size, precision)


class TestExactRecurrence:
    """``MeasureSpec.recurrence`` at ``EXACT``: the one table the oracle reads."""

    def test_custom_fractions_are_reproduced_exactly(self):
        beta = [F(1, 3), F(-2, 7), F(5), F(0)]
        gamma = [F(0), F(3, 4), F(2, 9), F(11, 5)]
        rec = MeasureSpec.custom(beta, gamma, (-2, 2), norm0_sq=F(7, 3)).recurrence(4, EXACT)
        assert fractions(rec.beta) == tuple(beta)
        assert fractions(rec.gamma) == tuple(gamma)
        assert fractions(rec.norm_sq) == (F(7, 3), F(7, 4), F(7, 18), F(77, 90))
        assert all(r * r * h == 1 for r, h in zip(rec.leading, rec.norm_sq))

    @pytest.mark.parametrize("alpha", [0, 1, 2, 3.0])
    def test_integer_laguerre_rounds_to_the_mpf_table(self, alpha):
        exact, table = (MeasureSpec.laguerre(alpha).recurrence(12, p) for p in (EXACT, 256))
        kit = arith(256)
        for field in ("beta", "gamma", "norm_sq"):
            assert [kit.of(v) for v in fractions(getattr(exact, field))] == list(
                getattr(table, field))


class TestCustomMeasure:
    def test_reflected_laguerre_table(self):
        table = as_mpf(reflected_laguerre(8).recurrence(8))
        assert table.beta[0] == -1
        assert table.norm_sq[2] == 4

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            MeasureSpec.custom(beta=[0, 0], gamma=[0], support=(-1, 1))

    def test_nonpositive_gamma(self):
        with pytest.raises(InvalidParameterError):
            MeasureSpec.custom(beta=[0, 0], gamma=[0, -1], support=(-1, 1))

    @pytest.mark.parametrize("change", [
        {"norm0_sq": -1}, {"norm0_sq": 0}, {"norm0_sq": "x"}, {"norm0_sq": float("nan")},
        {"gamma": [0, float("inf")]}, {"gamma": [0, "1"]}, {"beta": [0, float("nan")]},
        {"beta": [0, "1"]}, {"support": (0,)}, {"support": (0, float("-inf"))},
        {"support": (1, 1)}, {"support": (0, 1, 2)}, {"support": ("a", "b")},
    ], ids=repr)
    def test_invalid_custom_data(self, change):
        # Each used to escape as another error, or (a reversed support) to pass.
        data = {"beta": [0, 0], "gamma": [0, 1], "support": (-1, 1), "norm0_sq": 1}
        with pytest.raises(InvalidParameterError):
            MeasureSpec.custom(**{**data, **change})

    def test_wide_mpf_coefficients_round_to_the_build_precision(self):
        # beta_n = -(2n+1) + 1/3 made at 1024 bits and built at 64: every
        # stored raw value has at most 64 bits, so J's file round-trips.
        third = arith(1024).ctx.mpf(1) / 3
        rows = 6 + 4 + 5
        measure = MeasureSpec.custom([-(2 * n + 1) + third for n in range(rows)],
                                     [n * n for n in range(rows)], (float("-inf"), 0.0))
        suite = MatrixSuite.build(SobolevSpec(measure, c=1, M=1, N=1), 6, precision=64)
        assert all(b[3] <= 64 for b in suite.sob.chris.kt.rec.beta)
        text = matrix_to_json("J", suite.J)
        assert matrix_to_json("J", matrix_from_json(text)[1]) == text

    def test_table_larger_than_supplied(self):
        with pytest.raises(InvalidParameterError):
            reflected_laguerre(4).recurrence(9)


class TestSobolevSpec:
    def test_mass_point_must_be_outside_support(self):
        with pytest.raises(InvalidParameterError):
            SobolevSpec(MeasureSpec.laguerre(0), c=1, M=1, N=1)

    def test_boundary_point_rejected(self):
        with pytest.raises(InvalidParameterError):
            SobolevSpec(MeasureSpec.laguerre(0), c=0, M=1, N=1)

    def test_negative_masses_rejected(self):
        with pytest.raises(InvalidParameterError):
            SobolevSpec(MeasureSpec.laguerre(0), c=-1, M=-1, N=0)

    @pytest.mark.parametrize("field, value", [
        ("c", float("-inf")), ("c", float("nan")), ("c", mp.mpf("-inf")),
        ("M", float("inf")), ("M", mp.mpf("nan")), ("N", float("inf")),
        ("c", "-1"), ("M", "1"), ("N", None), ("c", mp.mpc(-1, 1)),
    ])
    def test_non_finite_or_non_numeric_rejected(self, field, value):
        params = {"c": -1, "M": 1, "N": 1, field: value}
        with pytest.raises(InvalidParameterError):
            SobolevSpec(MeasureSpec.laguerre(0), **params)

    def test_side_detection(self):
        left = SobolevSpec(MeasureSpec.laguerre(0), c=-1, M=1, N=1)
        right = SobolevSpec(reflected_laguerre(6), c=1, M=1, N=1)
        assert left.side == "left" and right.side == "right"


class TestEvalJet:
    def test_first_degrees_at_mass_point(self, rec):
        j = eval_jet(rec, 2, -1)
        assert j[1][0] == -2  # P_1 = x - 1
        assert j[2][0] == 7   # P_2 = x^2 - 4x + 2 by forward recurrence
        assert j[2][2] == 2   # second derivative of a monic quadratic

    def test_degree_three_values(self, rec):
        j = eval_jet(rec, 3, -1)
        assert j[3][0] == -34
        assert j[3][1] == 39
        assert j[3][2] == -24
        assert j[3][3] == 6

    def test_jet_vanishes_above_degree(self, rec):
        j = eval_jet(rec, 2, 0.3)
        assert j[0][1] == 0 and j[1][2] == 0 and j[2][3] == 0

    @pytest.mark.parametrize("alpha", [0, 2.5])
    @pytest.mark.parametrize("order", range(4))
    @pytest.mark.parametrize("n", [0, 1])
    def test_first_rows_at_beta0_are_exact(self, n, order, alpha):
        # At x = beta_0 the first step from the zero row P_-1 gives P_1 = 0
        # and P_1' = 1 exactly; a row holds derivatives up to the order only.
        table = MeasureSpec.laguerre(alpha).recurrence(4, precision=64)
        rows = eval_jet(table, n, table.beta[0], order)
        exact = ((fone, fzero, fzero, fzero), (fzero, fone, fzero, fzero))
        assert [[v._mpf_ for v in row] for row in rows] == [
            list(row[:order + 1]) for row in exact[:n + 1]]
        with pytest.raises(IndexError):
            rows[n][order + 1]

    def test_monic_against_exact_oracle(self, rec):
        for n in range(7):
            for x in (F(-1), F(0), F(3, 2), F(10)):
                exact = poly_eval(laguerre_monic(0, n), x)
                assert_rel(eval_jet(rec, n, mpq(x), order=0)[n][0], mpq(exact))

    def test_index_and_order_validation(self, rec):
        with pytest.raises(IndexError):
            eval_jet(rec, rec.size, 0.0)
        with pytest.raises(InvalidParameterError):
            eval_jet(rec, 2, 0.0, order=4)

    def test_derivatives_match_finite_differences_at_double_precision(self):
        table = MeasureSpec.laguerre(0).recurrence(12, precision=53)
        rng = random.Random(8125)
        with mp.workprec(53):
            for _ in range(8):
                x = mp.mpf(rng.uniform(0.5, 10.0))
                h = mp.mpf(1e-6) * (1 + abs(x))
                up = eval_jet(table, 9, x + h, order=0)
                dn = eval_jet(table, 9, x - h, order=0)
                mid = eval_jet(table, 9, x, order=1)
                for n in range(2, 10):
                    fd = (up[n][0] - dn[n][0]) / (2 * h)
                    scale = max(mp.mpf(1), abs(mid[n][1]))
                    assert abs(fd - mid[n][1]) / scale <= mp.mpf("1e-8")

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(min_value=-5, max_value=25, allow_nan=False),
           alpha=st.sampled_from([0, 0.5, 1, 3]))
    def test_recurrence_identity_property(self, x, alpha):
        table = MeasureSpec.laguerre(alpha).recurrence(10)
        with mp.workprec(table.precision):
            j = eval_jet(table, 9, x, order=1)
            table = as_mpf(table)
            for k in range(1, 9):
                lhs = mp.mpf(x) * j[k][0]
                rhs = j[k + 1][0] + table.beta[k] * j[k][0] + table.gamma[k] * j[k - 1][0]
                assert rel(lhs, rhs) <= mp.mpf("1e-65")
                # differentiated once: x P'_k + P_k = P'_{k+1} + beta_k P'_k + gamma_k P'_{k-1}
                lhs1 = mp.mpf(x) * j[k][1] + j[k][0]
                rhs1 = j[k + 1][1] + table.beta[k] * j[k][1] + table.gamma[k] * j[k - 1][1]
                assert rel(lhs1, rhs1) <= mp.mpf("1e-65")


class TestOrthonormalValue:
    # p_n = r_n P_n, the leading coefficient times the monic value: the
    # orthonormal value the Sobolev ledger's connection coefficients read.
    @staticmethod
    def value(rec, n, x):
        return as_mpf(rec).leading[n] * eval_jet(rec, n, x, order=0)[n][0]

    def test_constant(self, rec):
        assert self.value(rec, 0, 17.3) == 1

    def test_first_degree(self, rec):
        assert self.value(rec, 1, -1) == -2

    def test_second_degree(self, rec):
        assert_rel(self.value(rec, 2, -1), mp.mpf(7) / 2)


def test_results_do_not_depend_on_ambient_precision():
    # Build and evaluate under a 53-bit ambient context; the table carries its
    # own 256-bit precision and must deliver full accuracy anyway.
    with mp.workprec(53):
        table = MeasureSpec.laguerre(0).recurrence(10)
        j = eval_jet(table, 9, 3.25, order=0)
    table = as_mpf(table)
    with mp.workprec(320):
        for k in range(1, 9):
            lhs = mp.mpf("3.25") * j[k][0]
            rhs = j[k + 1][0] + table.beta[k] * j[k][0] + table.gamma[k] * j[k - 1][0]
            assert rel(lhs, rhs) <= mp.mpf("1e-65")


def test_threads_at_mixed_precisions_match_a_serial_run(spec):
    # Four threads build the worked example six times each, alternating 64
    # and 512 bits; a short switch interval interleaves the builds finely.
    def serialized(precision):
        suite = MatrixSuite.build(spec, size=8, guard=4, precision=precision)
        return ([matrix_to_json(name, m) for name, m in suite.named_matrices().items()]
                + [json.dumps(ledgers_to_doc(suite))])

    precisions = (64, 512)
    serial = {p: serialized(p) for p in precisions}
    barrier = threading.Barrier(4)

    def worker(k):
        barrier.wait(timeout=60)
        return [(p, serialized(p)) for p in (precisions[(k + r) % 2] for r in range(6))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [run for runs in pool.map(worker, range(4), timeout=120)
                    for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == 24
    for p, out in runs:
        assert out == serial[p], p


def kit_cases(sqrt, x, y, root):
    """(op of the scalar kit, its arguments as scalars, the result of the
    scalar operation it stands for), with y != 0 and root >= 0."""
    return [("add", (x, y), x + y), ("sub", (x, y), x - y), ("mul", (x, y), x * y),
            ("div", (x, y), x / y), ("neg", (x,), -x), ("sqrt", (root,), sqrt(root)),
            ("mul", (x, x), x ** 2)]


def kit_comparisons(zero, x, y):
    """(arguments of the kit's ``gt`` as scalars, the scalar ``>``), both
    ways round and against zero, as the chain's positivity guard asks."""
    return [((a, b), a > b) for a, b in ((x, y), (y, x), (x, x), (x, zero), (zero, x))]


def kit_result(kit, name, args):
    """The kit's ``name`` on the raw values of ``args``, wrapped back."""
    return kit.wrap([getattr(kit, name)(*map(kit.of, args))])[0]


MPF_PARTS = st.tuples(st.integers(-(1 << 1100), 1 << 1100), st.integers(-400, 400))


def nearest(q, p):
    """The ``_mpf_`` of the dyadic Fraction q rounded to nearest at p bits,
    ties to even: the reference of the kit's add, sub, mul and div."""
    if not q:
        return fzero
    exp = abs(q.numerator).bit_length() - q.denominator.bit_length() - p
    while abs(q) >= F(2) ** (exp + p):
        exp += 1
    while abs(q) < F(2) ** (exp + p - 1):
        exp -= 1
    man, rest = divmod(abs(q) / F(2) ** exp, 1)
    if rest > F(1, 2) or rest == F(1, 2) and man & 1:
        man += 1
    return from_man_exp(-man if q < 0 else man, exp)


def nearest_sqrt(q, p):
    """The ``_mpf_`` of sqrt(q), q a dyadic Fraction >= 0, rounded to nearest
    at p bits: the floor root of q * 4**k has at least p + 4 bits, so its
    fractional part only decides on which side of a rounding point it lies."""
    k = q.denominator.bit_length() + 2 * p + 8
    n = int(q * 4 ** k)
    root = isqrt(n)
    if root * root == n:
        return nearest(F(root, 2 ** k), p)
    return nearest(F(2 * root + 1, 2 ** (k + 1)), p)


def edge_cases(p):
    """(kit operation, operands as (man, exp)) at p bits, every operand of at
    most p bits: the cases where a rounding kernel goes wrong first."""
    top, half = 1 << p, 1 << p // 2
    cases = [
        # ties to even, both ways: 2^p + 1 -> 2^p, 2^p + 3 -> 2^p + 4
        ("add", (top // 2, 1), (1, 0)), ("add", (top // 2, 1), (3, 0)),
        ("sub", (-top // 2, 1), (1, 0)), ("sub", (-top // 2, 1), (3, 0)),
        ("mul", (top // 2 + 1, 0), (3, 0)), ("mul", (top // 2 + 3, 0), (-3, 0)),
        # a carry to 2^p: 2^(p+1) - 1 rounds up to 2^(p+1)
        ("add", (top - 1, 1), (1, 0)), ("sub", (top - 1, 1), (-1, 0)),
        # products that fit in p bits, and one that needs p more
        ("mul", (3, 0), (5, 0)), ("mul", (half - 1, 3), (-(half + 1), -9)),
        ("mul", (top - 1, 0), (top - 1, 0)),
        # sums that cancel to 0 or to a few bits
        ("sub", (top - 1, 0), (top - 1, 0)), ("add", (top - 1, -5), (-(top - 1), -5)),
        ("sub", (top - 1, 0), (top - 3, 0)), ("add", (top - 1, -5), (2 - top, -5)),
        ("sub", (top - 1, 3), (top - 1, 2)),
        # division by a power of two, exact and inexact quotients
        ("div", (top - 1, 0), (1, 7)), ("div", (1 - top, 3), (-1, -9)),
        ("div", (15, 0), (5, 0)), ("div", (top - 1, 0), (top - 1, 4)),
        ("div", (1, 0), (3, 0)), ("div", (2, 0), (-3, 0)), ("div", (top - 1, 0), (top - 3, 0)),
        # square roots of exact squares, of odd exponents and of 1
        ("sqrt", (9, 0)), ("sqrt", ((half - 1) ** 2, -2 * p)), ("sqrt", (1, 0)),
        ("sqrt", (1, -3)), ("sqrt", (9, 5)), ("sqrt", (top - 1, -p - 1)), ("sqrt", (2, 0)),
        ("sqrt", (top - 1, 0)), ("sqrt", (1, 2 * p + 1)),
        ("neg", (top - 1, 0)), ("neg", (-1, 5)),
    ]
    # add offsets at the far-path boundary (libmp's sticky bit takes over for
    # an offset above 100 with the leading bits more than p + 4 apart) and at
    # p + 4, both ways round and both signs
    for k in (100, 101, p + 3, p + 4, p + 5):
        for big, small in (((1, 0), (1, -k)), ((1 - top, 0), (1, -k - p)),
                           ((top - 1, 0), (-3, -k - p))):
            cases += [("add", big, small), ("add", small, big), ("sub", big, small),
                      ("sub", small, big)]
    return cases


def numbers_of_every_kind(p):
    """Ints and the parts of Fractions up to 2p bits, floats, decimal strings,
    and mpf of 4p bits."""
    wide, big = arith(4 * p).ctx, 1 << 2 * p
    decimal = st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-", "+"]),
                        st.integers(0, 10 ** 40), st.integers(0, 10 ** 60),
                        st.integers(-400, 400))
    mpf = st.builds(lambda man, exp: wide.ldexp(wide.mpf(man), exp),
                    st.integers(-(1 << 4 * p), 1 << 4 * p), st.integers(-400, 400))
    return st.one_of(st.integers(-big, big), st.floats(allow_nan=False, allow_infinity=False),
                     decimal, st.builds(F, st.integers(-big, big), st.integers(1, big)), mpf)


class TestArith:
    """``arith(p)`` computes on raw values with the bits of the scalar
    operators of ``arith(p).ctx``."""

    @pytest.mark.parametrize("precision", [53, 64, 256, 1024])
    @settings(max_examples=60, deadline=None)
    @given(xp=MPF_PARTS, yp=MPF_PARTS)
    def test_mpf_kit_has_the_bits_of_mpf_operators(self, precision, xp, yp):
        ctx, kit = arith(precision).ctx, arith(precision)
        x, y = (ctx.ldexp(ctx.mpf(man), exp) for man, exp in (xp, yp))
        assume(y != 0)
        for name, args, want in kit_cases(ctx.sqrt, x, y, abs(x)):
            assert kit_result(kit, name, args)._mpf_ == want._mpf_, name
        for args, want in kit_comparisons(ctx.zero, x, y):
            assert kit.gt(*map(kit.of, args)) is want, args

    @pytest.mark.parametrize("precision", [53, 64, 113, 256, 1024])
    def test_mpf_kit_rounds_the_edge_cases_to_nearest_even(self, precision):
        # each result equals both the exact value rounded to nearest even and
        # the mpf operator's (libmp's) bits
        ctx, kit = arith(precision).ctx, arith(precision)
        operator_of = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
                       "mul": lambda x, y: x * y, "div": lambda x, y: x / y,
                       "sqrt": ctx.sqrt, "neg": lambda x: -x}
        for name, *parts in edge_cases(precision):
            raws = [from_man_exp(man, exp) for man, exp in parts]
            assert all(bc <= precision for *_, bc in raws), (name, parts)
            exact = [F(man) * F(2) ** exp for man, exp in parts]
            got = getattr(kit, name)(*raws)
            assert got == operator_of[name](*map(ctx.make_mpf, raws))._mpf_, (name, parts)
            if name == "sqrt":
                assert got == nearest_sqrt(exact[0], precision), (name, parts)
            else:
                want = -exact[0] if name == "neg" else operator_of[name](*exact)
                assert got == nearest(want, precision), (name, parts)

    @pytest.mark.parametrize("precision", [53, 64, 113, 256, 1024])
    def test_mpf_kit_takes_libmp_verdicts_on_zero_inf_and_nan(self, precision):
        # every pairing of zero, inf, nan, finite values and values wider than
        # the precision gives libmp's result or libmp's exception
        kit = arith(precision)
        values = [fzero, finf, fninf, fnan, fone, fnone, from_man_exp(3, -precision - 9),
                  from_man_exp((1 << 2 * precision) - 1, -precision),
                  from_man_exp(-(1 << precision) - 1, 5)]

        def outcome(f, *args):
            try:
                return f(*args)
            except (ZeroDivisionError, ComplexResult) as exc:
                return type(exc)

        p, rnd = precision, round_nearest
        libmp = {"add": mpf_add, "sub": mpf_sub, "mul": mpf_mul, "div": mpf_div}
        for x in values:
            for y in values:
                for name, f in libmp.items():
                    want = outcome(f, x, y, p, rnd)
                    assert outcome(getattr(kit, name), x, y) == want, (name, x, y)
            assert outcome(kit.sqrt, x) == outcome(mpf_sqrt, x, p, rnd), x
            assert kit.neg(x) == mpf_neg(x, p, rnd), x
        assert outcome(kit.sqrt, fnone) is ComplexResult
        assert outcome(kit.div, fone, fzero) is ZeroDivisionError
        assert outcome(kit.div, fzero, fzero) is ZeroDivisionError

    @pytest.mark.parametrize("M, N", [(1, 1), (0, 1), (1, 0)])
    def test_a_build_takes_the_kernel_for_every_finite_operand(self, M, N, monkeypatch):
        # core's libmp calls raise when every operand is finite (a nonzero
        # mantissa, or the exponent 0 of an exact zero), so a size-100 build
        # and its verification compute without them; a zero mass makes zero
        # products and sums
        def strict(f):
            def call(*args):
                if all(x[1] or not x[2] for x in args if isinstance(x, tuple)):
                    raise AssertionError(f"{f.__name__}{args} left the kernel")
                return f(*args)
            return call

        for name in ("mpf_add", "mpf_sub", "mpf_mul", "mpf_div", "mpf_neg", "mpf_sqrt", "mpf_gt"):
            monkeypatch.setattr(core, name, strict(getattr(core, name)))
        spec = SobolevSpec(MeasureSpec.laguerre(0), c=-1, M=M, N=N)
        suite = MatrixSuite.build(spec, size=100)
        assert verify_propositions(suite).all_within(mp.mpf("1e-30"))

    @pytest.mark.parametrize("precision", [53, 64, 113, 256, 1024])
    def test_mpf_kit_compares_the_edge_cases_as_mpf_gt(self, precision):
        # every ordered pair of: leading bits at one position with other
        # mantissas or exponents, neighbours 1 ulp apart (within and across a
        # binade), each value's negative, +-0 and +-inf and NaN
        top, half = 1 << precision, 1 << precision // 2
        ctx, kit = arith(precision).ctx, arith(precision)
        finite = [from_man_exp(man, exp) for man, exp in (
            (top - 1, -precision), (top - 3, -precision), (half - 1, -(precision // 2)),
            (3, 0), (5, -1), (top - 1, 0), (top - 2, 0), (1, precision), (1, 0),
            (1, -precision - 7))]
        values = ([ctx.mpf(0)._mpf_, ctx.mpf(-0.0)._mpf_, finf, fninf, fnan]
                  + finite + [mpf_neg(x) for x in finite])
        assert all(bc <= precision for *_, bc in values)
        for x in values:
            for y in values:
                assert kit.gt(x, y) is mpf_gt(x, y), (x, y)

    @pytest.mark.parametrize("precision", [64, 256])
    def test_mpf_kit_compares_non_finite_values_as_mpf_does(self, precision):
        # the guard's verdicts: NaN is never > anything, +inf > 0 > -inf
        ctx, kit = arith(precision).ctx, arith(precision)
        values = [ctx.mpf(v) for v in ("nan", "inf", "-inf", 0, 1, -1)]
        for x in values:
            for y in values:
                for args, want in kit_comparisons(ctx.zero, x, y):
                    assert kit.gt(*map(kit.of, args)) is want, args

    @settings(max_examples=100, deadline=None)
    @given(xq=st.fractions(max_denominator=10 ** 6), yq=st.fractions(max_denominator=10 ** 6))
    def test_exact_kit_has_the_results_of_sqrt_rational_operators(self, xq, yq):
        assume(yq != 0)
        kit = arith(EXACT)
        x, y = SqrtRational.from_rational(xq), SqrtRational.from_rational(yq)
        for name, args, want in kit_cases(SqrtRational.sqrt, x, y, x * x):
            got = kit_result(kit, name, args)
            assert (got.sign, got.square) == (want.sign, want.square), name
        for args, want in kit_comparisons(kit.zero, x, y):
            assert kit.gt(*map(kit.of, args)) is want, args

    @pytest.mark.parametrize("precision", [53, 64, 113, 256, 1024])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_of_rounds_the_exact_value_once(self, precision, data):
        x = data.draw(numbers_of_every_kind(precision))
        q = fraction(x) if hasattr(x, "_mpf_") else F(x)
        want = from_rational(q.numerator, q.denominator, precision, round_nearest)
        assert arith(precision).of(x) == want, x

    @settings(max_examples=100, deadline=None)
    @given(q=st.one_of(st.integers(), st.fractions()))
    def test_exact_of_is_the_sqrt_rational_of_the_rational(self, q):
        got, want = arith(EXACT).of(q), SqrtRational.from_rational(q)
        assert (got.sign, got.square) == (want.sign, want.square)

    def test_a_fraction_is_rounded_once_wherever_it_enters(self):
        # ctx.mpf(num) / den rounds the 66-bit numerator to 64 bits first, and
        # its quotient then misses the nearest value of q by an ulp.
        q = F(69377511649665406331, 875333106730454043)
        want = from_rational(q.numerator, q.denominator, 64, round_nearest)
        assert (arith(64).ctx.mpf(q.numerator) / q.denominator)._mpf_ != want
        rec = MeasureSpec.custom([q, q], [0, q], (float("-inf"), 0.0), norm0_sq=q).recurrence(2, 64)
        assert rec.beta[0] == rec.gamma[1] == rec.norm_sq[0] == want
        kt = KernelTable.build(MeasureSpec.laguerre(0).recurrence(3, 64), -q)
        assert kt.c._mpf_ == mpf_neg(want)

    def test_one_kit_per_precision_under_threads(self):
        # 977 bits is used by no other test, so the four threads race to make
        # its kit, and setdefault must hand all of them the same object, whose
        # context is the precision's one context.
        barrier = threading.Barrier(4)

        def worker(_):
            barrier.wait(timeout=60)
            return arith(977)

        with ThreadPoolExecutor(max_workers=4) as pool:
            kits = list(pool.map(worker, range(4), timeout=60))
        assert all(kit is kits[0] for kit in kits)
        assert arith(977).ctx is kits[0].ctx and kits[0].ctx.prec == 977
