"""The write path against its two byte contracts: every value string is
``mpmath.libmp.to_str``'s, and every matrix document is ``json.dumps(doc,
indent=1)``'s text."""

import itertools
import json
import random

import mpmath as mp
import pytest
from mpmath.libmp import finf, fnan, fninf, from_man_exp, fzero, to_str

from sobspec import serialize
from sobspec.core import MeasureSpec, SobolevSpec, arith
from sobspec.matrices import MatrixSuite, _diagonal_length, from_diagonals
from sobspec.oracle import MAX_ROWS, build_oracle_suite
from sobspec.serialize import formatter, matrix_to_csv, matrix_to_json, repr_digits


def formatter_cases(precision, seed):
    """Values of ``precision`` bits that reach every branch of ``to_str``."""
    ctx, rng = arith(precision).ctx, random.Random(seed)
    dps = repr_digits(precision)
    values = []
    for _ in range(400):  # random mantissas, exponents of both signs
        man = rng.getrandbits(precision) | 1
        exp = rng.randint(-precision - 1200, 1200)
        values.append(from_man_exp(rng.choice((1, -1)) * man, exp, precision, "n"))
    for _ in range(40):  # past the 3500-bit window of the inlined steps
        exp = rng.choice((1, -1)) * rng.randint(3400, 9000) - precision // 2
        values.append(from_man_exp(rng.getrandbits(precision) | 1, exp, precision, "n"))
    values += [(ctx.mpf(10) ** k)._mpf_ for k in range(-400, 401)]
    values += [(1 - ctx.mpf(2) ** -j)._mpf_ for j in range(1, precision + 3)]
    # digit strings whose rounding carries through a run of nines
    values += [ctx.mpf(f"{'9' * (dps + extra)}e{e}")._mpf_
               for extra in range(-2, 4) for e in range(-dps - 12, 12, 3)]
    values += [ctx.mpf(f"{head}{'9' * (dps - 1)}6e{e}")._mpf_
               for head in ("1", "4", "8") for e in range(-dps - 3, 3)]
    # decimal exponents on both sides of the fixed/scientific switches
    for e in [*range(min(-(dps // 3), -5) - 2, min(-(dps // 3), -5) + 3),
              *range(dps - 2, dps + 3)]:
        x = ctx.mpf(10) ** e
        values += [v._mpf_ for v in (x, x * (1 + ctx.eps), x * (1 - ctx.eps), 5 * x / 10)]
    values += [fzero, finf, fninf, fnan]
    # wider values: more bits than the digits hold, and nines into the integer part
    wide = arith(4 * precision).ctx
    values += [(wide.mpf(rng.getrandbits(4 * precision)) / 3 ** rng.randint(1, 99))._mpf_
               for _ in range(40)]
    values += [wide.mpf(f"{head}{'9' * k}.{'9' * dps}")._mpf_
               for head in ("1", "4", "8", "123456") for k in range(dps)]
    return [ctx.make_mpf(v) for v in values] + [-ctx.make_mpf(v) for v in values]


class TestFormatter:
    @pytest.mark.parametrize("precision", [53, 64, 100, 256, 1024, 2048])
    def test_equals_to_str(self, precision):
        fmt, dps = formatter(precision), repr_digits(precision)
        values = formatter_cases(precision, precision)
        assert [fmt(x._mpf_) for x in values] == [to_str(x._mpf_, dps) for x in values]

    def test_to_str_takes_only_the_edge_cases(self, monkeypatch):
        calls = []
        monkeypatch.setattr(serialize, "to_str",
                            lambda s, dps: calls.append(s) or to_str(s, dps))
        ctx = arith(256).ctx
        # a mantissa wider than the 282-bit budget is an edge case; integers
        # at or above 2^282, as a Laguerre norm (39!)^2, are not
        edge = [ctx.zero, ctx.inf, -ctx.inf, ctx.nan, ctx.ldexp(1, 3500), ctx.ldexp(-3, -3503),
                arith(1024).ctx.one / 3]
        inner = [ctx.ldexp(1, 3499), ctx.ldexp(-3, -3502), ctx.one / 3, ctx.mpf(12),
                 ctx.ldexp(3, 300), ctx.factorial(39) ** 2]
        fmt = formatter(256)
        for x in edge + inner:
            assert fmt(x._mpf_) == to_str(x._mpf_, repr_digits(256))
        assert calls == [x._mpf_ for x in edge]
        # digit strings past Python's int-to-str limit stay with to_str
        wide = arith(15000).ctx
        calls.clear()
        for x in (wide.pi, -wide.one / 3):
            assert formatter(15000)(x._mpf_) == to_str(x._mpf_, repr_digits(15000))
        assert len(calls) == 2

    def test_formatter_is_nstr_at_the_round_trip_digits(self):
        x = arith(256).ctx.one / 7
        assert formatter(256)(x._mpf_) == mp.nstr(x, repr_digits(256))


def reference_json(name, m, exact_entries=None):
    """The matrix document built as a dict and written by ``json.dumps``."""
    dps = repr_digits(m.precision)
    doc = {"name": name, "nrows": m.nrows, "ncols": m.ncols, "lower_bw": m.lower_bw,
           "upper_bw": m.upper_bw, "exact_size": m.exact_size, "precision": m.precision,
           "entries": [[i, j, to_str(v._mpf_, dps)] for i, j, v in m.band_entries()]}
    if exact_entries is not None:
        doc["entries_exact"] = [[i, j, e.square.numerator, e.square.denominator, e.sign]
                                for (i, j), e in sorted(exact_entries.items())]
    return json.dumps(doc, indent=1) + "\n"


def reference_csv(m):
    """The CSV of ``m`` from ``to_str`` over ``band_entries()``."""
    dps = repr_digits(m.precision)
    return "i,j,value\n" + "".join(
        f"{i},{j},{to_str(v._mpf_, dps)}\n" for i, j, v in m.band_entries())


@pytest.fixture(scope="module", params=[3, 30])
def sized(request):
    """(suite at 64 bits, suite at 1024 bits, exact entries of each matrix
    over the oracle's reach) of the worked example at size 3 or 30."""
    spec = SobolevSpec(MeasureSpec.laguerre(0), c=-1, M=1, N=1)
    suites = [MatrixSuite.build(spec, request.param, guard=4, precision=p) for p in (64, 1024)]
    rows = min(suites[0].J.nrows, MAX_ROWS)
    exact = build_oracle_suite(0, -1, 1, 1, rows).matrices
    attached = {name: {(i, j): exact[name][i][j] for i, j, _ in m.band_entries()
                       if i < rows and j < rows}
                for name, m in suites[0].named_matrices().items()}
    return suites, attached


class TestMatrixJson:
    @pytest.mark.parametrize("with_exact", [False, True])
    def test_equals_json_dumps(self, sized, with_exact):
        suites, attached = sized
        for suite in suites:
            for name, m in suite.named_matrices().items():
                exact = attached[name] if with_exact else None
                assert matrix_to_json(name, m, exact) == reference_json(name, m, exact), name

    @pytest.mark.parametrize("exact", [None, {}])
    def test_empty_matrix(self, exact):
        empty = from_diagonals({0: []}, 0, 64)
        text = matrix_to_json("E", empty, exact)
        assert text == reference_json("E", empty, exact)
        assert '"entries": []' in text

    def test_header_is_json_escaped(self):
        m = from_diagonals({0: [arith(64).one]}, 1, 64)
        assert matrix_to_json('Q "é"', m) == reference_json('Q "é"', m)

    def test_csv_rows_are_to_str(self, sized):
        for suite in sized[0]:
            for name, m in suite.named_matrices().items():
                assert matrix_to_csv(m) == reference_csv(m), name

    def test_every_band_shape(self):
        """Both writers over every declared band of matrices up to 5 x 5:
        bands off the main diagonal, wider than the matrix, and rows or
        whole matrices with no band entry."""
        of, rng = arith(64).of, random.Random(5)
        for nrows, ncols, low, high in itertools.product(range(6), range(6), range(-6, 6), range(7)):
            if high < low:
                continue
            m = from_diagonals({k: [of(rng.random() * 10 ** rng.randint(-9, 9))
                                    for _ in range(_diagonal_length(nrows, ncols, k))]
                                for k in range(low, high + 1)}, 2, 64, (nrows, ncols))
            assert matrix_to_json("A", m) == reference_json("A", m)
            assert matrix_to_csv(m) == reference_csv(m)
