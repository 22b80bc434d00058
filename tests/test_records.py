"""The record contract of ``core.Record``: fields set once and never again,
equality, hash and repr by value, ``fields`` in declaration order and
``replace`` through the constructor; and the two lazy members, Q's band
and the kernel ratio roots."""

import pytest

from sobspec import matrices
from sobspec.core import MeasureSpec, RecurrenceTable, SobolevSpec, fields, replace
from sobspec.errors import InvalidParameterError
from sobspec.matrices import BandedMatrix, HessenbergQ, MatrixSuite
from sobspec.sobolev import SobolevLedger

MATRICES = ("J", "L", "J1", "L1", "J2", "J2_direct", "Q", "R", "T", "H")


def small_suite():
    spec = SobolevSpec(MeasureSpec.laguerre(0), c=-1, M=1, N=1)
    return MatrixSuite.build(spec, size=3, precision=64)


@pytest.fixture(scope="module")
def suite():
    return small_suite()


@pytest.mark.parametrize("reader", [lambda s: s, lambda s: s.J, lambda s: s.sob,
                                    lambda s: s.sob.chris.kt.rec, lambda s: s.spec],
                         ids=["suite", "J", "sob", "rec", "spec"])
def test_a_field_can_be_neither_assigned_nor_deleted(suite, reader):
    record = reader(suite)
    name = fields(record)[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) is value


def test_records_compare_and_hash_by_value(suite):
    again = small_suite()
    assert again is not suite
    for name in ("J", "L", "Q", "R", "T", "H"):
        a, b = getattr(suite, name), getattr(again, name)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert suite.sob == again.sob and suite.sob.chris.kt == again.sob.chris.kt
    assert suite.J != suite.L and suite.J != "J"
    # records of two classes differ, whatever their values
    Q = suite.Q
    assert Q != BandedMatrix(*(getattr(Q, name) for name in fields(BandedMatrix)))


def test_replace_changes_only_the_given_fields(suite):
    J = suite.J
    moved = replace(J, exact_size=J.exact_size - 1)
    assert type(moved) is BandedMatrix and moved != J
    assert [n for n in fields(J) if getattr(moved, n) != getattr(J, n)] == ["exact_size"]
    assert replace(moved, exact_size=J.exact_size) == J
    assert replace(J) == J and replace(J) is not J
    with pytest.raises(TypeError):
        replace(J, not_a_field=1)


def test_the_constructor_takes_each_field_once():
    rec = MeasureSpec.laguerre(0).recurrence(3, 64)
    values = [getattr(rec, n) for n in fields(rec)]
    assert RecurrenceTable(*values) == RecurrenceTable(**dict(zip(fields(rec), values))) == rec
    for args, kwargs in [(values[:-1], {}), (values + [1], {}), (values, {"beta": ()}),
                         (values, {"size": 3})]:
        with pytest.raises(TypeError):
            RecurrenceTable(*args, **kwargs)


def test_a_spec_is_validated_whenever_it_is_made(suite):
    with pytest.raises(InvalidParameterError):
        replace(suite.spec, c=1)
    assert replace(suite.spec, M=0).M == 0


def test_fields_follow_the_declarations_base_class_first():
    assert fields(BandedMatrix) == ("nrows", "ncols", "lower_bw", "upper_bw", "exact_size",
                                    "precision", "diagonals", "exp")
    # Q's band is derived from its generators, so it is no field of Q
    assert fields(HessenbergQ) == ("nrows", "ncols", "lower_bw", "upper_bw", "exact_size",
                                   "precision", "exp", "diag", "sub", "rho", "l1")
    assert fields(MeasureSpec) == ("family", "alpha", "beta", "gamma", "norm0_sq", "support")
    assert fields(SobolevLedger)[:4] == ("chris", "M", "N", "Sc")
    assert fields(MatrixSuite) == ("spec", "size", "guard", "precision", "sob", *MATRICES)


def test_q_expands_its_band_once_on_first_read(monkeypatch):
    Q = small_suite().Q
    calls = []
    expand = matrices._hessenberg_diagonals

    def counted(Q, upto):
        calls.append(upto)
        return expand(Q, upto)

    monkeypatch.setattr(matrices, "_hessenberg_diagonals", counted)
    assert "diagonals" not in vars(Q) and calls == []
    band = Q.diagonals
    assert Q.diagonals is band and vars(Q)["diagonals"] is band
    assert list(Q.band_entries()) and Q.entry(0, Q.ncols - 1) is not None
    assert calls == [Q.nrows - 1]
    with pytest.raises(AttributeError):
        Q.diagonal_count


def test_the_kernel_ratio_roots_are_formed_once(suite):
    kt = replace(suite.sob.chris.kt)
    assert "rho" not in vars(kt)
    assert kt.rho is kt.rho and vars(kt)["rho"] is kt.rho
    assert "rho" not in fields(kt)


def test_vars_of_a_suite_hold_its_fields_and_the_ten_matrices(suite):
    held = vars(suite)
    assert tuple(held) == fields(suite)
    assert [n for n, v in held.items() if isinstance(v, BandedMatrix)] == list(MATRICES)

