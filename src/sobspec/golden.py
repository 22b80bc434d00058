"""Shipped reference tables for the worked Laguerre example.

The fixture holds every displayed entry of the ten chain matrices for the
configuration alpha = 0, c = -1, M = N = 1, each as a squared rational with a
separate sign (entries are square roots of rationals, so the squared form is
exact).  ``tools/make_reference_fixture.py`` regenerates the file from the
transcribed tables and revalidates it against the pipeline at ``EXACT``.

No reference entry is ever rounded: the entries of the ``EXACT`` suite must
equal it exactly, and a floating entry is judged in squared form by
:func:`sobspec.oracle.squared_entry_compare`, the package's one
float-versus-exact rule.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .core import Record, SqrtRational
from .matrices import multiply
from .oracle import squared_entry_compare

FIXTURE_NAME = "laguerre_a0_cm1_M1_N1.json"

#: Order in which the reference matrices are reported.
MATRIX_NAMES = ("J", "L", "J1", "L1", "J2", "Q", "R", "T", "H", "J2_shift_sq")


class GoldenMatrix(Record):
    """One reference matrix: every stored entry as sign * sqrt(num/den)."""

    name: str
    nrows: int
    ncols: int
    entries: dict  # (i, j) -> SqrtRational


def load_reference():
    """The fixture as a dict of name -> GoldenMatrix, plus its configuration."""
    from importlib import resources  # loads inspect from Python 3.12 on: only when read

    text = resources.files("sobspec").joinpath("data", FIXTURE_NAME).read_text()
    doc = json.loads(text)
    matrices = {}
    for name, payload in doc["matrices"].items():
        entries = {
            (i, j): SqrtRational(sign, Fraction(num, den))
            for i, j, num, den, sign in payload["entries"]
        }
        matrices[name] = GoldenMatrix(
            name=name,
            nrows=payload["nrows"],
            ncols=payload["ncols"],
            entries=entries,
        )
    return doc["config"], matrices


def computed_counterparts(suite):
    """Name -> the suite's counterpart of each reference table, (J2 - cI)^2 included."""
    computed = dict(suite.named_matrices())
    shifted = suite.J2.shifted(-suite.sob.chris.kt.c)
    computed["J2_shift_sq"] = multiply(shifted, shifted)
    return computed


def compare_reference(golden, computed, exact, tol):
    """Count the reference entries each computation path reproduces.

    ``golden`` maps names to :class:`GoldenMatrix`, ``computed`` to float
    matrices and ``exact`` to the matrices of an ``EXACT`` suite (as
    :func:`computed_counterparts` gives both).  Returns name -> (exact,
    float, total) in ``MATRIX_NAMES`` order: ``exact`` counts exact
    entries equal to the reference, ``float`` computed entries that
    :func:`~sobspec.oracle.squared_entry_compare` passes against it, ``tol``
    (a decimal string or a number) read in each entry's own context.
    """
    counts = {}
    for name in MATRIX_NAMES:
        gm = golden[name]
        exact_ok = sum(exact[name].entry(i, j) == ref for (i, j), ref in gm.entries.items())
        floats = {(i, j): computed[name].entry(i, j) for i, j in gm.entries}
        report = squared_entry_compare(name, floats, gm.entries, tol)
        counts[name] = (exact_ok, report.passed, report.total)
    return counts
