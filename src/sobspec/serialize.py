"""Machine-readable output formats for matrices and scalar ledgers.

Matrix JSON schema:
    { name, nrows, ncols, lower_bw, upper_bw, exact_size, precision,
      entries: [[i, j, value], ...] }
with band entries only and values as decimal strings carrying enough digits
to reparse to the identical binary float (so parse -> re-emit is
byte-identical).  When the exact oracle covers the configuration a parallel
``entries_exact`` list of [i, j, num, den, sign] squared rationals is added.
CSV holds one ``i,j,value`` row per band entry under a header line.
"""

from __future__ import annotations

import json

import mpmath as mp

from .core import _check_int, context
from .errors import InvalidParameterError
from .matrices import _diagonal_length, from_diagonals


def repr_digits(precision):
    """Decimal digits that guarantee binary -> decimal -> binary round-trip."""
    return mp.libmp.libmpf.prec_to_dps(precision) + 3


def format_value(x, precision):
    return context(precision).nstr(x, repr_digits(precision), strip_zeros=True)


def parse_value(s, precision):
    try:
        return context(precision).mpf(s)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"cannot parse {s!r} as a number") from None


def matrix_to_doc(name, matrix, exact_entries=None):
    doc = {
        "name": name,
        "nrows": matrix.nrows,
        "ncols": matrix.ncols,
        "lower_bw": matrix.lower_bw,
        "upper_bw": matrix.upper_bw,
        "exact_size": matrix.exact_size,
        "precision": matrix.precision,
        "entries": [
            [i, j, format_value(v, matrix.precision)]
            for i, j, v in matrix.band_entries()
        ],
    }
    if exact_entries is not None:
        doc["entries_exact"] = [
            [i, j, e.square.numerator, e.square.denominator, e.sign]
            for (i, j), e in sorted(exact_entries.items())
        ]
    return doc


def matrix_to_json(name, matrix, exact_entries=None):
    return json.dumps(matrix_to_doc(name, matrix, exact_entries), indent=1) + "\n"


def matrix_from_json(text):
    """(name, matrix) of a matrix document.  Each value goes to its own
    (i, j), and each position of the declared band must be given once."""
    doc = json.loads(text)
    try:
        name, entries = doc["name"], doc["entries"]
        nrows, ncols, lower, upper, exact = (_check_int(key, doc[key], 0) for key in (
            "nrows", "ncols", "lower_bw", "upper_bw", "exact_size"))
        prec = _check_int("precision", doc["precision"], 1, " bits")
        values = {(i, j): s for i, j, s in entries}
        diagonals = {k: [parse_value(values.pop((n + max(0, -k), n + max(0, k))), prec)
                         for n in range(_diagonal_length(nrows, ncols, k))]
                     for k in range(-lower, upper + 1)}
    except KeyError as exc:
        raise InvalidParameterError(f"matrix document lacks {exc}") from None
    if values or len(entries) != sum(map(len, diagonals.values())):
        raise InvalidParameterError("an entry lies outside the declared band or repeats")
    return name, from_diagonals(diagonals, exact, prec, (nrows, ncols))


def matrix_to_csv(matrix):
    lines = ["i,j,value"]
    for i, j, v in matrix.band_entries():
        lines.append(f"{i},{j},{format_value(v, matrix.precision)}")
    return "\n".join(lines) + "\n"


def ledgers_to_doc(suite):
    """All scalar ledgers of a built suite, values as decimal strings."""
    p = suite.precision
    rec, ch, so = suite.rec, suite.chris, suite.sob

    def col(seq):
        return [format_value(v, p) for v in seq]

    return {
        "precision": p,
        "recurrence": {
            "size": rec.size,
            "beta": col(rec.beta),
            "gamma": col(rec.gamma),
            "norm_sq": col(rec.norm_sq),
            "leading": col(rec.leading),
        },
        "christoffel": {
            "size": ch.size,
            "d": col(ch.d),
            "e": col(ch.e),
            "r2": col(ch.r2),
            "kappa": col(ch.kappa),
            "tau": col(ch.tau),
            "norm2_sq": col(ch.norm2_sq),
        },
        "sobolev": {
            "size": so.size,
            "reading": "corrected",  # the resolved gamma index (see sobolev.py)
            "Sc": col(so.Sc),
            "Sdc": col(so.Sdc),
            "normS_sq": col(so.normS_sq),
            "t": col(so.t),
            "gamma_nn": col(so.gamma_nn),
            "gamma_n1": col(so.gamma_n1),
            "gamma_n2": col(so.gamma_n2),
            "a": col(so.a),
            "b": col(so.b),
            "cdiag": col(so.cdiag),
            "alpha1": col(so.alpha1),
            "alpha0": col(so.alpha0),
            "xi0": col(so.xi0),
            "xi1": col(so.xi1),
            "xi2": col(so.xi2),
        },
    }


def ledgers_to_csv(suite):
    """One CSV per ledger: n plus one column per stored field."""
    doc = ledgers_to_doc(suite)
    files = {}
    for part in ("recurrence", "christoffel", "sobolev"):
        payload = doc[part]
        fields = [k for k, v in payload.items() if isinstance(v, list)]
        lines = ["n," + ",".join(fields)]
        for n in range(payload["size"]):
            lines.append(
                str(n) + "," + ",".join(payload[f][n] for f in fields)
            )
        files[part] = "\n".join(lines) + "\n"
    return files
