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

from .core import context
from .errors import InvalidParameterError
from .matrices import from_diagonals


def repr_digits(precision):
    """Decimal digits that guarantee binary -> decimal -> binary round-trip."""
    return mp.libmp.libmpf.prec_to_dps(precision) + 3


def format_value(x, precision):
    return context(precision).nstr(x, repr_digits(precision), strip_zeros=True)


def parse_value(s, precision):
    return context(precision).mpf(s)


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
    doc = json.loads(text)
    prec = doc["precision"]
    diagonals = {k: [] for k in range(-doc["lower_bw"], doc["upper_bw"] + 1)}
    for i, j, s in doc["entries"]:  # row-major, so each diagonal top-left first
        if j - i not in diagonals:
            raise InvalidParameterError(f"entry ({i}, {j}) lies outside the declared band")
        diagonals[j - i].append(parse_value(s, prec))
    return doc["name"], from_diagonals(diagonals, doc["exact_size"], prec,
                                       (doc["nrows"], doc["ncols"]))


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
            "reading": so.reading,
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
