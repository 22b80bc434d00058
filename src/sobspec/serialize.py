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
from dataclasses import fields

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
    (i, j), and each position of the declared band must be given once.
    Text that is not such a document raises :class:`InvalidParameterError`."""
    try:
        doc = json.loads(text)
        name, entries = doc["name"], doc["entries"]
        nrows, ncols, lower, upper, exact = (_check_int(key, doc[key], 0) for key in (
            "nrows", "ncols", "lower_bw", "upper_bw", "exact_size"))
        prec = _check_int("precision", doc["precision"], 1, " bits")
        values = {(i, j): s for i, j, s in entries}
        diagonals = {k: [parse_value(values.pop((n + max(0, -k), n + max(0, k))), prec)
                         for n in range(_diagonal_length(nrows, ncols, k))]
                     for k in range(-lower, upper + 1)}
    except InvalidParameterError:
        raise
    except KeyError as exc:
        raise InvalidParameterError(f"matrix document lacks {exc}") from None
    except (TypeError, ValueError) as exc:  # not JSON, or an entry not [i, j, value]
        raise InvalidParameterError(f"malformed matrix document: {exc}") from None
    if values or len(entries) != sum(map(len, diagonals.values())):
        raise InvalidParameterError("an entry lies outside the declared band or repeats")
    return name, from_diagonals(diagonals, exact, prec, (nrows, ncols))


def matrix_to_csv(matrix):
    lines = ["i,j,value"]
    for i, j, v in matrix.band_entries():
        lines.append(f"{i},{j},{format_value(v, matrix.precision)}")
    return "\n".join(lines) + "\n"


def ledgers_to_doc(suite):
    """The scalar ledgers of a built suite: for the recurrence, Christoffel
    and Sobolev ledgers, the size and then every tuple field, in declaration
    order, as a column of decimal strings."""
    p = suite.precision
    sob = suite.sob

    def columns(ledger, **extra):
        return {"size": ledger.size, **extra,
                **{f.name: [format_value(v, p) for v in getattr(ledger, f.name)]
                   for f in fields(ledger) if isinstance(getattr(ledger, f.name), tuple)}}

    return {
        "precision": p,
        "recurrence": columns(sob.chris.kt.rec),
        "christoffel": columns(sob.chris),
        # the resolved gamma index (see sobolev.py)
        "sobolev": columns(sob, reading="corrected"),
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
