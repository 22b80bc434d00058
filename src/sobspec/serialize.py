"""Machine-readable output formats for matrices and scalar ledgers.

Matrix JSON schema:
    { name, nrows, ncols, lower_bw, upper_bw, exact_size, precision,
      entries: [[i, j, value], ...] }
with band entries only and values as decimal strings carrying enough digits
to reparse to the identical binary float (so parse -> re-emit is
byte-identical).  When the exact oracle covers the configuration a parallel
``entries_exact`` list of [i, j, num, den, sign] squared rationals is added.
CSV holds one ``i,j,value`` row per band entry under a header line.

Every value goes through one :func:`formatter` per document, which gives
the string of ``mpmath.libmp.to_str`` (what ``nstr`` returns) byte for byte
from the value's raw ``_mpf_`` tuple.  A matrix document is the text of
``json.dumps(doc, indent=1)``: the scalar header comes from ``json.dumps``
itself, and the entry rows are written in that layout directly, since
``json`` encodes with an indent in pure Python.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

from mpmath.libmp import prec_to_dps, to_str

from .core import _check_int, context
from .errors import InvalidParameterError
from .matrices import _diagonal_length, from_diagonals

_LOG2_10 = math.log(10, 2)


def repr_digits(precision):
    """Decimal digits that guarantee binary -> decimal -> binary round-trip."""
    return prec_to_dps(precision) + 3


def formatter(precision):
    """The function mapping an mpf to ``to_str(x._mpf_, repr_digits(precision))``.

    It takes the steps of ``to_str`` and its ``to_digits_exp`` once per
    value, with the digit count, the bit budget and the powers of ten worked
    out once: the value as a fixed-point integer, truncated to its decimal
    digits, rounded half up on the first dropped digit, then written fixed
    or scientific and stripped of trailing zeros.  Zero, infinities, NaN and
    values past 2^3500 in magnitude or below 2^-3500 go to ``to_str`` itself,
    as do all values at precisions whose digit strings could pass Python's
    int-to-str limit.
    """
    dps = repr_digits(precision)
    if dps > 4000:
        return lambda x: to_str(x._mpf_, dps)
    bitprec = int((dps + 3) * _LOG2_10) + 10
    min_fixed = min(-(dps // 3), -5)
    tens = {}

    def fmt(x):
        s = x._mpf_
        sign, man, exp, bc = s
        if not man or abs(exp + bc) > 3500:
            return to_str(s, dps)
        fixprec = max(bitprec - exp - bc, 0)
        fixdps = int(fixprec / _LOG2_10 + 0.5)
        offset = exp + fixprec
        ten = tens.get(fixdps) or tens.setdefault(fixdps, 10 ** fixdps)
        digits = str((man << offset if offset >= 0 else man >> -offset) * ten >> fixprec)
        exponent = len(digits) - fixdps - 1
        if len(digits) > dps and digits[dps] >= "5":
            head = digits[:dps].rstrip("9")
            if head:
                digits = head[:-1] + chr(ord(head[-1]) + 1) + "0" * (dps - len(head))
            else:
                digits = "1" + "0" * (dps - 1)
                exponent += 1
        else:
            digits = digits[:dps]
        split = 1
        if min_fixed < exponent < dps:
            if exponent < 0:
                digits = "0" * -exponent + digits
            else:
                split = exponent + 1
            exponent = 0
        digits = (digits[:split] + "." + digits[split:]).rstrip("0")
        if digits[-1] == ".":
            digits += "0"
        if sign:
            digits = "-" + digits
        return f"{digits}e{exponent:+d}" if exponent else digits

    return fmt


def format_value(x, precision):
    return formatter(precision)(x)


def _json_rows(key, rows):
    """The member ``key`` of a top-level object whose list items are the
    already indented ``rows``, laid out as ``json.dumps(..., indent=1)``."""
    return f',\n "{key}": ' + ("[\n" + ",\n".join(rows) + "\n ]" if rows else "[]")


def matrix_to_json(name, matrix, exact_entries=None):
    """The document as ``json.dumps(doc, indent=1) + "\\n"`` writes it.  Value
    strings hold only digits, ".", "-", "+", "e", "inf" or "nan", so they
    need no escaping."""
    fmt = formatter(matrix.precision)
    head = json.dumps({
        "name": name,
        "nrows": matrix.nrows,
        "ncols": matrix.ncols,
        "lower_bw": matrix.lower_bw,
        "upper_bw": matrix.upper_bw,
        "exact_size": matrix.exact_size,
        "precision": matrix.precision,
    }, indent=1)
    text = head[:-2] + _json_rows("entries", [
        f'  [\n   {i},\n   {j},\n   "{fmt(v)}"\n  ]' for i, j, v in matrix.band_entries()])
    if exact_entries is not None:
        text += _json_rows("entries_exact", [
            f"  [\n   {i},\n   {j},\n   {e.square.numerator},\n   {e.square.denominator},"
            f"\n   {e.sign}\n  ]" for (i, j), e in sorted(exact_entries.items())])
    return text + "\n}\n"


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
        values, mpf = {(i, j): s for i, j, s in entries}, context(prec).mpf
        diagonals = {k: [mpf(values.pop((n + max(0, -k), n + max(0, k))))
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
    fmt = formatter(matrix.precision)
    lines = ["i,j,value"]
    for i, j, v in matrix.band_entries():
        lines.append(f"{i},{j},{fmt(v)}")
    return "\n".join(lines) + "\n"


def ledgers_to_doc(suite):
    """The scalar ledgers of a built suite: for the recurrence, Christoffel
    and Sobolev ledgers, the size and then every tuple field, in declaration
    order, as a column of decimal strings."""
    p = suite.precision
    fmt = formatter(p)
    sob = suite.sob

    def columns(ledger, **extra):
        return {"size": ledger.size, **extra,
                **{f.name: list(map(fmt, getattr(ledger, f.name)))
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
