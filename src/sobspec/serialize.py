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
from the raw ``_mpf_`` tuple that the matrix or ledger stores, so writing
makes no mpf.  A value whose mantissa fits the formatter's bit budget gets
its truncated decimal digits as one product and shift, ``man * 10**fixdps``
shifted by its exponent, and the edge cases go to ``to_str`` itself.  A
matrix document is the text of
``json.dumps(doc, indent=1)``: the scalar header comes from ``json.dumps``
itself, and the entry rows are written in that layout directly, since
``json`` encodes with an indent in pure Python.  JSON and CSV walk the band
row by row over the stored diagonals, each value formatted once.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

from mpmath.libmp import prec_to_dps, to_str

from .core import _check_int, arith
from .errors import InvalidParameterError
from .matrices import _diagonal_length, from_diagonals

_LOG2_10 = math.log(10, 2)


def repr_digits(precision):
    """Decimal digits that guarantee binary -> decimal -> binary round-trip."""
    return prec_to_dps(precision) + 3


def formatter(precision):
    """The function mapping a raw ``_mpf_`` tuple s to ``to_str(s, repr_digits(precision))``.

    It takes the steps of ``to_str`` and its ``to_digits_exp`` once per
    value, with the digit count and the bit budget worked out once and the
    power of ten cached per fixed-point scale: the value's decimal digits,
    truncated, then rounded half up on the first dropped digit and stripped
    of trailing zeros in one step, then written fixed or scientific.  With
    fixprec = bitprec - (exp + bc) clamped at 0, the digits are
    ``man * 10**fixdps >> -exp`` (``<< exp`` for exp >= 0), which equal
    ``to_str``'s shift of ``man`` to fixprec bits and back down whenever the
    mantissa has at most the budget's bitprec bits, since that shift then
    drops no bit.  Every stored value has at most p < bitprec bits; a wider
    one goes to ``to_str``, as do zero, infinities, NaN, values past 2^3500
    in magnitude or below 2^-3500, and all values at precisions whose digit
    strings could pass Python's int-to-str limit.
    """
    dps = repr_digits(precision)
    if dps > 4000:
        return lambda s: to_str(s, dps)
    bitprec = int((dps + 3) * _LOG2_10) + 10
    min_fixed = min(-(dps // 3), -5)
    scales = {}

    def scale(fixprec):
        fixdps = int(fixprec / _LOG2_10 + 0.5)
        return scales.setdefault(fixprec, (fixdps, 10 ** fixdps))

    def fmt(s):
        sign, man, exp, bc = s
        top = exp + bc
        if not man or bc > bitprec or not -3500 <= top <= 3500:
            return to_str(s, dps)
        fixdps, ten = scales.get(bitprec - top) or scale(max(bitprec - top, 0))
        digits = str(man * ten >> -exp if exp < 0 else man * ten << exp)
        exponent = len(digits) - fixdps - 1
        if len(digits) > dps and digits[dps] >= "5":
            digits = digits[:dps].rstrip("9")
            if digits:
                digits = digits[:-1] + chr(ord(digits[-1]) + 1)
            else:
                digits, exponent = "1", exponent + 1
        else:
            digits = digits[:dps].rstrip("0")
        if min_fixed < exponent < dps:
            split = exponent + 1
            if exponent < 0:
                digits = "0." + "0" * -split + digits
            elif split < len(digits):
                digits = digits[:split] + "." + digits[split:]
            else:
                digits += "0" * (split - len(digits)) + ".0"
        else:
            digits = f"{digits[0]}.{digits[1:] or '0'}e{exponent:+d}"
        return "-" + digits if sign else digits

    return fmt


def _band_rows(matrix, fmt, start, column, end, joiner):
    """Texts of the nonempty rows of matrix's band, row-major, that
    concatenate to its entries joined by ``joiner``: entry (i, j) reads
    ``start(i) + column[j] + fmt(value) + end``, and each stored value is
    formatted once, as its row is written.  A row's first and last entries
    take its leading joiner and its end, so that joining the row makes its
    only copy, and no string of one entry outlives its row."""
    diagonals, lower, upper = matrix.diagonals, matrix.lower_bw, matrix.upper_bw
    rows = []
    for i in range(matrix.nrows):
        lo, hi = max(0, i - lower), min(matrix.ncols, i + upper + 1)
        if lo < hi:
            head = start(i)
            entries = [column[j] + fmt(diagonals[lower + j - i][min(i, j)]) for j in range(lo, hi)]
            entries[0] = (joiner if rows else "") + head + entries[0]
            entries[-1] += end
            rows.append((end + joiner + head).join(entries))
    return rows


def _json_rows(key, rows):
    """The member ``key`` of a top-level object whose list items are the
    already indented ``rows``, laid out as ``json.dumps(..., indent=1)``."""
    return f',\n "{key}": ' + ("[\n" + ",\n".join(rows) + "\n ]" if rows else "[]")


def matrix_to_json(name, matrix, exact_entries=None):
    """The document as ``json.dumps(doc, indent=1) + "\\n"`` writes it.  Value
    strings hold only digits, ".", "-", "+", "e", "inf" or "nan", so they
    need no escaping."""
    head = json.dumps({
        "name": name,
        "nrows": matrix.nrows,
        "ncols": matrix.ncols,
        "lower_bw": matrix.lower_bw,
        "upper_bw": matrix.upper_bw,
        "exact_size": matrix.exact_size,
        "precision": matrix.precision,
    }, indent=1)[:-2] + ',\n "entries": '
    tail = "" if exact_entries is None else _json_rows("entries_exact", [
        f"  [\n   {i},\n   {j},\n   {e.square.numerator},\n   {e.square.denominator},"
        f"\n   {e.sign}\n  ]" for (i, j), e in sorted(exact_entries.items())])
    rows = _band_rows(matrix, formatter(matrix.precision), lambda i: f"  [\n   {i},\n   ",
                      [f'{j},\n   "' for j in range(matrix.ncols)], '"\n  ]', ",\n")
    if not rows:
        return head + "[]" + tail + "\n}\n"
    return "".join((head + "[\n", *rows, "\n ]" + tail + "\n}\n"))


def matrix_from_json(text):
    """(name, matrix) of a matrix document.  Each value goes to its own
    (i, j), each position of the declared band must be given once, as
    [int, int, string], and the band and ``exact_size`` must lie within the
    shape.  Text that is not such a document raises
    :class:`InvalidParameterError`."""
    try:
        doc = json.loads(text)
        name, entries = doc["name"], doc["entries"]
        nrows, ncols, lower, upper, exact = (_check_int(key, doc[key], 0) for key in (
            "nrows", "ncols", "lower_bw", "upper_bw", "exact_size"))
        prec = _check_int("precision", doc["precision"], 1, " bits")
        if lower >= max(nrows, 1) or upper >= max(ncols, 1) or exact > min(nrows, ncols):
            raise InvalidParameterError(f"band or exact_size past a {nrows}x{ncols} matrix")
        if not all(type(i) is type(j) is int and type(s) is str for i, j, s in entries):
            raise InvalidParameterError("an entry is not [int, int, string]")
        values, of = {(i, j): s for i, j, s in entries}, arith(prec).of
        diagonals = {k: [of(values.pop((n + max(0, -k), n + max(0, k))))
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
    rows = _band_rows(matrix, formatter(matrix.precision), lambda i: f"{i},",
                      [f"{j}," for j in range(matrix.ncols)], "\n", "")
    return "".join(("i,j,value\n", *rows))


def ledgers_to_doc(suite):
    """The scalar ledgers of a built suite: for the recurrence, Christoffel
    and Sobolev ledgers, the size and then every tuple field, in declaration
    order and the Sobolev auxiliary ones last, as columns of decimal strings."""
    p = suite.precision
    fmt = formatter(p)
    sob = suite.sob

    def columns(ledger, *more, **extra):
        return {"size": ledger.size, **extra,
                **{f.name: list(map(fmt, getattr(x, f.name))) for x in (ledger, *more)
                   for f in fields(x) if isinstance(getattr(x, f.name), tuple)}}

    return {
        "precision": p,
        "recurrence": columns(sob.chris.kt.rec),
        "christoffel": columns(sob.chris),
        # the resolved gamma index (see sobolev.py)
        "sobolev": columns(sob, sob.auxiliary(), reading="corrected"),
    }


def ledgers_to_csv(suite):
    """One CSV per ledger: n plus one column per stored field; the Sobolev
    CSV adds the auxiliary coefficients of :meth:`SobolevLedger.auxiliary`
    after its stored fields."""
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
