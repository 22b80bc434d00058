"""Command-line front end.

Three commands: ``generate`` emits all chain matrices and scalar ledgers in
machine-readable form, ``verify`` runs the factorization-identity residual
suite against a tolerance, and ``reproduce-paper`` checks the computed
matrices against the shipped reference tables for the worked Laguerre
example (exact oracle path and floating path).

Every option is declared once, in ``OPTIONS``: ``verify`` takes all of
them, ``generate`` all but ``--tolerance`` (it checks nothing), and
``reproduce-paper`` takes ``--precision`` and ``--tolerance`` with help of
its own.  Option ``--name`` can be overridden through the environment
variable ``SOBSPEC_<NAME>``.  A run is recorded as its options as parsed, in
table order and without ``--out``: this document is ``run.json`` and the
``config`` block of ``verification.json``.

Exit codes: 0 success, 2 invalid parameters, 3 numerical failure
(not-positive-definite or precision exhaustion), 4 verification failure.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .core import MeasureSpec, SobolevSpec, arith
from .errors import (
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    OracleUnsupportedError,
)
from .golden import compare_reference, computed_counterparts, load_reference
# ``multiply`` is not called here, but it stays importable from this module,
# where perfbench's tracer wraps it by name.
from .matrices import MatrixSuite, multiply, verify_propositions  # noqa: F401
from .oracle import build_oracle_suite
from .serialize import formatter, ledgers_to_csv, ledgers_to_doc, matrix_to_csv, matrix_to_json

EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

#: name -> (default, help, type); the type follows the default when None.
OPTIONS = {
    "measure": ("laguerre", "Base measure family.", None),
    "alpha": ("0", "Laguerre exponent, > -1.", None),
    "c": ("-1", "Mass point, outside the support.", None),
    "M": ("1", "Mass on function values at c.", None),
    "N": ("1", "Mass on derivative values at c.", None),
    "size": (8, "Reported truncation size (>= 3).", None),
    "precision": (256, "Working precision in bits (>= 64).", None),
    "guard": (4, "Guard rows built beyond the size (>= 2).", None),
    "out": ("sobspec-out", "Output directory.", None),
    "format": ("json", "Matrix and ledger file format.", click.Choice(["json", "csv"])),
    "tolerance": ("1e-30", "Residual tolerance for verification.", None),
}


def _option(name, help=None):
    default, table_help, type_ = OPTIONS[name]
    return click.option(f"--{name}", name, default=default, type=type_,
                        envvar=f"SOBSPEC_{name.upper()}", show_default=True,
                        help=help or table_help)


def _options(*skip):
    """Every ``OPTIONS`` entry but ``skip``, in table order."""
    def apply(f):
        for name in reversed(OPTIONS):
            if name not in skip:
                f = _option(name)(f)
        return f

    return apply


def _fraction(text):
    """The literal as an exact rational (integer, decimal or p/q), else None.
    Whitespace inside it and ``_`` are refused on every Python, as 3.10's
    ``Fraction`` refuses them."""
    text = str(text)
    if "_" in text or len(text.split()) > 1:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _number(text):
    value = _fraction(text)
    if value is None:
        raise InvalidParameterError(f"cannot parse number {text!r}")
    return value


def _tolerance(text):
    """The tolerance literal, once it is known to be a rational > 0."""
    value = _fraction(text)
    if value is None or not value > 0:
        raise InvalidParameterError(f"tolerance must be finite and > 0, got {text!r}")
    return str(text)


def _build(command, opts):
    """Parse the options and build the suite.

    Returns the run document, the parsed numbers alpha, c, M, N (by name)
    and the suite.  Parsing goes numbers, tolerance, measure, so the first
    fault reported is the same whatever the command-line order.
    """
    numbers = {name: _number(opts[name]) for name in ("alpha", "c", "M", "N")}
    parsed = {**opts, **{k: str(v) for k, v in numbers.items()}}
    if "tolerance" in opts:
        parsed["tolerance"] = _tolerance(opts["tolerance"])
    if opts["measure"] != "laguerre":
        raise InvalidParameterError(
            f"CLI supports the laguerre family only, got {opts['measure']!r} "
            "(custom recurrences are a library-level feature)"
        )
    spec = SobolevSpec(measure=MeasureSpec.laguerre(numbers["alpha"]),
                       c=numbers["c"], M=numbers["M"], N=numbers["N"])
    suite = MatrixSuite.build(spec, opts["size"], guard=opts["guard"],
                              precision=opts["precision"])
    doc = {"command": command, **{k: parsed[k] for k in OPTIONS if k in opts and k != "out"}}
    return doc, numbers, suite


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _exit_codes(body):
    """Map invalid parameters to exit 2 and numerical failures to exit 3."""

    @functools.wraps(body)
    def run(**opts):
        try:
            return body(**opts)
        except InvalidParameterError as exc:
            _fail(EXIT_INVALID, exc)
        except (NotPositiveDefiniteError, NumericalFailureError) as exc:
            _fail(EXIT_NUMERICAL, exc)

    return run


@click.group()
def main():
    """Sobolev-type orthogonal polynomial matrix factorizations."""


@main.command()
@_options("tolerance")
@_exit_codes
def generate(**opts):
    """Write all chain matrices and scalar ledgers to the output directory."""
    doc, numbers, suite = _build("generate", opts)
    as_json = opts["format"] == "json"
    exact = _oracle_entries(numbers, suite) if as_json else {}
    outdir = Path(opts["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name, text):
        (outdir / name).write_text(text)
        written.append(name)

    write("run.json", json.dumps(doc, indent=1) + "\n")
    for name, matrix in suite.named_matrices().items():
        if as_json:
            write(f"{name}.json", matrix_to_json(name, matrix, exact.get(name)))
        else:
            write(f"{name}.csv", matrix_to_csv(matrix))
    if as_json:
        write("ledgers.json", json.dumps(ledgers_to_doc(suite), indent=1) + "\n")
    else:
        for part, text in ledgers_to_csv(suite).items():
            write(f"ledger_{part}.csv", text)
    click.echo(f"wrote {len(written)} files to {outdir}")


def _oracle_entries(numbers, suite):
    """Exact squared-rational entries when the oracle covers the run, else {}.

    Also {} when a numerator or denominator has more decimal digits than
    Python converts to or from a string (``sys.get_int_max_str_digits``), so
    that every file written parses with ``json.loads``.
    """
    try:
        osuite = build_oracle_suite(*numbers.values(), suite.J.nrows)
    except OracleUnsupportedError:
        return {}
    exact = {name: {(i, j): osuite.matrices[name][i][j] for i, j, _ in m.band_entries()}
             for name, m in suite.named_matrices().items()}
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit, as before 3.10.7
    if limit:
        bound = 10 ** limit
        if any(max(e.square.numerator, e.square.denominator) >= bound
               for entries in exact.values() for e in entries.values()):
            return {}
    return exact


@main.command()
@_options()
@_exit_codes
def verify(**opts):
    """Run the factorization-identity residual suite; exit 4 on a breach."""
    config, _, suite = _build("verify", opts)
    precision, tolerance = opts["precision"], config["tolerance"]
    report = verify_propositions(suite)
    kit, fmt = arith(precision), formatter(precision)
    ctx, tol = kit.ctx, kit.ctx.make_mpf(kit.of(tolerance))
    ok = report.all_within(tol)
    rows = report.as_rows()
    doc = {
        "config": config,
        "pass": bool(ok),
        "max_residual": fmt(report.max_residual._mpf_),
        "residuals": [{"name": name, "block": block, "residual": fmt(res._mpf_)}
                      for name, res, block in rows],
    }
    outdir = Path(opts["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "verification.json").write_text(json.dumps(doc, indent=1) + "\n")
    # Echo 8 digits of each residual rounded to 64 bits: nstr at the full
    # precision would expand all p mantissa bits to decimal first.
    short = arith(64).ctx
    for name, res, block in rows:
        click.echo(f"{name:24s} block={block:3d} residual={short.nstr(short.mpf(res), 8)}")
    if not ok:
        # p + log2(max residual) is what this run lost; a correct build at too
        # low a precision then reads how many bits the tolerance needs.
        loss = precision + ctx.log(report.max_residual, 2)
        need = int(ctx.ceil(loss - ctx.log(tol, 2)))
        _fail(EXIT_VERIFICATION, f"max residual {doc['max_residual']} exceeds {tolerance}; "
              f"the residuals lose {float(loss):.1f} bits at {precision} bits, so this "
              f"tolerance needs about {need} bits")
    click.echo(f"all residuals within {tolerance}")


@main.command(name="reproduce-paper")
@_option("precision", "Floating-path precision in bits.")
@_option("tolerance", "Floating-path relative tolerance.")
@_exit_codes
def reproduce_paper(precision, tolerance):
    """Compare computed matrices against the published reference tables."""
    config, golden = load_reference()
    top = max(g.nrows for g in golden.values())
    run, numbers, suite = _build("reproduce-paper", {
        **config, "measure": config["family"], "size": top + 2, "guard": 4,
        "precision": precision, "tolerance": tolerance})
    osuite = build_oracle_suite(*numbers.values(), top)
    counts = compare_reference(golden, computed_counterparts(suite), osuite, run["tolerance"])
    failures = 0
    for name, (exact_ok, float_ok, total) in counts.items():
        status = "ok" if exact_ok == total == float_ok else "FAIL"
        failures += total - exact_ok + total - float_ok
        click.echo(f"{name:12s} exact {exact_ok}/{total}  "
                   f"float {float_ok}/{total}  {status}")
    if failures:
        _fail(EXIT_VERIFICATION, f"{failures} reference entries mismatched")
    click.echo("all reference entries reproduced")


if __name__ == "__main__":
    main()
