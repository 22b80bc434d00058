"""Command-line front end.

Three commands: ``generate`` emits all chain matrices and scalar ledgers in
machine-readable form, ``verify`` runs the factorization-identity residual
suite against a tolerance, and ``reproduce-paper`` checks the computed
matrices against the shipped reference tables for the worked Laguerre
example (exact oracle path and floating path).

Every option is declared once, in ``OPTIONS``: ``generate`` and ``verify``
take all of them, ``reproduce-paper`` takes ``--precision`` and
``--tolerance`` with help of its own.  Option ``--name`` can be overridden
through the environment variable ``SOBSPEC_<NAME>``.  A run is recorded as
its options as parsed, in table order and without ``--out``: this document
is ``run.json`` and the ``config`` block of ``verification.json``.

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
import mpmath as mp

from .core import MeasureSpec, SobolevSpec, context
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
from .serialize import (
    format_value,
    ledgers_to_csv,
    ledgers_to_doc,
    matrix_to_csv,
    matrix_to_json,
)

EXIT_OK = 0
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


def _all_options(f):
    for name in reversed(OPTIONS):
        f = _option(name)(f)
    return f


def _number(text):
    """Exact rational when the literal allows it, high-precision float otherwise."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        try:
            return mp.mpf(str(text))
        except ValueError:
            raise InvalidParameterError(f"cannot parse number {text!r}") from None


def _tolerance(text):
    """The tolerance literal, once it is known to parse to a finite number > 0."""
    try:
        value = mp.mpf(str(text))
    except ValueError:
        value = mp.nan
    if not (mp.isfinite(value) and value > 0):
        raise InvalidParameterError(f"tolerance must be finite and > 0, got {text!r}")
    return str(text)


def _build(command, opts):
    """Parse the options and build the suite.

    Returns the run document, the parsed numbers alpha, c, M, N (by name)
    and the suite.  Parsing goes numbers, tolerance, measure, so the first
    fault reported is the same whatever the command-line order.
    """
    numbers = {name: _number(opts[name]) for name in ("alpha", "c", "M", "N")}
    parsed = {**opts, **{k: str(v) for k, v in numbers.items()},
              "tolerance": _tolerance(opts["tolerance"])}
    if opts["measure"] != "laguerre":
        raise InvalidParameterError(
            f"CLI supports the laguerre family only, got {opts['measure']!r} "
            "(custom recurrences are a library-level feature)"
        )
    spec = SobolevSpec(measure=MeasureSpec.laguerre(numbers["alpha"]),
                       c=numbers["c"], M=numbers["M"], N=numbers["N"])
    suite = MatrixSuite.build(spec, opts["size"], guard=opts["guard"],
                              precision=opts["precision"])
    doc = {"command": command, **{k: parsed[k] for k in OPTIONS if k != "out"}}
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
@_all_options
@_exit_codes
def generate(**opts):
    """Write all chain matrices and scalar ledgers to the output directory."""
    doc, numbers, suite = _build("generate", opts)
    as_json = opts["format"] == "json"
    exact = _oracle_entries(numbers, suite) if as_json else {}
    outdir = Path(opts["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "run.json").write_text(json.dumps(doc, indent=1) + "\n")
    matrices = suite.named_matrices()
    for name, matrix in matrices.items():
        if as_json:
            (outdir / f"{name}.json").write_text(matrix_to_json(name, matrix, exact.get(name)))
        else:
            (outdir / f"{name}.csv").write_text(matrix_to_csv(matrix))
    if as_json:
        ledgers = json.dumps(ledgers_to_doc(suite), indent=1) + "\n"
        (outdir / "ledgers.json").write_text(ledgers)
    else:
        for part, text in ledgers_to_csv(suite).items():
            (outdir / f"ledger_{part}.csv").write_text(text)
    click.echo(f"wrote {len(matrices) + 2} files to {outdir}")


def _oracle_entries(numbers, suite):
    """Exact squared-rational entries when the oracle covers the run, else {}."""
    if not all(isinstance(v, Fraction) for v in numbers.values()):
        return {}
    try:
        osuite = build_oracle_suite(*numbers.values(), suite.J.nrows)
    except OracleUnsupportedError:
        return {}
    return {name: {(i, j): osuite.matrices[name][i][j] for i, j, _ in matrix.band_entries()}
            for name, matrix in suite.named_matrices().items()}


@main.command()
@_all_options
@_exit_codes
def verify(**opts):
    """Run the factorization-identity residual suite; exit 4 on a breach."""
    config, _, suite = _build("verify", opts)
    precision, tolerance = opts["precision"], config["tolerance"]
    report = verify_propositions(suite)
    ctx = context(precision)
    ok = report.all_within(ctx.mpf(tolerance))
    rows = report.as_rows()
    doc = {
        "config": config,
        "tolerance": tolerance,
        "pass": bool(ok),
        "max_residual": format_value(report.max_residual, precision),
        "residuals": [
            {"name": name, "block": block, "residual": format_value(res, precision)}
            for name, res, block in rows
        ],
    }
    outdir = Path(opts["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "verification.json").write_text(json.dumps(doc, indent=1) + "\n")
    for name, res, block in rows:
        click.echo(f"{name:24s} block={block:3d} residual={ctx.nstr(res, 8)}")
    if not ok:
        _fail(EXIT_VERIFICATION, f"max residual {doc['max_residual']} exceeds {tolerance}")
    click.echo(f"all residuals within {tolerance}")


@main.command(name="reproduce-paper")
@_option("precision", "Floating-path precision in bits.")
@_option("tolerance", "Floating-path relative tolerance.")
@_exit_codes
def reproduce_paper(precision, tolerance):
    """Compare computed matrices against the published reference tables."""
    tol = _tolerance(tolerance)
    config, golden = load_reference()
    spec = SobolevSpec(
        measure=MeasureSpec.laguerre(Fraction(config["alpha"])),
        c=Fraction(config["c"]), M=Fraction(config["M"]), N=Fraction(config["N"]),
    )
    top = max(g.nrows for g in golden.values())
    suite = MatrixSuite.build(spec, size=top + 2, guard=4, precision=precision)
    osuite = build_oracle_suite(config["alpha"], config["c"], config["M"],
                                config["N"], top)
    counts = compare_reference(golden, computed_counterparts(suite), osuite, precision, tol)
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
