"""Command-line front end.

Three commands: ``generate`` emits all chain matrices and scalar ledgers in
machine-readable form, ``verify`` runs the factorization-identity residual
suite against a tolerance, and ``reproduce-paper`` checks the computed
matrices against the shipped reference tables for the worked Laguerre
example (exact oracle path and floating path).

Every option can be overridden through a ``SOBSPEC_*`` environment variable.
Exit codes: 0 success, 2 invalid parameters, 3 numerical failure
(not-positive-definite or precision exhaustion), 4 verification failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
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
from .golden import compare_reference, load_reference
from .matrices import MatrixSuite, multiply, verify_propositions
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


@dataclass(frozen=True)
class RunConfig:
    """Parsed CLI configuration for one run."""

    command: str
    measure: str
    alpha: object
    c: object
    M: object
    N: object
    size: int
    precision: int
    guard: int
    out: Path
    format: str
    tolerance: object

    def as_doc(self):
        return {
            "command": self.command,
            "measure": self.measure,
            "alpha": str(self.alpha),
            "c": str(self.c),
            "M": str(self.M),
            "N": str(self.N),
            "size": self.size,
            "precision": self.precision,
            "guard": self.guard,
            "format": self.format,
            "tolerance": self.tolerance,
        }


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


def _build_spec(config):
    if config.measure != "laguerre":
        raise InvalidParameterError(
            f"CLI supports the laguerre family only, got {config.measure!r} "
            "(custom recurrences are a library-level feature)"
        )
    measure = MeasureSpec.laguerre(config.alpha)
    return SobolevSpec(measure=measure, c=config.c, M=config.M, N=config.N)


def _spec_options(f):
    opts = [
        click.option("--measure", default="laguerre", envvar="SOBSPEC_MEASURE",
                     show_default=True, help="Base measure family."),
        click.option("--alpha", default="0", envvar="SOBSPEC_ALPHA",
                     show_default=True, help="Laguerre exponent, > -1."),
        click.option("--c", "c", default="-1", envvar="SOBSPEC_C",
                     show_default=True, help="Mass point, outside the support."),
        click.option("--M", "mass_m", default="1", envvar="SOBSPEC_M",
                     show_default=True, help="Mass on function values at c."),
        click.option("--N", "mass_n", default="1", envvar="SOBSPEC_N",
                     show_default=True, help="Mass on derivative values at c."),
        click.option("--size", default=8, type=int, envvar="SOBSPEC_SIZE",
                     show_default=True, help="Reported truncation size (>= 3)."),
        click.option("--precision", default=256, type=int, envvar="SOBSPEC_PRECISION",
                     show_default=True, help="Working precision in bits (>= 64)."),
        click.option("--guard", default=4, type=int, envvar="SOBSPEC_GUARD",
                     show_default=True, help="Guard rows built beyond the size (>= 2)."),
        click.option("--out", default="sobspec-out", envvar="SOBSPEC_OUT",
                     show_default=True, help="Output directory."),
        click.option("--format", "fmt", default="json", envvar="SOBSPEC_FORMAT",
                     type=click.Choice(["json", "csv"]), show_default=True,
                     help="Matrix and ledger file format."),
        click.option("--tolerance", default="1e-30", envvar="SOBSPEC_TOLERANCE",
                     show_default=True, help="Residual tolerance for verification."),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


def _make_config(command, measure, alpha, c, mass_m, mass_n, size, precision,
                 guard, out, fmt, tolerance):
    return RunConfig(
        command=command,
        measure=measure,
        alpha=_number(alpha),
        c=_number(c),
        M=_number(mass_m),
        N=_number(mass_n),
        size=size,
        precision=precision,
        guard=guard,
        out=Path(out),
        format=fmt,
        tolerance=_tolerance(tolerance),
    )


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    try:
        return fn()
    except InvalidParameterError as exc:
        _fail(EXIT_INVALID, exc)
    except (NotPositiveDefiniteError, NumericalFailureError) as exc:
        _fail(EXIT_NUMERICAL, exc)


@click.group()
def main():
    """Sobolev-type orthogonal polynomial matrix factorizations."""


@main.command()
@_spec_options
def generate(measure, alpha, c, mass_m, mass_n, size, precision, guard, out,
             fmt, tolerance):
    """Write all chain matrices and scalar ledgers to the output directory."""

    def body():
        config = _make_config("generate", measure, alpha, c, mass_m, mass_n, size,
                              precision, guard, out, fmt, tolerance)
        spec = _build_spec(config)
        suite = MatrixSuite.build(spec, config.size, guard=config.guard,
                                  precision=config.precision)
        exact = _oracle_entries(config, suite)
        outdir = config.out
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "run.json").write_text(json.dumps(config.as_doc(), indent=1) + "\n")
        for name, matrix in suite.named_matrices().items():
            if config.format == "json":
                text = matrix_to_json(name, matrix, exact.get(name))
                (outdir / f"{name}.json").write_text(text)
            else:
                (outdir / f"{name}.csv").write_text(matrix_to_csv(matrix))
        if config.format == "json":
            doc = ledgers_to_doc(suite)
            (outdir / "ledgers.json").write_text(json.dumps(doc, indent=1) + "\n")
        else:
            for part, text in ledgers_to_csv(suite).items():
                (outdir / f"ledger_{part}.csv").write_text(text)
        click.echo(f"wrote {len(suite.named_matrices()) + 2} files to {outdir}")

    _guarded(body)


def _oracle_entries(config, suite):
    """Exact squared-rational entries when the oracle covers the run, else {}."""
    if config.format != "json" or config.measure != "laguerre":
        return {}
    rationals = (config.alpha, config.c, config.M, config.N)
    if not all(isinstance(v, Fraction) for v in rationals):
        return {}
    try:
        osuite = build_oracle_suite(config.alpha, config.c, config.M, config.N,
                                    suite.J.nrows)
    except OracleUnsupportedError:
        return {}
    out = {}
    for name, matrix in suite.named_matrices().items():
        rows = osuite.matrices[name]
        out[name] = {(i, j): rows[i][j] for i, j, _ in matrix.band_entries()}
    return out


@main.command()
@_spec_options
def verify(measure, alpha, c, mass_m, mass_n, size, precision, guard, out,
           fmt, tolerance):
    """Run the factorization-identity residual suite; exit 4 on a breach."""

    def body():
        config = _make_config("verify", measure, alpha, c, mass_m, mass_n, size,
                              precision, guard, out, fmt, tolerance)
        spec = _build_spec(config)
        suite = MatrixSuite.build(spec, config.size, guard=config.guard,
                                  precision=config.precision)
        report = verify_propositions(suite)
        ctx = context(config.precision)
        ok = report.all_within(ctx.mpf(config.tolerance))
        doc = {
            "config": config.as_doc(),
            "tolerance": config.tolerance,
            "pass": bool(ok),
            "max_residual": format_value(report.max_residual, config.precision),
            "residuals": [
                {
                    "name": name,
                    "block": block,
                    "residual": format_value(res, config.precision),
                }
                for name, res, block in report.as_rows()
            ],
        }
        outdir = config.out
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "verification.json").write_text(json.dumps(doc, indent=1) + "\n")
        for name, res, block in report.as_rows():
            click.echo(f"{name:24s} block={block:3d} residual={ctx.nstr(res, 8)}")
        if not ok:
            _fail(EXIT_VERIFICATION,
                  f"max residual {doc['max_residual']} exceeds {config.tolerance}")
        click.echo(f"all residuals within {config.tolerance}")

    _guarded(body)


@main.command(name="reproduce-paper")
@click.option("--precision", default=256, type=int, envvar="SOBSPEC_PRECISION",
              show_default=True, help="Floating-path precision in bits.")
@click.option("--tolerance", default="1e-30", envvar="SOBSPEC_TOLERANCE",
              show_default=True, help="Floating-path relative tolerance.")
def reproduce_paper(precision, tolerance):
    """Compare computed matrices against the published reference tables."""

    def body():
        tol = _tolerance(tolerance)
        config, golden = load_reference()
        spec = SobolevSpec(
            measure=MeasureSpec.laguerre(Fraction(config["alpha"])),
            c=Fraction(config["c"]), M=Fraction(config["M"]), N=Fraction(config["N"]),
        )
        top = max(g.nrows for g in golden.values())
        suite = MatrixSuite.build(spec, size=top + 2, guard=4, precision=precision)
        computed = dict(suite.named_matrices())
        shifted = suite.J2.shifted(-suite.spec.c)
        computed["J2_shift_sq"] = multiply(shifted, shifted)
        osuite = build_oracle_suite(config["alpha"], config["c"], config["M"],
                                    config["N"], top)
        counts = compare_reference(golden, computed, osuite, precision, tol)
        failures = 0
        for name, (exact_ok, float_ok, total) in counts.items():
            status = "ok" if exact_ok == total == float_ok else "FAIL"
            failures += total - exact_ok + total - float_ok
            click.echo(f"{name:12s} exact {exact_ok}/{total}  "
                       f"float {float_ok}/{total}  {status}")
        if failures:
            _fail(EXIT_VERIFICATION, f"{failures} reference entries mismatched")
        click.echo("all reference entries reproduced")

    _guarded(body)


if __name__ == "__main__":
    main()
