"""Shared assertion helpers for the numeric tests, an exact moment
functional of the Laguerre weight that is independent of the package, and
the oracle's exact twice-transformed and Sobolev polynomials."""

import dataclasses
import functools
import math
import sys
import types
from fractions import Fraction as F

import mpmath as mp
from mpmath.libmp import from_rational, round_nearest, to_rational

from sobspec import core
from sobspec.core import EXACT, MeasureSpec, SqrtRational, arith
from sobspec.oracle import grams, monic_system, squared_entry_compare

TOL30 = mp.mpf("1e-30")
TOL28 = mp.mpf("1e-28")


def reflected_laguerre(size):
    """Weight e^x on (-inf, 0): beta_n = -(2n+1), gamma_n = n^2, mass 1."""
    return MeasureSpec.custom(
        beta=[-(2 * n + 1) for n in range(size)],
        gamma=[n * n for n in range(size)],
        support=(float("-inf"), 0.0),
        norm0_sq=1,
    )


def custom_table(beta, gamma, precision):
    """The recurrence table of the given coefficients at ``precision`` bits.
    The ledger builders read no support, so a wide placeholder is given."""
    return MeasureSpec.custom(beta, gamma, support=(-100.0, 100.0)).recurrence(
        len(beta), precision)


def logged_kit(monkeypatch, precision, layers=None):
    """Put in place of ``arith(precision)`` a kit that appends each call of
    its operations to the returned list as (name, args, result, layer).
    ``layers`` maps code objects to layer names, and ``layer`` is the name of
    the innermost calling frame whose code it holds (None without a match)."""
    kit, calls = arith(precision), []

    def layer():
        frame = sys._getframe(2)
        while frame is not None and frame.f_code not in layers:
            frame = frame.f_back
        return frame and layers[frame.f_code]

    def logged(name):
        op = getattr(kit, name)

        def call(*args):
            calls.append((name, args, op(*args), layers and layer()))
            return calls[-1][2]
        return call

    monkeypatch.setitem(core._ARITHS, precision, dataclasses.replace(kit, **{
        name: logged(name) for name in ("add", "sub", "mul", "div", "neg", "sqrt", "gt")}))
    return calls


def as_mpf(table):
    """A recurrence table, kernel table or ledger with its tuple fields read
    as mpf, by ``arith(p).wrap`` of the raw values it stores (the jets at c
    row by row); its other fields and ``size`` as they are."""
    rec = table
    for link in ("chris", "kt", "rec"):
        rec = getattr(rec, link, rec)
    wrap = arith(rec.precision).wrap

    def read(name, value):
        if name == "cjets":
            return tuple(map(wrap, value))
        return wrap(value) if isinstance(value, tuple) else value

    return types.SimpleNamespace(size=table.size, **{
        f.name: read(f.name, getattr(table, f.name)) for f in dataclasses.fields(table)})


def with_auxiliary(sob):
    """:func:`as_mpf` of a Sobolev ledger, its auxiliary coefficients read as
    mpf after its stored fields."""
    aux, wrap = sob.auxiliary(), arith(sob.chris.kt.rec.precision).wrap
    return types.SimpleNamespace(**vars(as_mpf(sob)), **{
        f.name: wrap(getattr(aux, f.name)) for f in dataclasses.fields(aux)})


def scaled(values, index, factor, precision):
    """The raw ``values`` with entry ``index`` times the mpf ``factor``, the
    product rounded at ``precision`` bits as mpf ``*`` rounds it."""
    out = list(values)
    out[index] = (arith(precision).wrap([out[index]])[0] * factor)._mpf_
    return tuple(out)


def rel(a, b):
    """|a - b| scaled by max(1, |a|, |b|), matching the contract tolerances."""
    return abs(a - b) / max(mp.mpf(1), abs(a), abs(b))


def assert_rel(a, b, tol=TOL30):
    err = rel(a, b)
    assert err <= tol, f"relative error {mp.nstr(err, 6)}: {a} vs {b}"


def assert_squared(value, square, sign=1, tol=TOL30):
    """Assert a floating value matches sign * sqrt(square) of an exact
    rational, by the package's one float-versus-exact rule."""
    report = squared_entry_compare("value", {(0, 0): value},
                                   {(0, 0): SqrtRational(sign, square)}, tol)
    assert report.all_ok, (f"{value} vs {sign} * sqrt({square}): relative "
                           f"error of the square {report.verdicts[0].rel_err:.3g}")


def fraction(x):
    """The exact value of an mpf as a Fraction."""
    return F(*to_rational(x._mpf_))


def mpq(q):
    """The Fraction q as an mpf at the ambient precision."""
    return mp.mpf(q.numerator) / q.denominator


def exact_rows(A):
    """A's rows as dicts column -> exact value, zeros left out; every
    position is read, in and out of the declared band.  The entries of an
    aligned matrix are ints standing for themselves times 2**A.exp."""
    value = fraction if A.exp is None else (lambda v: F(v) * F(2) ** A.exp)
    return [{j: value(v) for j in range(A.ncols) if (v := A.entry(i, j))}
            for i in range(A.nrows)]


def exact_matmul(X, Y):
    """The exact product of two matrices given as :func:`exact_rows`."""
    out = []
    for row in X:
        acc = {}
        for k, x in row.items():
            for j, y in Y[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append(acc)
    return out


def mpf_of(x, precision):
    """The number x as an mpf of ``precision`` bits, rounded once."""
    kit = arith(precision)
    return kit.wrap([kit.of(x)])[0]


def exact_residual(X, Y, block, precision):
    """Reference for ``block_residual``: over every position of the leading
    blocks of two :func:`exact_rows` matrices, the exact max |X - Y| divided
    by the exact max(1, largest |entry|), rounded once to nearest at
    ``precision`` bits."""
    cells = [(X[i].get(j, 0), Y[i].get(j, 0)) for i in range(block) for j in range(block)]
    q = F(max(abs(x - y) for x, y in cells)) / max(1, *(abs(v) for cell in cells for v in cell))
    return arith(precision).ctx.make_mpf(
        from_rational(q.numerator, q.denominator, precision, round_nearest))


def dense_product(A, B):
    """Reference for ``multiply``: rows of the ``_mpf_`` tuples of A @ B,
    every entry summing A(i, k) B(k, j) with mpf arithmetic over the k where
    both lie in their declared bands, in ascending k, from the first term."""
    rows = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            acc = None
            for k in range(A.ncols):
                if A.in_band(i, k) and B.in_band(k, j):
                    term = A.entry(i, k) * B.entry(k, j)
                    acc = term if acc is None else acc + term
            row.append(mp.libmp.fzero if acc is None else acc._mpf_)
        rows.append(row)
    return rows


# Exact polynomials as ascending coefficient lists of Fractions.

def poly_mul(f, g):
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def poly_eval(f, x):
    return sum((a * F(x) ** k for k, a in enumerate(f)), F(0))


def poly_deriv(f):
    return [k * a for k, a in enumerate(f)][1:] or [F(0)]


def laguerre_monic(alpha, n):
    """Monic Laguerre polynomial of degree n by its closed form (-1)^n n! L_n^(alpha)."""
    return [F((-1) ** (n - k) * math.factorial(n) * math.comb(n + alpha, n - k),
              math.factorial(k)) for k in range(n + 1)]


def fractions(values):
    """Values of an ``EXACT`` table that are rationals (every field of a
    recurrence table but ``leading``), as a tuple of Fractions."""
    return tuple(v.as_rational() for v in values)


def in_monomials(alpha, coeffs):
    """sum_i coeffs[i] P_i, the P_i by the closed form."""
    out = [F(0)] * len(coeffs)
    for i, a in enumerate(coeffs):
        for k, b in enumerate(laguerre_monic(alpha, i)):
            out[k] += a * b
    return out


def moment_inner(alpha, f, g, c=0, M=0, N=0):
    """int f g x^alpha e^(-x) dx on (0, inf) from the moments (n + alpha)!,
    plus M f(c) g(c) + N f'(c) g'(c)."""
    integral = sum(a * math.factorial(n + alpha) for n, a in enumerate(poly_mul(f, g)))
    return (integral + M * poly_eval(f, c) * poly_eval(g, c)
            + N * poly_eval(poly_deriv(f), c) * poly_eval(poly_deriv(g), c))


@functools.cache
def oracle_families(M, N, degrees):
    """The monic twice-transformed and Sobolev families of Laguerre alpha = 0
    with c = -1 and masses M, N through degree ``degrees - 1``, from the
    oracle's exact LDL^T: [(it2, it2_norm_sq), (sob, sob_norm_sq)], each
    polynomial as its ascending monomial coefficients."""
    _, G2, Gs = grams(MeasureSpec.laguerre(0).recurrence(degrees + 1, EXACT), F(-1), M, N)
    return [([in_monomials(0, row) for row in C], D)
            for C, D in (monic_system(G2), monic_system(Gs))]


def oracle_value(family, n, x, normalized=False):
    """The n-th polynomial of an :func:`oracle_families` family at the mpf x,
    exact, then rounded at the ambient precision (divided by its norm with
    ``normalized``)."""
    polys, norm_sq = family
    value = mpq(poly_eval(polys[n], fraction(x)))
    return value / mp.sqrt(mpq(norm_sq[n])) if normalized else value
