"""Shared assertion helpers for the numeric tests."""

import mpmath as mp

from sobspec.oracle import SqrtRational, squared_entry_compare

TOL30 = mp.mpf("1e-30")
TOL28 = mp.mpf("1e-28")


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


def dense_block_residual(A, B, block):
    """Reference for ``block_residual``: scans every position of the leading
    blocks, in and out of the declared bands."""
    with mp.workprec(max(A.precision, B.precision)):
        diff = scale = mp.mpf(0)
        for i in range(block):
            for j in range(block):
                a, b = A.entry(i, j), B.entry(i, j)
                diff = max(diff, abs(a - b))
                scale = max(scale, abs(a), abs(b))
        return diff / max(mp.mpf(1), scale)
