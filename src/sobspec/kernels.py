"""Reproducing kernels and their first partial derivatives.

K_n(x, y) = sum_{k<=n} p_k(x) p_k(y); the mixed partials up to order (1,1) are
needed at the mass point.  Every kernel value has one route, the direct
summation over the jets of the family: :class:`KernelTable` holds the
confluent values at (c, c), and :func:`kernel_at` and :func:`kernel_dy_at_c`
sum at any x, the mass point included.  The summation needs no P_{n+1} and
no division by x - y, so it keeps its accuracy however close x is to y.

:meth:`KernelTable.build` runs the jet recurrence and the three sums on raw
values with the table's scalar kit (:class:`sobspec.core.Arith`), so every
value has the bits of the mpf loop without its object overhead.  The
pointwise sums stay on mpf: they take the jets at c from a table when one is
at hand (``KernelTable.cjets``) instead of evaluating them again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _jet_rows, arith, context, eval_jet, to_mpf


@dataclass(frozen=True)
class KernelTable:
    """Cumulative confluent kernel sums at a fixed point c, plus the jets there.

    K[n], K01[n], K11[n] are the order-(0,0), (0,1), (1,1) kernel values
    K^(j,k)_n(c, c) for n = 0..size-1, built by direct summation.
    ``cjets[k][j]`` is the j-th derivative of P_k at c, j <= 2, as rows of
    :func:`sobspec.core.eval_jet`; the ledgers read j <= 1, the connection
    check of :func:`sobspec.christoffel.eval_iterated` at c reads j = 2.
    """

    rec: object
    c: object
    K: tuple
    K01: tuple
    K11: tuple
    cjets: tuple

    @property
    def size(self):
        return len(self.K)

    @classmethod
    def build(cls, rec, c):
        """The jets and the sums run on raw values with the libmp operations
        of mpf ``1 /``, ``*`` and ``+`` (``core.arith``), in the same order:
        the bits of the mpf sums."""
        kit = arith(rec.precision)
        add, mul, div = kit.add, kit.mul, kit.div
        c = to_mpf(c, context(rec.precision))
        rows = _jet_rows(rec, rec.size - 1, c, 2)
        K, K01, K11 = [], [], []
        s = s01 = s11 = kit.zero
        for (v, dv, _), h in zip(rows, kit.raw(rec.norm_sq)):
            w = div(kit.one, h)
            s = add(s, mul(mul(v, v), w))
            s01 = add(s01, mul(mul(v, dv), w))
            s11 = add(s11, mul(mul(dv, dv), w))
            K.append(s)
            K01.append(s01)
            K11.append(s11)
        return cls(rec, c, *map(kit.wrap, (K, K01, K11)), tuple(map(kit.wrap, rows)))


def _kernel_sum(rec, n, jx, jy, j):
    """sum_{k<=n} P_k(x) P_k^(j)(y) / ||P_k||^2 for j = 0 or 1, as one fsum,
    from the jets ``jx`` at x and ``jy`` at y."""
    return context(rec.precision).fsum(
        jx[k][0] * jy[k][j] / rec.norm_sq[k] for k in range(n + 1))


def kernel_at(rec, n, x, y):
    """K_n(x, y) = sum_{k<=n} p_k(x) p_k(y), by direct summation."""
    return _kernel_sum(rec, n, eval_jet(rec, n, x, order=0), eval_jet(rec, n, y, order=0), 0)


def kernel_dy_at_c(rec, n, x, c):
    """K^(0,1)_n(x, c) = sum_{k<=n} p_k(x) p'_k(c), by direct summation."""
    return _kernel_sum(rec, n, eval_jet(rec, n, x, order=0), eval_jet(rec, n, c, order=1), 1)
