"""Reproducing kernels and their first partial derivatives.

K_n(x, y) = sum_{k<=n} p_k(x) p_k(y); the mixed partials up to order (1,1) are
needed at the mass point.  Every kernel value has one route, the direct
summation over the jets of the family: :class:`KernelTable` holds the
confluent values at (c, c), and :func:`kernel_at` and :func:`kernel_dy_at_c`
sum at any x, the mass point included.  The summation needs no P_{n+1} and
no division by x - y, so it keeps its accuracy however close x is to y.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import context, eval_jet, to_mpf


@dataclass(frozen=True)
class KernelTable:
    """Cumulative confluent kernel sums at a fixed point c, plus the jets there.

    K[n], K01[n], K11[n] are the order-(0,0), (0,1), (1,1) kernel values
    K^(j,k)_n(c, c) for n = 0..size-1, built by direct summation.
    ``cjets`` holds P_0..P_{size-1} at c with their first and second
    derivatives: the ledgers read orders 0 and 1, the connection check of
    :func:`sobspec.christoffel.eval_iterated` at c reads order 2.
    """

    rec: object
    c: object
    K: tuple
    K01: tuple
    K11: tuple
    cjets: object

    @property
    def size(self):
        return len(self.K)

    @classmethod
    def build(cls, rec, c):
        ctx = context(rec.precision)
        c = to_mpf(c, ctx)
        jets = eval_jet(rec, rec.size - 1, c, order=2)
        K, K01, K11 = [], [], []
        s = s01 = s11 = ctx.zero
        for k in range(rec.size):
            w = 1 / rec.norm_sq[k]
            v, dv = jets.jet(k, 0), jets.jet(k, 1)
            s += v * v * w
            s01 += v * dv * w
            s11 += dv * dv * w
            K.append(s)
            K01.append(s01)
            K11.append(s11)
        return cls(rec=rec, c=c, K=tuple(K), K01=tuple(K01), K11=tuple(K11),
                   cjets=jets)


def _kernel_sum(rec, n, x, y, j):
    """sum_{k<=n} P_k(x) P_k^(j)(y) / ||P_k||^2 for j = 0 or 1, as one fsum."""
    ctx = context(rec.precision)
    jx = eval_jet(rec, n, x, order=0)
    jy = eval_jet(rec, n, y, order=j)
    return ctx.fsum(jx.jet(k) * jy.jet(k, j) / rec.norm_sq[k] for k in range(n + 1))


def kernel_at(rec, n, x, y):
    """K_n(x, y) = sum_{k<=n} p_k(x) p_k(y), by direct summation."""
    return _kernel_sum(rec, n, x, y, 0)


def kernel_dy_at_c(rec, n, x, c):
    """K^(0,1)_n(x, c) = sum_{k<=n} p_k(x) p'_k(c), by direct summation."""
    return _kernel_sum(rec, n, x, c, 1)
