"""Reproducing kernels and their first partial derivatives.

K_n(x, y) = sum_{k<=n} p_k(x) p_k(y); the mixed partials up to order (1,1) are
needed at the mass point.  Their confluent values at (c, c) have one route,
the direct summation of :class:`KernelTable`.  Away from the diagonal the
pointwise evaluators use the Christoffel-Darboux quotient, validated against
the summation in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import context, eval_jet, to_mpf
from .errors import ConfluentPointError

#: |x - y| <= CD_SWITCH * (1 + |x| + |y|) routes to direct summation
#: (cancellation in the divided difference).
CD_SWITCH = 1e-8


def _near(x, y):
    return abs(x - y) <= CD_SWITCH * (1 + abs(x) + abs(y))


@dataclass(frozen=True)
class KernelTable:
    """Cumulative confluent kernel sums at a fixed point c, plus the jets there.

    K[n], K01[n], K11[n] are the order-(0,0), (0,1), (1,1) kernel values
    K^(j,k)_n(c, c) for n = 0..size-1, built by direct summation (the
    only path).  ``cjets`` holds P_0..P_{size-1} at c with their first and
    second derivatives: the ledgers read orders 0 and 1, the connection check
    of :func:`sobspec.christoffel.eval_iterated` at c reads order 2.
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


def kernel_at(rec, n, x, y):
    """K_n(x, y), by the Christoffel-Darboux quotient away from the diagonal
    and by direct summation near it."""
    if not 0 <= n < rec.size - 1:
        raise IndexError(f"kernel of order {n} needs P_{n + 1}; table size {rec.size}")
    ctx = context(rec.precision)
    x, y = to_mpf(x, ctx), to_mpf(y, ctx)
    jx = eval_jet(rec, n + 1, x, order=0)
    if _near(x, y):
        jy = jx if x == y else eval_jet(rec, n, y, order=0)
        return ctx.fsum(jx.jet(k) * jy.jet(k) / rec.norm_sq[k] for k in range(n + 1))
    jy = eval_jet(rec, n + 1, y, order=0)
    num = jx.jet(n + 1) * jy.jet(n) - jx.jet(n) * jy.jet(n + 1)
    return num / ((x - y) * rec.norm_sq[n])


def kernel_dy_at_c(rec, n, x, c):
    """K^(0,1)_n(x, c) = sum_{k<=n} p_k(x) p'_k(c).

    Uses the two-fraction closed form built from P_{n+1}, P_n and their
    derivatives at c when x is well separated from c, direct summation
    otherwise.  x exactly equal to c raises; the confluent values live in
    :class:`KernelTable`.
    """
    if not 0 <= n < rec.size - 1:
        raise IndexError(f"kernel of order {n} needs P_{n + 1}; table size {rec.size}")
    ctx = context(rec.precision)
    x, c = to_mpf(x, ctx), to_mpf(c, ctx)
    if x == c:
        raise ConfluentPointError("x coincides with the mass point; use KernelTable")
    jc = eval_jet(rec, n + 1, c, order=1)
    if _near(x, c):
        jx = eval_jet(rec, n, x, order=0)
        return ctx.fsum(jx.jet(k) * jc.jet(k, 1) / rec.norm_sq[k] for k in range(n + 1))
    jx = eval_jet(rec, n + 1, x, order=0)
    t1 = (jx.jet(n + 1) * jc.jet(n) - jx.jet(n) * jc.jet(n + 1)) / (x - c) ** 2
    t2 = (jx.jet(n + 1) * jc.jet(n, 1) - jx.jet(n) * jc.jet(n + 1, 1)) / (x - c)
    return (t1 + t2) / rec.norm_sq[n]

