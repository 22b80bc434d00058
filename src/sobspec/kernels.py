"""Reproducing kernels, their first partial derivatives, and confluent values.

K_n(x, y) = sum_{k<=n} p_k(x) p_k(y); the mixed partials up to order (1,1) are
needed at the mass point.  Direct summation is the reference path everywhere;
the Christoffel-Darboux quotient and the second/third-derivative confluent
closed forms are accelerations validated against it in the test suite (the
confluent ones against the cumulative sums of :class:`KernelTable`).

Index convention of the mixed confluent closed form: the expression

    [ (P_n P'''_{n+1} - P_{n+1} P'''_n)/6 + (P'_n P''_{n+1} - P'_{n+1} P''_n)/2 ] / ||P_n||^2

(all evaluated at c) equals K^(1,1)_n(c, c) -- the *same* index n as the
P_n/P_{n+1} pair and the prefactor, not n-1.  This was fixed empirically
against the summation oracle (for the Laguerre alpha=0, c=-1 table it yields
1 and 10 at n = 1, 2, which are the n-indexed partial sums) and is enforced
by a regression test.
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
class KernelConfluents:
    """Confluent kernel values at the mass point: K, K01 (= K10) and K11.

    The 2x2 matrix [[K, K01], [K01, K11]] is the Gram matrix of the
    evaluation functionals f -> f(c), f -> f'(c), hence positive semidefinite.
    """

    K: object
    K01: object
    K11: object


@dataclass(frozen=True)
class KernelTable:
    """Cumulative confluent kernel sums at a fixed point c, plus the jets there.

    K[n], K01[n], K11[n] are the order-(0,0), (0,1), (1,1) kernel values
    K^(j,k)_n(c, c) for n = 0..size-1, built by direct summation (the
    reference path).  ``cjets`` holds derivatives of P_0..P_{size-1} at c up
    to order 3.
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
        jets = eval_jet(rec, rec.size - 1, c, order=3)
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
    :func:`kernel_confluents`.
    """
    if not 0 <= n < rec.size - 1:
        raise IndexError(f"kernel of order {n} needs P_{n + 1}; table size {rec.size}")
    ctx = context(rec.precision)
    x, c = to_mpf(x, ctx), to_mpf(c, ctx)
    if x == c:
        raise ConfluentPointError(
            "x coincides with the mass point; use kernel_confluents"
        )
    jc = eval_jet(rec, n + 1, c, order=1)
    if _near(x, c):
        jx = eval_jet(rec, n, x, order=0)
        return ctx.fsum(jx.jet(k) * jc.jet(k, 1) / rec.norm_sq[k] for k in range(n + 1))
    jx = eval_jet(rec, n + 1, x, order=0)
    t1 = (jx.jet(n + 1) * jc.jet(n) - jx.jet(n) * jc.jet(n + 1)) / (x - c) ** 2
    t2 = (jx.jet(n + 1) * jc.jet(n, 1) - jx.jet(n) * jc.jet(n + 1, 1)) / (x - c)
    return (t1 + t2) / rec.norm_sq[n]


def kernel_confluents(rec, n, c):
    """Confluent values K_n(c,c), K^(0,1)_n(c,c), K^(1,1)_n(c,c) by closed forms.

    All three derive from the jets of P_n and P_{n+1} at c (orders up to 3);
    see the module docstring for the index convention of the (1,1) form.
    """
    if not 0 <= n < rec.size - 1:
        raise IndexError(f"confluents of order {n} need P_{n + 1}; table size {rec.size}")
    c = to_mpf(c, context(rec.precision))
    j = eval_jet(rec, n + 1, c, order=3)
    w = 1 / rec.norm_sq[n]
    K = (j.jet(n + 1, 1) * j.jet(n) - j.jet(n, 1) * j.jet(n + 1)) * w
    K01 = (j.jet(n) * j.jet(n + 1, 2) - j.jet(n + 1) * j.jet(n, 2)) / 2 * w
    K11 = ((j.jet(n) * j.jet(n + 1, 3) - j.jet(n + 1) * j.jet(n, 3)) / 6
           + (j.jet(n, 1) * j.jet(n + 1, 2) - j.jet(n + 1, 1) * j.jet(n, 2)) / 2) * w
    return KernelConfluents(K=K, K01=K01, K11=K11)
