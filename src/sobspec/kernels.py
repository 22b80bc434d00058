"""The confluent reproducing kernels at the mass point.

K_n(x, y) = sum_{k<=n} p_k(x) p_k(y); the ledgers need it and its mixed
partials up to order (1,1) at (c, c).  :class:`KernelTable` holds them, each
by direct summation over the jets of the family at c, which needs no P_{n+1}
and no division by x - y.

:meth:`KernelTable.build` runs the jet recurrence and the three sums on raw
values with the table's scalar kit (:class:`sobspec.core.Arith`), so every
value has the bits of the mpf loop, and keeps them raw.  It keeps the jets
at c (``KernelTable.cjets``), which the ledgers and
:func:`sobspec.sobolev.eval_sobolev` read instead of evaluating them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import _jet_rows, arith


@dataclass(frozen=True)
class KernelTable:
    """Cumulative confluent kernel sums at a fixed point c, plus the jets there.

    K[n], K01[n], K11[n] are the order-(0,0), (0,1), (1,1) kernel values
    K^(j,k)_n(c, c) for n = 0..size-1, built by direct summation.
    ``cjets[k][j]`` is the j-th derivative of P_k at c, j <= 1, as rows of
    :func:`sobspec.core.eval_jet`, all raw values; ``c`` is an mpf.
    ``rho[n]`` = sqrt(K_n(c,c)/K_{n+1}(c,c)), n <= size-2, which r^[2]_n,
    gamma_{n-1,n} and the xi's read, is formed raw on first read and kept;
    it is not a field, so no comparison or ledger digest reads it.
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

    @cached_property
    def rho(self):
        kit = arith(self.rec.precision)
        return tuple(kit.sqrt(kit.div(k, k_next)) for k, k_next in zip(self.K, self.K[1:]))

    @classmethod
    def build(cls, rec, c):
        """The jets and the sums run on raw values with the libmp operations
        of mpf ``1 /``, ``*`` and ``+`` (``core.arith``), in the same order:
        the bits of the mpf sums."""
        kit = arith(rec.precision)
        add, mul, div = kit.add, kit.mul, kit.div
        c = kit.of(c)
        rows = _jet_rows(rec, rec.size - 1, c, 1)
        K, K01, K11 = [], [], []
        s = s01 = s11 = kit.zero
        for (v, dv), h in zip(rows, rec.norm_sq):
            w = div(kit.one, h)
            s = add(s, mul(mul(v, v), w))
            s01 = add(s01, mul(mul(v, dv), w))
            s11 = add(s11, mul(mul(dv, dv), w))
            K.append(s)
            K01.append(s01)
            K11.append(s11)
        return cls(rec, *kit.wrap([c]), *map(tuple, (K, K01, K11, map(tuple, rows))))
