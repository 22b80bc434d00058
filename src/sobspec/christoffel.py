"""Iterated Christoffel transforms of the base measure (k = 1 and k = 2).

The once-transformed measure (x-c) dmu has the monic kernel polynomials as
its orthogonal family; the twice-transformed measure (x-c)^2 dmu carries the
family P^[2]_n with the connection

    (x-c)^2 P^[2]_n(x) = P_{n+2}(x) - d_n P_{n+1}(x) + e_n P_n(x).

:meth:`ChristoffelLedger.build` computes every scalar of the ledger (d_n,
e_n, the leading coefficients r^[2]_n, the recurrence pair kappa_n/tau_n,
squared norms) from the kernel table.  e_n = W_{n+1}/W_n for the Wronskian
W_n = P_{n+1}(c) P_n'(c) - P_{n+1}'(c) P_n(c), so each W_n is formed once
and carried to the next index.  e_n, which has two independent published
formulas, is computed both ways and required to agree within a
precision-scaled guard; tau_n's second formula shares r^[2]_n with the
first, so its evidence is the "J2 chain = J2 ledger" residual, which sets it
against the Cholesky chain, as the "H T = T (J2 - cI)^2" and "R Rt = Tt T"
residuals do for d_n and e_n through the Sobolev ledger.  The pinned 1e-30
tolerances live in the test suite.  The build runs on raw values with the
table's scalar kit (:class:`sobspec.core.Arith`), in the order the formulas
are written, so each field has the bits of the same formulas on mpf and is
stored raw; the guards compare the raw values as mpf compares them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _check_int, arith
from .errors import DegeneratePointError, NumericalFailureError


def _enforce(kit, guard, a, b, what):
    """Raise unless |a - b| / max(1, |a|, |b|) <= ``guard`` for the raw values
    a, b and ``guard`` of ``kit``, compared as mpf compares: a NaN never raises."""
    scale, diff = kit.one, kit.sub(a, b)
    for v in (a, kit.neg(a), b, kit.neg(b)):
        if kit.gt(v, scale):
            scale = v
    if kit.gt(kit.div(diff if kit.gt(diff, kit.zero) else kit.neg(diff), scale), guard):
        a, b = kit.wrap([a, b])
        raise NumericalFailureError(
            f"dual formulas for {what} disagree beyond the precision guard: {a} vs {b}")


@dataclass(frozen=True)
class ChristoffelLedger:
    """Per-index scalars of the twice-transformed family, built from the
    kernel table ``kt`` at the mass point (and through it the recurrence).

    d_n and e_n are Wronskian quotients of the jets of P_n, P_{n+1}, P_{n+2}
    at c; e_n must also equal (r_n/r_{n+1})^2 K_{n+1}(c,c)/K_n(c,c), and
    r^[2]_n = r_{n+1} sqrt(K_n(c,c)/K_{n+1}(c,c)) > 0 (``kt.rho``).

    tau[0] holds the squared norm of the degree-0 member (the recurrence
    starts from p^[2]_0 = 1/sqrt(tau_0)); tau[n] for n >= 1 is the recurrence
    coefficient (r^[2]_{n-1}/r^[2]_n)^2.  The tuple fields hold raw values.
    """

    kt: object
    d: tuple
    e: tuple
    r2: tuple
    kappa: tuple
    tau: tuple
    norm2_sq: tuple

    @property
    def size(self):
        return len(self.kappa)

    @classmethod
    def build(cls, kt, size):
        """The loop runs on raw values with the libmp operations that mpf
        ``*``, ``/``, ``+``, ``-``, ``sqrt`` and ``** 2`` perform
        (``core.arith``), in the same order, so every field has the bits of
        the mpf formulas."""
        rec = kt.rec
        if _check_int("size", size, 0) > rec.size - 2:
            raise IndexError(f"ledger of size {size} needs a recurrence table of size {size + 2}")
        kit = arith(rec.precision)
        guard = kit.of(kit.ctx.ldexp(1, -(rec.precision // 2)))
        add, sub, mul, div = kit.add, kit.sub, kit.mul, kit.div
        jet, K, h, r, beta, gamma = kt.cjets, kt.K, rec.norm_sq, rec.leading, rec.beta, rec.gamma
        d, e, r2, kappa, tau = [], [], [], [], []
        w = sub(mul(jet[1][0], jet[0][1]), mul(jet[1][1], jet[0][0]))  # W_0
        for n in range(size):
            if w == kit.zero:
                raise DegeneratePointError(f"degenerate mass point: Wronskian at n = {n} vanishes")
            (v0, d0), (v1, d1), (v2, d2) = jet[n:n + 3]
            den, w = w, sub(mul(v2, d1), mul(d2, v1))  # W_n, W_{n+1}
            d.append(div(sub(mul(v2, d0), mul(d2, v0)), den))
            e.append(div(w, den))
            k_up = div(K[n + 1], K[n])
            _enforce(kit, guard, e[n], mul(div(h[n + 1], h[n]), k_up), f"e_{n}")
            if kit.gt(kit.zero, e[n]):  # e_n = 0 is the next index's vanishing Wronskian
                raise NumericalFailureError(
                    f"computed e_{n} is {kit.wrap([e[n]])[0]}; increase the precision")
            r2.append(mul(r[n + 1], kt.rho[n]))
            t1 = beta[n]
            if n >= 1:
                t1 = add(t1, div(mul(gamma[n], d[n - 1]), e[n - 1]))
            q0, q1 = div(r2[n], r[n]), div(r2[n], r[n + 1])
            kappa.append(sub(mul(mul(t1, e[n]), mul(q0, q0)), mul(d[n], mul(q1, q1))))
            if n >= 1:
                q = div(r2[n - 1], r2[n])
                tau.append(mul(q, q))
        norm2 = list(map(mul, e, h))
        return cls(kt, *map(tuple, (d, e, r2, kappa, norm2[:1] + tau, norm2)))
