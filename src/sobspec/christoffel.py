"""Iterated Christoffel transforms of the base measure (k = 1 and k = 2).

The once-transformed measure (x-c) dmu has the monic kernel polynomials as
its orthogonal family; the twice-transformed measure (x-c)^2 dmu carries the
family P^[2]_n with the connection

    (x-c)^2 P^[2]_n(x) = P_{n+2}(x) - d_n P_{n+1}(x) + e_n P_n(x).

:meth:`ChristoffelLedger.build` computes every scalar of the ledger (d_n,
e_n, the leading coefficients r^[2]_n, the recurrence pair kappa_n/tau_n,
squared norms) from the kernel table; the module also evaluates both
transformed families.  e_n, which has two independent published formulas, is
computed both ways and required to agree within a precision-scaled guard;
tau_n's second formula shares r^[2]_n with the first, so its evidence is the
"J2 chain = J2 ledger" residual, which sets it against the Cholesky chain.
The pinned 1e-30 tolerances live in the test suite.  The build runs on raw
values with the table's scalar kit (:class:`sobspec.core.Arith`), in the
order the formulas are written, so each field has the bits of the same
formulas on mpf; the guards compare the raw values as mpf compares them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _check_int, arith, context, eval_jet, to_mpf
from .errors import DegeneratePointError, NumericalFailureError
from .kernels import _kernel_sum


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
    r^[2]_n = r_{n+1} sqrt(K_n(c,c)/K_{n+1}(c,c)) > 0.

    tau[0] holds the squared norm of the degree-0 member (the recurrence
    starts from p^[2]_0 = 1/sqrt(tau_0)); tau[n] for n >= 1 is the recurrence
    coefficient (r^[2]_{n-1}/r^[2]_n)^2.
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
        guard = kit.raw([kit.ctx.ldexp(1, -(rec.precision // 2))])[0]
        add, sub, mul, div, sqrt = kit.add, kit.sub, kit.mul, kit.div, kit.sqrt
        jet = [kit.raw(v[:2]) for v in kt.cjets]
        K, h, r, beta, gamma = map(kit.raw, (kt.K, rec.norm_sq, rec.leading, rec.beta, rec.gamma))
        d, e, r2, kappa, tau = [], [], [], [], []
        for n in range(size):
            (v0, d0), (v1, d1), (v2, d2) = jet[n:n + 3]
            den = sub(mul(v1, d0), mul(d1, v0))
            if den == kit.zero:
                raise DegeneratePointError(f"degenerate mass point: Wronskian at n = {n} vanishes")
            d.append(div(sub(mul(v2, d0), mul(d2, v0)), den))
            e.append(div(sub(mul(v2, d1), mul(d2, v1)), den))
            k_up = div(K[n + 1], K[n])
            _enforce(kit, guard, e[n], mul(div(h[n + 1], h[n]), k_up), f"e_{n}")
            if kit.gt(kit.zero, e[n]):  # e_n = 0 is the next index's vanishing Wronskian
                raise NumericalFailureError(
                    f"computed e_{n} is {kit.wrap([e[n]])[0]}; increase the precision")
            r2.append(mul(r[n + 1], sqrt(div(K[n], K[n + 1]))))
            t1 = beta[n]
            if n >= 1:
                t1 = add(t1, div(mul(gamma[n], d[n - 1]), e[n - 1]))
            q0, q1 = div(r2[n], r[n]), div(r2[n], r[n + 1])
            kappa.append(sub(mul(mul(t1, e[n]), mul(q0, q0)), mul(d[n], mul(q1, q1))))
            if n >= 1:
                q = div(r2[n - 1], r2[n])
                tau.append(mul(q, q))
        norm2 = list(map(mul, e, h))
        return cls(kt, *map(kit.wrap, (d, e, r2, kappa, norm2[:1] + tau, norm2)))


def _check_connection(ledger, n, x, value):
    """Raise unless ``value``, P^[2]_n(x) by the recurrence, matches the
    connection b = (P_{n+2} - d_n P_{n+1} + e_n P_n)(x) / (x-c)^2.

    At x = c, b is half the second derivative of the numerator, held to the
    dual-formula guard.  Elsewhere the guard 2^(-p/2) max(1, |value|, |b|)
    is widened by (n+3) 2^(1-p) S / (x-c)^2, S the sum of the numerator
    terms' magnitudes: the rounding that dividing their cancelled sum admits,
    so no x near c raises on a valid ledger.
    """
    kt, p = ledger.kt, ledger.kt.rec.precision
    what = f"P^[2]_{n}({x})"
    if x == kt.c:
        j = kt.cjets
        num2 = j[n + 2][2] - ledger.d[n] * j[n + 1][2] + ledger.e[n] * j[n][2]
        kit = arith(p)
        guard, a, b = kit.raw([kit.ctx.ldexp(1, -(p // 2)), value, num2 / 2])
        _enforce(kit, guard, a, b, what)
        return
    ctx = context(p)
    j = eval_jet(kt.rec, n + 2, x, order=0)
    terms = (j[n + 2][0], -ledger.d[n] * j[n + 1][0], ledger.e[n] * j[n][0])
    h = (x - kt.c) ** 2
    b = sum(terms) / h
    guard = (ctx.ldexp(max(1, abs(value), abs(b)), -(p // 2))
             + (n + 3) * ctx.ldexp(sum(abs(t) for t in terms), 1 - p) / h)
    if abs(value - b) > guard:
        raise NumericalFailureError(
            f"dual formulas for {what} disagree beyond the precision guard: {value} vs {b}")


def eval_iterated(chris, n, x, k=2, monic=False):
    """Value of the k-iterated family at x (k = 1 monic, k = 2 by default
    orthonormal, monic with the flag).

    k = 1 is the kernel polynomial ||P_n||^2 K_n(x, c) / P_n(c), summed
    directly at every x over the jets at x and the table's jets at c.  k = 2 is computed by the ledger recurrence and
    checked at every x against the connection through P_{n+2}, P_{n+1},
    P_n (see :func:`_check_connection` for the tolerance).
    """
    kt, rec = chris.kt, chris.kt.rec
    ctx = context(rec.precision)
    x = to_mpf(x, ctx)
    if k == 1:
        kernel = _kernel_sum(rec, n, eval_jet(rec, n, x, order=0), kt.cjets, 0)
        pc = kt.cjets[n][0]
        if pc == 0:
            raise DegeneratePointError(f"P_{n}(c) = 0")
        return rec.norm_sq[n] * kernel / pc
    if k != 2:
        raise IndexError(f"k must be 1 or 2, got {k}")
    if not 0 <= n < chris.size:
        raise IndexError(f"n = {n} outside ledger of size {chris.size}")
    value, prev = ctx.one, ctx.zero
    for j in range(n):
        tau = chris.tau[j] if j >= 1 else ctx.zero
        value, prev = (x - chris.kappa[j]) * value - tau * prev, value
    _check_connection(chris, n, x, value)
    return value if monic else value * chris.r2[n]
