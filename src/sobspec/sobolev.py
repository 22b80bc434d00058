"""Sobolev-type orthonormal polynomials and their connection coefficients.

The monic family S_n orthogonal under
``<f, g> = int f g dmu + M f(c) g(c) + N f'(c) g'(c)`` is pinned down by its
boundary pair (S_n(c), S_n'(c)), which solves a 2x2 linear system driven by
the confluent kernel values of the base family.  :meth:`SobolevLedger.build`
solves it for every index and from there collects norms, the triangular
connection coefficients gamma onto the twice-transformed orthonormal family,
the five-term recurrence entries (a_n, b_n, c_n) for multiplication by
(x-c)^2, and the auxiliary alpha/xi connection coefficients.

Only the masses M and N enter here.  The mass point and the base measure
come with the Christoffel ledger that the Sobolev ledger extends
(``chris.kt.c`` and ``chris.kt.rec``), so they have one owner each and no
second copy can name another point or measure.

Derivative-index resolution: the published bracket for gamma_{n-1,n}
carries the derivative factor with index n; the kernel expansion it comes
from produces index n-1, and only index n-1 passes the exact-rational
orthogonality suite and reproduces the worked example's triangular matrix
(entry (1,0): 11/(2 sqrt(5)); the published index gives 3/sqrt(5)).  The
bracket here uses r_{n-1} P'_{n-1}(c), the resolved index only.  The
analogous expansion-index typo inside the boundary-system derivation has
no effect on the operative formulas, which are implemented as stated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _check_int, context, eval_jet, to_mpf
from .errors import DegeneratePointError, InvalidParameterError, NumericalFailureError
from .kernels import kernel_at, kernel_dy_at_c


@dataclass(frozen=True)
class SobolevLedger:
    """Boundary values, norms, connection and five-term coefficients, built
    from the Christoffel ledger ``chris`` and the masses ``M`` and ``N``,
    which it holds in its context; the mass point is ``chris.kt.c``.

    The boundary pair (Sc[n], Sdc[n]) = (S_n(c), S_n'(c)) solves the system
    [[1 + M K_{n-1}, N K01_{n-1}], [M K01_{n-1}, 1 + N K11_{n-1}]] (values at
    (c,c), the identity at n = 0) with right-hand side (P_n(c), P_n'(c)).  It
    is nonsingular for M, N >= 0, since the confluent Gram block is positive
    semidefinite.  Then normS_sq[n] = ||P_n||^2 + M S_n(c) P_n(c)
    + N S_n'(c) P_n'(c) and t[n] = 1/||S_n||.

    Field indexing follows the defining displays: gamma_nn[n], gamma_n1[n],
    gamma_n2[n] are the coefficients of the twice-transformed orthonormal
    polynomials of degrees n, n-1, n-2 in s_n (zero where the degree is
    negative); a[n], b[n], cdiag[n] are the five-term entries with
    a_n = t_{n-2}/t_n; alpha1[n]/alpha0[n] and xi0/xi1/xi2 are the auxiliary
    connection coefficients onto the base family and back.
    """

    chris: object
    M: object
    N: object
    Sc: tuple
    Sdc: tuple
    normS_sq: tuple
    t: tuple
    gamma_nn: tuple
    gamma_n1: tuple
    gamma_n2: tuple
    a: tuple
    b: tuple
    cdiag: tuple
    alpha1: tuple
    alpha0: tuple
    xi0: tuple
    xi1: tuple
    xi2: tuple

    @property
    def size(self):
        return len(self.t)

    @classmethod
    def build(cls, chris, M, N, size):
        kt, rec = chris.kt, chris.kt.rec
        ctx = context(rec.precision)
        M, N = to_mpf(M, ctx), to_mpf(N, ctx)
        if not all(0 <= m < ctx.inf for m in (M, N)):
            raise InvalidParameterError(
                f"masses must be finite and nonnegative, got M = {M}, N = {N}")
        if _check_int("size", size, 0) > chris.size:
            raise IndexError(f"ledger of size {size} needs chris size >= {size}")
        j, r, zero = kt.cjets, rec.leading, ctx.zero
        Sc, Sdc, normS, t, g_nn, g_n1, g_n2 = [], [], [], [], [], [], []
        root = []  # root[n] = sqrt(K_{n-1} / K_n), read at n and at n + 1
        a, b, cdiag, al1, al0, x0, x1, x2 = [], [], [], [], [], [], [], []
        for n in range(size):
            if n == 0:
                a11, a12, a21, a22 = ctx.one, ctx.zero, ctx.zero, ctx.one
            else:
                a11 = 1 + M * kt.K[n - 1]
                a12 = N * kt.K01[n - 1]
                a21 = M * kt.K01[n - 1]
                a22 = 1 + N * kt.K11[n - 1]
            det = a11 * a22 - a12 * a21
            if det == 0:
                raise DegeneratePointError("boundary system is singular")
            b1, b2 = j.jet(n), j.jet(n, 1)
            Sc.append((b1 * a22 - a12 * b2) / det)
            Sdc.append((a11 * b2 - a21 * b1) / det)
            ns = rec.norm_sq[n] + M * Sc[n] * b1 + N * Sdc[n] * b2
            if not ns > 0:
                raise NumericalFailureError(
                    f"computed squared norm at n = {n} is {ns}; increase the precision")
            normS.append(ns)
            t.append(1 / ctx.sqrt(ns))

            sc, sdc = t[n] * Sc[n], t[n] * Sdc[n]
            g_nn.append(t[n] / chris.r2[n])
            g_n2.append(chris.r2[n - 2] / t[n] if n >= 2 else zero)
            bn = zero
            root.append(ctx.sqrt(kt.K[n - 1] / kt.K[n]) if n >= 1 else zero)
            if n >= 1:
                pm1, dp = j.jet(n - 1) * r[n - 1], j.jet(n - 1, 1) * r[n - 1]
                bracket = (chris.d[n - 1] * t[n] / r[n]
                           + chris.e[n - 1] * (r[n] / r[n - 1]) * (M * sc * pm1 + N * sdc * dp))
                g_n1.append(-root[n] * bracket)
                bn = g_nn[n - 1] * g_n1[n]
                if n >= 2:
                    bn += g_n2[n] * g_n1[n - 1]
            else:
                g_n1.append(zero)
            a.append(g_nn[n - 2] * g_n2[n] if n >= 2 else zero)
            b.append(bn)
            cdiag.append(g_nn[n] ** 2 + g_n1[n] ** 2 + g_n2[n] ** 2)

            al1.append(M * sc * j.jet(n + 1) * r[n + 1]
                       + N * sdc * j.jet(n + 1, 1) * r[n + 1])
            al0.append(t[n] / r[n] + M * sc * j.jet(n) * r[n]
                       + N * sdc * j.jet(n, 1) * r[n])
            x0.append(ctx.sqrt(chris.e[n]))
            x1.append(-chris.d[n - 1] * root[n] if n >= 1 else zero)
            x2.append((r[n - 1] / r[n]) * root[n - 1] if n >= 2 else zero)

        return cls(chris=chris, M=M, N=N,
                   Sc=tuple(Sc), Sdc=tuple(Sdc), normS_sq=tuple(normS),
                   t=tuple(t), gamma_nn=tuple(g_nn), gamma_n1=tuple(g_n1),
                   gamma_n2=tuple(g_n2), a=tuple(a), b=tuple(b),
                   cdiag=tuple(cdiag), alpha1=tuple(al1), alpha0=tuple(al0),
                   xi0=tuple(x0), xi1=tuple(x1), xi2=tuple(x2))


def eval_sobolev(sob, n, x, normalized=False):
    """S_n(x) = P_n(x) - M S_n(c) K_{n-1}(x,c) - N S_n'(c) K01_{n-1}(x,c).

    The ``normalized`` flag returns s_n(x) = t_n S_n(x) instead.
    """
    if not 0 <= n < sob.size:
        raise IndexError(f"n = {n} outside ledger of size {sob.size}")
    kt, rec = sob.chris.kt, sob.chris.kt.rec
    x = to_mpf(x, context(rec.precision))
    value = eval_jet(rec, n, x, order=0).jet(n)
    if n >= 1:
        value -= sob.M * sob.Sc[n] * kernel_at(rec, n - 1, x, kt.c)
        value -= sob.N * sob.Sdc[n] * kernel_dy_at_c(rec, n - 1, x, kt.c)
    return value * sob.t[n] if normalized else value
