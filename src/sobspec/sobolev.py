"""Sobolev-type orthonormal polynomials and their connection coefficients.

The monic family S_n orthogonal under
``<f, g> = int f g dmu + M f(c) g(c) + N f'(c) g'(c)`` is pinned down by its
boundary pair (S_n(c), S_n'(c)), which solves a 2x2 linear system driven by
the confluent kernel values of the base family.  :meth:`SobolevLedger.build`
solves it for every index and from there collects norms, the triangular
connection coefficients gamma onto the twice-transformed orthonormal family,
the five-term recurrence entries (a_n, b_n, c_n) for multiplication by
(x-c)^2, and the auxiliary alpha/xi connection coefficients.  Like the
Christoffel ledger, it runs on raw values with the table's scalar kit
(:class:`sobspec.core.Arith`), in the order the formulas are written, so
each field has the bits of the same formulas on mpf.

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

from mpmath.libmp import fone, fzero, mpf_gt

from .core import _check_int, arith, context, eval_jet, to_mpf
from .errors import DegeneratePointError, InvalidParameterError, NumericalFailureError
from .kernels import _kernel_sum


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
        kit = arith(rec.precision)
        add, sub, mul, div, neg, sqrt = kit.add, kit.sub, kit.mul, kit.div, kit.neg, kit.sqrt
        j = [kit.raw(v[:2]) for v in kt.cjets]
        K, K01, K11, h, r, d, e, r2 = map(kit.raw, (kt.K, kt.K01, kt.K11, rec.norm_sq,
                                                    rec.leading, chris.d, chris.e, chris.r2))
        Mr, Nr = kit.raw([M, N])
        Sc, Sdc, normS, t, g_nn, g_n1, g_n2 = [], [], [], [], [], [], []
        root = []  # root[n] = sqrt(K_{n-1} / K_n), read at n and at n + 1
        a, b, cdiag, al1, al0, x0, x1, x2 = [], [], [], [], [], [], [], []
        for n in range(size):
            if n == 0:
                a11, a12, a21, a22 = fone, fzero, fzero, fone
            else:
                a11 = add(mul(Mr, K[n - 1]), fone)
                a12 = mul(Nr, K01[n - 1])
                a21 = mul(Mr, K01[n - 1])
                a22 = add(mul(Nr, K11[n - 1]), fone)
            det = sub(mul(a11, a22), mul(a12, a21))
            if det == fzero:
                raise DegeneratePointError("boundary system is singular")
            b1, b2 = j[n]
            Sc.append(div(sub(mul(b1, a22), mul(a12, b2)), det))
            Sdc.append(div(sub(mul(a11, b2), mul(a21, b1)), det))
            ns = add(add(h[n], mul(mul(Mr, Sc[n]), b1)), mul(mul(Nr, Sdc[n]), b2))
            if not mpf_gt(ns, fzero):
                raise NumericalFailureError(f"computed squared norm at n = {n} is "
                                            f"{ctx.make_mpf(ns)}; increase the precision")
            normS.append(ns)
            t.append(div(fone, sqrt(ns)))

            msc, nsdc = mul(Mr, mul(t[n], Sc[n])), mul(Nr, mul(t[n], Sdc[n]))
            g_nn.append(div(t[n], r2[n]))
            g_n2.append(div(r2[n - 2], t[n]) if n >= 2 else fzero)
            bn = fzero
            root.append(sqrt(div(K[n - 1], K[n])) if n >= 1 else fzero)
            if n >= 1:
                pm1, dp = mul(j[n - 1][0], r[n - 1]), mul(j[n - 1][1], r[n - 1])
                bracket = add(div(mul(d[n - 1], t[n]), r[n]),
                              mul(mul(e[n - 1], div(r[n], r[n - 1])),
                                  add(mul(msc, pm1), mul(nsdc, dp))))
                g_n1.append(mul(neg(root[n]), bracket))
                bn = mul(g_nn[n - 1], g_n1[n])
                if n >= 2:
                    bn = add(bn, mul(g_n2[n], g_n1[n - 1]))
            else:
                g_n1.append(fzero)
            a.append(mul(g_nn[n - 2], g_n2[n]) if n >= 2 else fzero)
            b.append(bn)
            cdiag.append(add(add(mul(g_nn[n], g_nn[n]), mul(g_n1[n], g_n1[n])),
                             mul(g_n2[n], g_n2[n])))

            al1.append(add(mul(mul(msc, j[n + 1][0]), r[n + 1]),
                           mul(mul(nsdc, j[n + 1][1]), r[n + 1])))
            al0.append(add(add(div(t[n], r[n]), mul(mul(msc, b1), r[n])),
                           mul(mul(nsdc, b2), r[n])))
            x0.append(sqrt(e[n]))
            x1.append(mul(neg(d[n - 1]), root[n]) if n >= 1 else fzero)
            x2.append(mul(div(r[n - 1], r[n]), root[n - 1]) if n >= 2 else fzero)

        return cls(chris, M, N, *map(kit.wrap, (Sc, Sdc, normS, t, g_nn, g_n1, g_n2, a, b,
                                                cdiag, al1, al0, x0, x1, x2)))


def eval_sobolev(sob, n, x, normalized=False):
    """S_n(x) = P_n(x) - M S_n(c) K_{n-1}(x,c) - N S_n'(c) K01_{n-1}(x,c).

    The ``normalized`` flag returns s_n(x) = t_n S_n(x) instead.  P_0..P_n
    are evaluated at x once; the two kernel sums read them and the jets at c
    of the kernel table.
    """
    if not 0 <= n < sob.size:
        raise IndexError(f"n = {n} outside ledger of size {sob.size}")
    kt = sob.chris.kt
    rec = kt.rec
    jx = eval_jet(rec, n, x, order=0)
    value = jx[n][0]
    if n >= 1:
        value -= sob.M * sob.Sc[n] * _kernel_sum(rec, n - 1, jx, kt.cjets, 0)
        value -= sob.N * sob.Sdc[n] * _kernel_sum(rec, n - 1, jx, kt.cjets, 1)
    return value * sob.t[n] if normalized else value
