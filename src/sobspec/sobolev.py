"""Sobolev-type orthonormal polynomials and their connection coefficients.

The monic family S_n orthogonal under
``<f, g> = int f g dmu + M f(c) g(c) + N f'(c) g'(c)`` is pinned down by its
boundary pair (S_n(c), S_n'(c)), which solves a 2x2 linear system driven by
the confluent kernel values of the base family.  :meth:`SobolevLedger.build`
solves it for every index and from there collects norms, the triangular
connection coefficients gamma onto the twice-transformed orthonormal family,
and the five-term recurrence entries (a_n, b_n, c_n) for multiplication by
(x-c)^2; :meth:`SobolevLedger.auxiliary` forms the auxiliary alpha/xi
connection coefficients when asked.  For gamma_{n-1,n}, xi1 and xi2 both
read the kernel-ratio roots sqrt(K_n(c,c)/K_{n+1}(c,c)) of ``kt.rho``.  Like
the Christoffel ledger, both run on raw values with the table's scalar kit
(:class:`sobspec.core.Arith`), in the order the formulas are written, so
each value, held raw, has the bits of the same formulas on mpf.

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

from .core import _check_int, _jet_rows, arith
from .errors import DegeneratePointError, InvalidParameterError, NumericalFailureError


@dataclass(frozen=True)
class SobolevLedger:
    """Boundary values, norms, connection and five-term coefficients, built
    from the Christoffel ledger ``chris`` and the masses ``M`` and ``N``,
    which it holds in its context; the mass point is ``chris.kt.c``.

    The boundary pair (Sc[n], Sdc[n]) = (S_n(c), S_n'(c)) solves the system
    [[1 + M K_{n-1}, N K01_{n-1}], [M K01_{n-1}, 1 + N K11_{n-1}]] (values at
    (c,c), all zero at n = 0) with right-hand side (P_n(c), P_n'(c)).  It
    is nonsingular for M, N >= 0, since the confluent Gram block is positive
    semidefinite.  Then normS_sq[n] = ||P_n||^2 + M S_n(c) P_n(c)
    + N S_n'(c) P_n'(c) and t[n] = 1/||S_n||.

    Field indexing follows the defining displays: gamma_nn[n], gamma_n1[n],
    gamma_n2[n] are the coefficients of the twice-transformed orthonormal
    polynomials of degrees n, n-1, n-2 in s_n (zero where the degree is
    negative); a[n], b[n], cdiag[n] are the five-term entries with
    a_n = t_{n-2}/t_n, all raw values.  :meth:`auxiliary` forms the auxiliary
    coefficients alpha1/alpha0 onto the base family and xi0/xi1/xi2 back.
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

    @property
    def size(self):
        return len(self.t)

    @classmethod
    def build(cls, chris, M, N, size):
        kt, rec = chris.kt, chris.kt.rec
        kit = arith(rec.precision)
        Mr, Nr = kit.of(M), kit.of(N)
        M, N = kit.wrap([Mr, Nr])
        if not all(0 <= m < kit.ctx.inf for m in (M, N)):
            raise InvalidParameterError(
                f"masses must be finite and nonnegative, got M = {M}, N = {N}")
        if _check_int("size", size, 0) > chris.size:
            raise IndexError(f"ledger of size {size} needs chris size >= {size}")
        add, sub, mul, div, neg, sqrt = kit.add, kit.sub, kit.mul, kit.div, kit.neg, kit.sqrt
        zero, one = kit.zero, kit.one
        j, K, K01, K11, h, r = kt.cjets, kt.K, kt.K01, kt.K11, rec.norm_sq, rec.leading
        d, e, r2 = chris.d, chris.e, chris.r2
        Sc, Sdc, normS, t, g_nn, g_n1, g_n2 = [], [], [], [], [], [], []
        a, b, cdiag = [], [], []
        # K_{n-1}, K01_{n-1}, K11_{n-1}, zero at n = 0 (0 M + 1 is exactly one)
        for n, k, k01, k11 in zip(range(size), (zero, *K), (zero, *K01), (zero, *K11)):
            a11, a12 = add(mul(Mr, k), one), mul(Nr, k01)
            a21, a22 = mul(Mr, k01), add(mul(Nr, k11), one)
            det = sub(mul(a11, a22), mul(a12, a21))
            if det == zero:
                raise DegeneratePointError("boundary system is singular")
            b1, b2 = j[n]
            Sc.append(div(sub(mul(b1, a22), mul(a12, b2)), det))
            Sdc.append(div(sub(mul(a11, b2), mul(a21, b1)), det))
            ns = add(add(h[n], mul(mul(Mr, Sc[n]), b1)), mul(mul(Nr, Sdc[n]), b2))
            if not kit.gt(ns, zero):
                raise NumericalFailureError(f"computed squared norm at n = {n} is "
                                            f"{kit.wrap([ns])[0]}; increase the precision")
            normS.append(ns)
            t.append(div(one, sqrt(ns)))

            g_nn.append(div(t[n], r2[n]))
            g_n2.append(div(r2[n - 2], t[n]) if n >= 2 else zero)
            bn = zero
            if n >= 1:
                msc, nsdc = mul(Mr, mul(t[n], Sc[n])), mul(Nr, mul(t[n], Sdc[n]))
                pm1, dp = mul(j[n - 1][0], r[n - 1]), mul(j[n - 1][1], r[n - 1])
                bracket = add(div(mul(d[n - 1], t[n]), r[n]),
                              mul(mul(e[n - 1], div(r[n], r[n - 1])),
                                  add(mul(msc, pm1), mul(nsdc, dp))))
                g_n1.append(mul(neg(kt.rho[n - 1]), bracket))
                bn = add(mul(g_nn[n - 1], g_n1[n]), mul(g_n2[n], g_n1[n - 1]))
            else:
                g_n1.append(zero)
            a.append(mul(g_nn[n - 2], g_n2[n]) if n >= 2 else zero)
            b.append(bn)
            cdiag.append(add(add(mul(g_nn[n], g_nn[n]), mul(g_n1[n], g_n1[n])),
                             mul(g_n2[n], g_n2[n])))

        return cls(chris, M, N, *map(tuple, (Sc, Sdc, normS, t, g_nn, g_n1, g_n2, a, b, cdiag)))

    def auxiliary(self):
        """The :class:`AuxiliaryConnections`, formed from the stored fields on
        each call, with the ledger's scalar kit, in the order of the formulas."""
        kt, kit = self.chris.kt, arith(self.chris.kt.rec.precision)
        add, mul, div, neg, sqrt, zero = kit.add, kit.mul, kit.div, kit.neg, kit.sqrt, kit.zero
        Mr, Nr = kit.of(self.M), kit.of(self.N)
        j, rho, r, d, e = kt.cjets, kt.rho, kt.rec.leading, self.chris.d, self.chris.e
        al1, al0, x0, x1, x2 = [], [], [], [], []
        for n, (t, sc, sdc) in enumerate(zip(self.t, self.Sc, self.Sdc)):
            msc, nsdc = mul(Mr, mul(t, sc)), mul(Nr, mul(t, sdc))
            al1.append(add(mul(mul(msc, j[n + 1][0]), r[n + 1]),
                           mul(mul(nsdc, j[n + 1][1]), r[n + 1])))
            al0.append(add(add(div(t, r[n]), mul(mul(msc, j[n][0]), r[n])),
                           mul(mul(nsdc, j[n][1]), r[n])))
            x0.append(sqrt(e[n]))
            x1.append(mul(neg(d[n - 1]), rho[n - 1]) if n >= 1 else zero)
            x2.append(mul(div(r[n - 1], r[n]), rho[n - 2]) if n >= 2 else zero)
        return AuxiliaryConnections(*map(tuple, (al1, al0, x0, x1, x2)))


@dataclass(frozen=True)
class AuxiliaryConnections:
    """The auxiliary connection coefficients of :meth:`SobolevLedger.auxiliary`."""

    alpha1: tuple
    alpha0: tuple
    xi0: tuple
    xi1: tuple
    xi2: tuple


def _kernel_sum(rec, n, jx, jy, j):
    """sum_{k<=n} P_k(x) P_k^(j)(y) / ||P_k||^2 for j = 0 or 1, as one mpf
    fsum, from the raw jet rows ``jx`` at x and ``jy`` at y."""
    kit = arith(rec.precision)
    terms = zip(kit.wrap(row[0] for row in jx[:n + 1]), kit.wrap(row[j] for row in jy[:n + 1]),
                kit.wrap(rec.norm_sq[:n + 1]))
    return kit.ctx.fsum(v * w / h for v, w, h in terms)


def eval_sobolev(sob, n, x, normalized=False):
    """S_n(x) = P_n(x) - M S_n(c) K_{n-1}(x,c) - N S_n'(c) K01_{n-1}(x,c).

    The ``normalized`` flag returns s_n(x) = t_n S_n(x) instead.  P_0..P_n
    are evaluated at x once; the two kernel sums read them and the jets at c
    of the kernel table.  Near c the three terms cancel: at 64 bits, S_30(x)
    within 1e-4 of c is up to 37 bits off (Laguerre alpha = 5, c = -3, M = N = 1).
    """
    if not 0 <= n < sob.size:
        raise IndexError(f"n = {n} outside ledger of size {sob.size}")
    kt = sob.chris.kt
    rec = kt.rec
    kit = arith(rec.precision)
    jx = _jet_rows(rec, n, kit.of(x), 0)
    value, Sc, Sdc, t = kit.wrap((jx[n][0], sob.Sc[n], sob.Sdc[n], sob.t[n]))
    if n >= 1:
        value -= sob.M * Sc * _kernel_sum(rec, n - 1, jx, kt.cjets, 0)
        value -= sob.N * Sdc * _kernel_sum(rec, n - 1, jx, kt.cjets, 1)
    return value * t if normalized else value
