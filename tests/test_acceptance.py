"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Tolerances are pinned here and match the contracts: 1e-30 for identity
residuals and golden reproduction on the floating path, exact equality on the
oracle path, 1e-28 for the pointwise five-term recurrence residual.
"""

import random
import time
from fractions import Fraction as F

import mpmath as mp

from helpers import (TOL28, TOL30, as_mpf, laguerre_monic, moment_inner, oracle_families,
                     oracle_value, poly_mul, rel)
from sobspec.christoffel import ChristoffelLedger
from sobspec.core import MeasureSpec, SobolevSpec, arith, eval_jet
from sobspec.golden import compare_reference, computed_counterparts, load_reference
from sobspec.kernels import KernelTable
from sobspec.matrices import (
    MatrixSuite,
    block_residual,
    identity,
    multiply,
    verify_propositions,
)
from sobspec.oracle import build_oracle_suite
from sobspec.sobolev import SobolevLedger, eval_sobolev

SEVEN_IDENTITIES = (
    "H = T Tt",
    "H T = T (J2 - cI)^2",
    "Q R = J - cI",
    "R Q = J2 - cI",
    "(J2 - cI)^2 = R Rt",
    "(J - cI)^2 = Rt R",
    "R Rt = Tt T",
)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _spec(M=1, N=1):
    return SobolevSpec(MeasureSpec.laguerre(0), c=-1, M=M, N=N)


def _ledgers(spec, size):
    rec = MeasureSpec.laguerre(0).recurrence(size + 5)
    kt = KernelTable.build(rec, spec.c)
    chris = ChristoffelLedger.build(kt, size + 2)
    sob = SobolevLedger.build(chris, spec.M, spec.N, size + 2)
    return rec, kt, chris, sob


def _identity_residuals_ok(spec, tol=TOL30):
    suite = MatrixSuite.build(spec, size=20, guard=4, precision=256)
    rows = verify_propositions(suite).as_rows()
    named = {name: res for name, res, _ in rows}
    return all(named[k] <= tol for k in SEVEN_IDENTITIES), named


def _five_term_residual_ok(spec, tol=TOL28, top=15, points=5):
    rec, _, _, sob = _ledgers(spec, top + 2)
    led = as_mpf(sob)
    rng = random.Random(31415)
    worst = mp.mpf(0)
    with mp.workprec(rec.precision):
        for n in range(top + 1):
            for _ in range(points):
                x = mp.mpf(rng.uniform(0, 10))
                s = [eval_sobolev(sob, k, x, normalized=True)
                     for k in range(max(0, n - 2), n + 3)]
                lo = max(0, n - 2)
                lhs = (x - mp.mpf(-1)) ** 2 * s[n - lo]
                rhs = (led.a[n + 2] * s[n + 2 - lo] + led.b[n + 1] * s[n + 1 - lo]
                       + led.cdiag[n] * s[n - lo])
                if n >= 1:
                    rhs += led.b[n] * s[n - 1 - lo]
                if n >= 2:
                    rhs += led.a[n] * s[n - 2 - lo]
                worst = max(worst, rel(lhs, rhs))
    return worst <= tol, worst


def _oracle_band_vanishes(M, N):
    _, (sob, _) = oracle_families(M, N, 9)
    shift2 = (F(1), F(2), F(1))
    for n in range(3, 9):
        for k in range(n - 2):
            if moment_inner(0, poly_mul(shift2, sob[n]), sob[k], -1, M, N) != 0:
                return False
    return True


class TestAcceptance:
    def test_1_golden_reproduction(self):
        start = time.time()
        config, golden = load_reference()
        osuite = build_oracle_suite(config["alpha"], config["c"], config["M"],
                                    config["N"], 6)
        suite = MatrixSuite.build(_spec(), size=8, guard=4, precision=256)
        counts = compare_reference(golden, computed_counterparts(suite), osuite, TOL30)
        exact_bad = sum(total - exact for exact, _, total in counts.values())
        float_bad = sum(total - within for _, within, total in counts.values())
        elapsed = time.time() - start
        report(1, exact_bad == 0 and float_bad == 0 and elapsed < 10,
               f"oracle mismatches {exact_bad}, float mismatches {float_bad}, "
               f"{elapsed:.2f}s")

    def test_2_proposition_suite(self):
        start = time.time()
        ok, named = _identity_residuals_ok(_spec())
        elapsed = time.time() - start
        worst = max(named[k] for k in SEVEN_IDENTITIES)
        report(2, ok and elapsed < 30,
               f"seven identities at size 20, guard 4, 256-bit; worst residual "
               f"{mp.nstr(worst, 4)}, {elapsed:.2f}s")

    def test_3_exact_orthogonality(self):
        (it2, _), (sob, sob_norm_sq) = oracle_families(1, 1, 9)
        shift2 = (F(1), F(2), F(1))
        families = {
            "base": ([laguerre_monic(0, n) for n in range(7)], moment_inner),
            "twice-transformed": (it2, lambda a, f, g: moment_inner(a, poly_mul(shift2, f), g)),
            "sobolev": (sob, lambda a, f, g: moment_inner(a, f, g, -1, 1, 1)),
        }
        diagonal = True
        for polys, inner in families.values():
            for i in range(7):
                for j in range(7):
                    if i != j and inner(0, polys[i], polys[j]) != 0:
                        diagonal = False
        unit = True
        for i in range(7):
            for j in range(7):
                ip = moment_inner(0, sob[i], sob[j], -1, 1, 1)
                if ip * ip / (sob_norm_sq[i] * sob_norm_sq[j]) != (1 if i == j else 0):
                    unit = False
        report(3, diagonal and unit,
               "three Gram matrices exactly diagonal through degree 6; "
               "normalized Sobolev Gram exactly the identity in squared form")

    def test_4_five_term_recurrence(self):
        ok, worst = _five_term_residual_ok(_spec())
        vanish = _oracle_band_vanishes(1, 1)
        report(4, ok and vanish,
               f"pointwise residual worst {mp.nstr(worst, 4)} (tol 1e-28); "
               f"oracle coefficients below the band vanish exactly: {vanish}")

    def test_5_dual_formula_consistency(self):
        rec, kt, chris, _ = _ledgers(_spec(), 17)
        table, kt, chris = as_mpf(rec), as_mpf(kt), as_mpf(chris)
        it2 = oracle_families(1, 1, 16)[0]
        worst = mp.mpf(0)
        rng = random.Random(27182)
        with mp.workprec(rec.precision):
            for n in range(16):
                kernel_e = (table.norm_sq[n + 1] / table.norm_sq[n]) * kt.K[n + 1] / kt.K[n]
                worst = max(worst, rel(chris.e[n], kernel_e))
                if n >= 1:
                    alt_tau = (chris.r2[n - 1] / table.leading[n + 1]) ** 2 \
                        * kt.K[n + 1] / kt.K[n]
                    worst = max(worst, rel(chris.tau[n], alt_tau))
                x = mp.mpf(rng.uniform(0, 10))
                j = eval_jet(rec, n + 2, x, order=0)
                conn = (j[n + 2][0] - chris.d[n] * j[n + 1][0]
                        + chris.e[n] * j[n][0]) / (x + 1) ** 2
                worst = max(worst, rel(oracle_value(it2, n, x), conn))
        report(5, worst <= TOL30,
               f"e_n, tau_n and the connection route to the exact twice-transformed "
               f"family agree; worst {mp.nstr(worst, 4)} (tol 1e-30)")

    def test_6_degenerate_and_single_mass_configs(self):
        spec0 = _spec(M=0, N=0)
        suite0 = MatrixSuite.build(spec0, size=20, guard=4, precision=256)
        shifted = suite0.J.shifted(1)
        reduction = block_residual(suite0.H, multiply(shifted, shifted), 20)
        parts = [reduction <= TOL30]
        details = [f"M=N=0 reduction residual {mp.nstr(reduction, 4)}"]
        for Mv, Nv in ((1, 0), (0, 1)):
            spec_mn = _spec(M=Mv, N=Nv)
            ok2, named = _identity_residuals_ok(spec_mn)
            ok4, worst4 = _five_term_residual_ok(spec_mn)
            vanish = _oracle_band_vanishes(Mv, Nv)
            parts.append(ok2 and ok4 and vanish)
            details.append(f"(M={Mv},N={Nv}) identities ok={ok2}, "
                           f"five-term worst {mp.nstr(worst4, 3)}, band ok={vanish}")
        report(6, all(parts), "; ".join(details))

    def test_7_orthogonal_factor(self):
        suite = MatrixSuite.build(_spec(), size=20, guard=4, precision=256)
        QtQ = multiply(suite.Q.transpose(), suite.Q)
        qtq_res = block_residual(QtQ, identity(QtQ.nrows, 256), 20)
        # The leading 5x5 block of Q Q^T, each row summed over Q's exact
        # columns, so over a truncation of the semi-infinite factor: its
        # distance from I shrinks as the truncation grows.
        ctx, defects = arith(256).ctx, []
        for size in (10, 20, 40):
            Q = MatrixSuite.build(_spec(), size=size, guard=4, precision=256).Q
            rows = [[Q.entry(i, j) for j in range(Q.exact_size)] for i in range(5)]
            defects.append(max(abs(ctx.fdot(u, v) - int(i == k)) for i, u in enumerate(rows)
                               for k, v in enumerate(rows)))
        decreasing = defects[0] > defects[1] > defects[2]
        report(7, qtq_res <= TOL30 and decreasing,
               f"QtQ residual {mp.nstr(qtq_res, 4)} (tol 1e-30); leading 5x5 "
               f"QQt defects {[mp.nstr(d, 3) for d in defects]} strictly "
               f"decreasing: {decreasing}")
