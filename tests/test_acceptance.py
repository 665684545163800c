"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime against the stated budget.  Run with -s to see the
per-criterion report."""

import random
import time

from dynzeta.automata import (christol_series, eventual_period_detect,
                              kernel_explore, vp_geometric_sequence)
from dynzeta.dynmap import per_n_oracle
from dynzeta.elliptic import (EllipticCurve, is_supersingular, lattes_oracle,
                              point_orders_by_trace, trace_of_frobenius)
from dynzeta.errors import IncompleteEnumeration, ScaleExceeded
from dynzeta.families import (AdditiveMap, ChebyshevMap, LattesGenericJ,
                              LattesOrdinary, LattesSupersingular, PowerMap,
                              SubadditiveMap, per_n_closed, realize)
from dynzeta.field import field_make, ratfunc_field
from dynzeta.intarith import v_p, v_p_strict
from dynzeta.limits import POLY_DEGREE_CAP
from dynzeta.orders import (B3_ORDER, HURWITZ, QuadRing, QuatElem,
                            lte_int, lte_quad, lte_quat, norm_sequence,
                            prime_context, v_I, v_frak_p)
from dynzeta.sentinels import TRANSCENDENTAL
from dynzeta.twisted import (TwistedPoly, constant_order, lte_ga, tw_pow,
                             tw_sub, v_phi)
from dynzeta.zeta import (rationality_guess, series_of_rational, verdict,
                          zeta_from_counts)


def _report(number, label, elapsed, budget):
    print(f"ACCEPTANCE {number:2d}: PASS  {label}  ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_01_inseparable_closed_form():
    start = time.perf_counter()
    for p in (2, 3, 5):
        counts = [per_n_closed(PowerMap(p, p), n) for n in range(1, 31)]
        series = zeta_from_counts(counts)
        assert list(series.coeffs) == series_of_rational([1], [1, -(p + 1), p], 31)
    _report(1, "x -> x^p zeta equals 1/((1-t)(1-pt)) for p in {2,3,5}",
            time.perf_counter() - start, 1)


def _master_grid():
    for p in (3, 5, 7):
        for d in (2, -2, 3, -3, 5):
            yield PowerMap(p, d)
        for d in (2, 3, 4):
            yield ChebyshevMap(p, d)
    for p in (2, 3):
        ctx = field_make(p)
        for ints in ([-1, 1], [1, 1], [-1, 0, 1]):
            yield AdditiveMap(TwistedPoly.from_ints(ctx, ints))
    for p in (3, 5):
        ctx = field_make(p)
        yield SubadditiveMap(TwistedPoly.from_ints(ctx, [-1, 1]), p - 1)


def test_02_master_oracle_equivalence():
    start = time.perf_counter()
    checks = 0
    for fam in _master_grid():
        f = realize(fam)
        n = 1
        while f.degree ** n <= POLY_DEGREE_CAP:
            assert per_n_closed(fam, n) == per_n_oracle(f, n), (fam, n)
            checks += 1
            n += 1
    assert checks > 200
    _report(2, f"closed form == oracle on the family grid ({checks} checks)",
            time.perf_counter() - start, 60)


def _ordinary_test_curves():
    """Deterministic search: two curves over F_5 and one over F_7 whose
    sigma = [2] torsion data certifies completeness at this scale."""
    picked = []
    for p, wanted in ((5, 2), (7, 1)):
        ctx = field_make(p)
        got = 0
        for a in range(p):
            for b in range(p):
                try:
                    E = EllipticCurve(ctx, ctx.from_int(a), ctx.from_int(b))
                except Exception:
                    continue
                if is_supersingular(E):
                    continue
                orders = point_orders_by_trace(E, 4)
                if not any(orders[k] % 9 == 0 and (p ** k - 1) % 3 == 0
                           for k in orders):
                    continue
                five_target = 5 if p == 5 else 25
                if not any(orders[k] % five_target == 0
                           and (p ** k - 1) % 5 % (1 if p == 5 else 5 ** 0) == 0
                           for k in orders):
                    continue
                try:
                    oracle = {n: lattes_oracle(E, 2, n, k_max=4) for n in (1, 2)}
                except (IncompleteEnumeration, ScaleExceeded):
                    continue
                picked.append((E, oracle))
                got += 1
                if got >= wanted:
                    break
            if got >= wanted:
                break
    return picked


def test_03_lattes_oracle_and_variant_resolution():
    start = time.perf_counter()
    curves = _ordinary_test_curves()
    assert len(curves) >= 3
    for E, oracle in curves:
        p = E.ctx.p
        ring = QuadRing(trace_of_frobenius(E), p)
        fam = LattesOrdinary(prime_context(ring, p), ring.elem(2, 0), 2)
        for n in (1, 2):
            assert per_n_closed(fam, n) == oracle[n]
            # the torsion oracle confirms the norm (squared) form
            assert per_n_closed(LattesGenericJ(p, 2), n) == oracle[n]
    _report(3, f"torsion oracle matches the norm form on {len(curves)} "
               "ordinary curves", time.perf_counter() - start, 30)


def _sample_n(rng, p):
    while True:
        n = rng.randint(1, 50)
        if p ** v_p(n, p) <= 25:
            return n


def test_04_exponent_lift_suites():
    start = time.perf_counter()
    rng = random.Random(20260808)

    done = 0
    while done < 200:   # rational integers
        p = rng.choice((2, 3, 5, 7))
        y = rng.randint(1, 60)
        x = y + p * rng.randint(1, 40) * (p if p == 2 else 1)
        if x % p == 0 or y % p == 0 or (p == 2 and v_p(x - y, 2) < 2):
            continue
        n = _sample_n(rng, p)
        assert lte_int(x, y, p, n) == v_p_strict(x ** n - y ** n, p)
        done += 1

    quad_setups = [(QuadRing(0, 1), 5), (QuadRing(-1, 1), 7)]
    for ring, p in quad_setups:
        ctx = prime_context(ring, p)
        done = 0
        while done < 100:
            x = ring.elem(rng.randint(-9, 9), rng.randint(-9, 9))
            y = ring.elem(rng.randint(-9, 9), rng.randint(-9, 9))
            if x.is_zero() or y.is_zero() or (x - y).is_zero():
                continue
            if v_frak_p(x, ctx) != 0 or v_frak_p(y, ctx) != 0:
                continue
            if v_frak_p(x - y, ctx) < 1:
                continue
            n = _sample_n(rng, p)
            assert lte_quad(x, y, ctx, n) == v_frak_p(x ** n - y ** n, ctx)
            done += 1

    for order, p, guard in ((HURWITZ, 2, 3), (B3_ORDER, 3, 2)):
        done = 0
        while done < 200:
            if order.p == 2:
                parity = rng.randint(0, 1)
                x = QuatElem(order, *[2 * rng.randint(-3, 3) + parity
                                      for _ in range(4)])
            else:
                aa, bb = rng.randint(-6, 6), rng.randint(-6, 6)
                x = QuatElem(order, aa, bb, aa - 2 * rng.randint(-3, 3),
                             bb - 2 * rng.randint(-3, 3))
            y = order.elem(rng.randint(-4, 4)) + order.elem(rng.randint(-2, 2)) * x
            if x.is_zero() or y.is_zero() or (x - y).is_zero():
                continue
            if x.norm() % p == 0 or y.norm() % p == 0:
                continue
            if v_I(x - y) < guard:
                continue
            n = _sample_n(rng, p)
            assert lte_quat(x, y, n) == v_I(x ** n - y ** n)
            done += 1

    for p in (2, 3):
        ctx = field_make(p)
        one = TwistedPoly.one(ctx)
        done = 0
        while done < 200:
            tail = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
            x = TwistedPoly.from_elems(ctx, [ctx.one()]
                                       + [ctx.from_int(c) for c in tail])
            base = v_phi(tw_sub(x, one))
            if not isinstance(base, int) or base < 1:
                continue
            n = _sample_n(rng, p)
            direct = v_phi(tw_sub(tw_pow(x, n), one))
            assert lte_ga(x, n) == direct
            done += 1
    _report(4, "exponent lifts equal direct valuations (200 draws per ring)",
            time.perf_counter() - start, 30)


def test_05_norm_recurrence_suite():
    start = time.perf_counter()
    rng = random.Random(55_2026)
    rings = [QuadRing(0, 1), QuadRing(-1, 1)]
    for ell in (5, 11, 13):
        for ring in rings:
            for _ in range(50):
                sigma = ring.elem(rng.randint(-6, 6), rng.randint(-6, 6))
                gamma = ring.elem(rng.randint(-4, 4), rng.randint(-4, 4))
                if sigma.is_zero():
                    continue
                report = norm_sequence(sigma, gamma, ell, 200)
                assert report.bound_exponent <= 4
        for order in (HURWITZ, B3_ORDER):
            for _ in range(20):
                if order.p == 2:
                    parity = rng.randint(0, 1)
                    coords = [2 * rng.randint(-3, 3) + parity for _ in range(4)]
                else:
                    aa, bb = rng.randint(-5, 5), rng.randint(-5, 5)
                    coords = [aa, bb, aa - 2 * rng.randint(-2, 2),
                              bb - 2 * rng.randint(-2, 2)]
                sigma = QuatElem(order, *coords)
                gamma = order.elem(rng.randint(-3, 3))
                if sigma.is_zero():
                    continue
                report = norm_sequence(sigma, gamma, ell, 200)
                assert report.bound_exponent <= 4
    _report(5, "norm sequences: direct == recurrence for 200 terms, period "
               "divides (l-1)(l^2-1)l^A with A <= 4", time.perf_counter() - start, 30)


def test_06_christol_fixtures():
    start = time.perf_counter()

    def po2(n):
        return 1 if n > 0 and n & (n - 1) == 0 else 0

    coeffs = christol_series([[0, 1], [1], [1]], 2, [0, 1], 4096)
    assert coeffs == [po2(n) for n in range(4096)]
    long = christol_series([[0, 1], [1], [1]], 2, [0, 1], 2 ** 6 * 64 + 200)
    rep = kernel_explore(lambda i: long[i], 2, 6, prefix_len=64)
    assert rep.closed and rep.class_counts[-1] <= 5

    tm = christol_series([[0, 1], [1, 0, 1], [1, 1, 1, 1]], 2, [0, 1],
                         2 ** 6 * 64 + 200)
    assert tm[:8] == [0, 1, 1, 0, 1, 0, 0, 1]
    rep_tm = kernel_explore(lambda i: tm[i], 2, 6, prefix_len=64)
    assert rep_tm.closed and rep_tm.class_counts[-1] <= 5
    _report(6, "algebraic series fixtures: 4096 verified terms, kernels "
               "close with <= 5 classes", time.perf_counter() - start, 10)


def test_07_non_automaticity_evidence():
    start = time.perf_counter()
    from dynzeta.zeta import certificate_build

    horizon = max(5 ** 4, 3 ** 6) * 256 + 300
    fixture = vp_geometric_sequence(2, 3, 5, 1, 0, horizon)
    cert = certificate_build(PowerMap(3, 2))
    assert (cert.ell, cert.p) == (5, 3)

    for label, seq in (("valuation fixture", lambda i: fixture.values[i]),
                       ("power-map certificate", lambda i: cert.values[i]
                        if i < len(cert.values)
                        else pow(3, v_p(4 * i + 1, 3), 5))):
        grow = kernel_explore(seq, 5, 4, prefix_len=256)
        c = grow.class_counts
        assert c[1] < c[2] < c[3] < c[4], (label, c)
        close = kernel_explore(seq, 3, 6, prefix_len=256)
        assert close.closed and close.closure_depth <= 4, (label, close)
        assert eventual_period_detect([seq(i) for i in range(2000)]) is None
    _report(7, "base-5 kernels strictly grow through depth 4; base-3 "
               "kernels close by depth 4; no eventual period",
            time.perf_counter() - start, 60)


def test_08_transcendental_coefficient_rational_branch():
    start = time.perf_counter()
    ctx = ratfunc_field(3)
    fam = AdditiveMap(TwistedPoly.from_elems(ctx, [ctx.u(), ctx.one()]))
    assert constant_order(fam.sigma) is TRANSCENDENTAL
    counts = [per_n_closed(fam, n) for n in range(1, 21)]
    assert counts == [1 + 3 ** n for n in range(1, 21)]
    guess = rationality_guess(counts)
    assert guess.numerator == (1,) and guess.denominator == (1, -4, 3)
    counts30 = [per_n_closed(fam, n) for n in range(1, 31)]
    assert list(zeta_from_counts(counts30).coeffs) == \
        series_of_rational([1], [1, -4, 3], 31)
    _report(8, "transcendental linear coefficient: counts 1 + 3^n, zeta "
               "= 1/((1-t)(1-3t))", time.perf_counter() - start, 5)


def _verdict_battery(F2, F3, F3u):
    ring = QuadRing(-3, 5)
    pc = prime_context(ring, 5)
    return [
        (PowerMap(3, 3), "rational", "inseparable"),
        (ChebyshevMap(3, 3), "rational", "inseparable"),
        (AdditiveMap(TwistedPoly.from_ints(F2, [0, 1])), "rational",
         "inseparable"),
        (AdditiveMap(TwistedPoly.from_elems(F3u, [F3u.u(), F3u.one()])),
         "rational", "transcendental-linear-coefficient"),
        (PowerMap(3, 2), "transcendental-evidence",
         "separable-multiplicative-or-lattes"),
        (PowerMap(5, -2), "transcendental-evidence",
         "separable-multiplicative-or-lattes"),
        (ChebyshevMap(2, 3), "transcendental-evidence",
         "separable-multiplicative-or-lattes"),
        (LattesGenericJ(3, 2), "transcendental-evidence",
         "separable-multiplicative-or-lattes"),
        (LattesOrdinary(pc, ring.elem(2, 0), 2), "transcendental-evidence",
         "separable-multiplicative-or-lattes"),
        (LattesSupersingular(7, sigma_trace=4, sigma_norm=4),
         "transcendental-evidence", "separable-multiplicative-or-lattes"),
        (AdditiveMap(TwistedPoly.from_ints(F3, [-1, 1])),
         "transcendental-evidence", "separable-additive-algebraic"),
        (SubadditiveMap(TwistedPoly.from_ints(F3, [-1, 1]), 2),
         "transcendental-evidence", "separable-additive-algebraic"),
    ]


def test_09_verdict_conformance(F2, F3, F3u):
    start = time.perf_counter()
    battery = _verdict_battery(F2, F3, F3u)
    assert len(battery) == 12
    for fam, outcome, reason in battery:
        v = verdict(fam)
        assert v.outcome == outcome, (fam, v.outcome)
        assert v.reason == reason, (fam, v.reason)
        if v.outcome == "rational":
            assert v.closed_form is not None and v.series_terms_checked >= 30
        else:
            assert v.certificate is not None and v.certificate.consistent(), fam
    _report(9, "12-map verdict battery matches the expected outcome table "
               "with consistent certificates", time.perf_counter() - start, 120)


def test_10_integrality_everywhere(F3):
    start = time.perf_counter()
    for fam in _master_grid():
        counts = [per_n_closed(fam, n) for n in range(1, 21)]
        series = zeta_from_counts(counts)
        assert all(isinstance(c, int) for c in series.coeffs)
        assert series.coeffs[0] == 1
    extra = [LattesGenericJ(3, 2), LattesGenericJ(5, -2),
             LattesSupersingular(5, sigma_trace=4, sigma_norm=4)]
    for fam in extra:
        counts = [per_n_closed(fam, n) for n in range(1, 21)]
        assert all(isinstance(c, int) for c in zeta_from_counts(counts).coeffs)
    _report(10, "every computed zeta prefix is integral",
            time.perf_counter() - start, 60)
