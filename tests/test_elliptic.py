import gc
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynzeta import elliptic, field
from dynzeta.dynmap import per_n_oracle
from dynzeta.elliptic import (CurvePoint, EllipticCurve, _affine_points,
                              _division_lanes, _multiples, add, identity,
                              is_supersingular, lattes_oracle,
                              lattes_realize, mul_by_m, negate, point_count,
                              point_orders_by_trace, points_over,
                              torsion_count, trace_of_frobenius)
from dynzeta.errors import ScaleExceeded, SpecError
from dynzeta.field import _flat_field, field_make, ratfunc_field
from dynzeta.intarith import v_p
from dynzeta.limits import ENUM_CAP, TORSION_INDEX_CAP


@pytest.fixture(scope="module")
def E51(F5):
    return EllipticCurve(F5, F5.from_int(1), F5.from_int(1))


def curve(ctx, a, b):
    return EllipticCurve(ctx, ctx.from_int(a), ctx.from_int(b))


@st.composite
def curves(draw):
    p = draw(st.sampled_from((5, 7, 11, 13)))
    coeffs = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    a, b = draw(coeffs.filter(lambda c: (4 * c[0] ** 3 + 27 * c[1] ** 2) % p))
    return curve(field_make(p), a, b)


def _boxed_torsion_count(E, N, k_max):
    """torsion_count's sweep, counting with the boxed group law."""
    if N == 1:
        return 1, True
    p, q = E.ctx.p, E.ctx.order
    a = v_p(N, p)
    u = N // p ** a
    target = u * u * (1 if is_supersingular(E) else p ** a)
    orders = point_orders_by_trace(E, k_max)
    best = 0
    for k in range(1, k_max + 1):
        if q ** k > ENUM_CAP:
            break
        if orders[k] % target or (q ** k - 1) % u:
            continue
        cnt = sum(mul_by_m(P, N).is_identity for P in points_over(E, k))
        best = max(best, cnt)
        if cnt == target:
            return cnt, True
    return best, False


class TestGroupLaw:
    def test_identity_laws(self, E51):
        pts = points_over(E51, 1)
        for P in pts:
            assert add(P, identity(E51)) == P
            assert add(P, negate(P)).is_identity

    def test_associativity_sample(self, E51):
        pts = [P for P in points_over(E51, 1)][:6]
        for P in pts:
            for Q in pts:
                for R in pts:
                    assert add(add(P, Q), R) == add(P, add(Q, R))

    def test_order_by_enumeration(self, E51):
        order = point_count(E51)
        for P in points_over(E51, 1):
            assert mul_by_m(P, order).is_identity
            k = 1
            acc = P
            while not acc.is_identity:
                acc = add(acc, P)
                k += 1
            assert mul_by_m(P, k).is_identity

    def test_singular_curve_rejected(self, F5):
        with pytest.raises(SpecError):
            curve(F5, 0, 0)

    def test_off_curve_point_rejected(self, E51, F5):
        with pytest.raises(SpecError):
            CurvePoint(E51, F5.from_int(0), F5.from_int(2))


class TestPointCount:
    def test_hasse_window(self, F5, F7):
        for ctx in (F5, F7):
            q = ctx.order
            for a in range(q):
                for b in range(q):
                    try:
                        E = curve(ctx, a, b)
                    except SpecError:
                        continue
                    t = q + 1 - point_count(E)
                    assert t * t <= 4 * q

    def test_count_divisibility_in_towers(self, E51):
        assert point_count(E51, 2) % point_count(E51, 1) == 0

    def test_supersingular_matches_j_classification(self, F5, F7):
        # Over F_5 supersingular iff j = 0; over F_7 iff j = 1728 = 6.
        for ctx, ss_j in ((F5, 0), (F7, 1728 % 7)):
            for a in range(ctx.order):
                for b in range(ctx.order):
                    try:
                        E = curve(ctx, a, b)
                    except SpecError:
                        continue
                    expected = E.j_invariant() == ctx.from_int(ss_j)
                    assert is_supersingular(E) == expected


class TestTorsion:
    def test_trivial(self, E51):
        assert torsion_count(E51, 1, 4) == (1, True)

    def test_full_3_torsion(self, E51):
        count, complete = torsion_count(E51, 3, 4)
        assert (count, complete) == (9, True)

    def test_p_torsion_ordinary(self, E51):
        assert not is_supersingular(E51)
        count, complete = torsion_count(E51, 5, 4)
        assert count == 5 and complete

    def test_p_torsion_supersingular(self, F7):
        E = curve(F7, -1, 0)
        assert is_supersingular(E)
        count, complete = torsion_count(E, 7, 2)
        assert count == 1 and complete

    def test_multiplicative_over_coprime(self, F7):
        E = curve(F7, 1, 3)
        c2, ok2 = torsion_count(E, 2, 4)
        c3, ok3 = torsion_count(E, 3, 4)
        c6, ok6 = torsion_count(E, 6, 4)
        if ok2 and ok3 and ok6:
            assert c6 == c2 * c3

    def test_an_enumeration_short_of_the_group_order_is_refused(
            self, E51, monkeypatch):
        # the Frobenius recurrence's order stands in for a per-point check;
        # the walk of E(F_5), which gives the trace, stays whole, and the
        # walk of E(F_25), the first that can hold E[3], misses a point
        walk = elliptic._affine_points

        def short(E, k):
            curve, arith, xs, ys = walk(E, k)
            return (curve, arith) + ((xs, ys) if k == 1 else (xs[1:], ys[1:]))

        monkeypatch.setattr(elliptic, "_affine_points", short)
        with pytest.raises(SpecError, match=r"\(internal\)"):
            torsion_count(E51, 3, 4)


class TestArrayWalks:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(E=curves(), N=st.integers(1, 20), k_max=st.integers(1, 3))
    def test_torsion_count_matches_the_boxed_group_law(self, E, N, k_max):
        assert torsion_count(E, N, k_max) == _boxed_torsion_count(E, N, k_max)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(E=curves(), k=st.integers(1, 3), m=st.integers(1, 20))
    def test_masked_law_gives_every_multiple(self, E, k, m):
        # torsion_count skips most fields; this compares every one
        points = points_over(E, k)[1:]
        xs, ys, at_identity = _multiples(*_affine_points(E, k), m)
        for P, x, y, o in zip(points, xs.tolist(), ys.tolist(),
                              at_identity.tolist()):
            image = mul_by_m(P, m)
            assert o == image.is_identity
            if not o:
                assert (x, y) == (image.x.rep, image.y.rep)

    # supersingular (5, 0, 1) and (7, 1, 0); 2-torsion over F_p on
    # (5, 0, 1), (7, 1, 0), (7, 1, 3) and (13, 2, 1)
    @pytest.mark.parametrize("p,a,b", [(5, 0, 1), (5, 1, 1), (7, 1, 0),
                                       (7, 1, 3), (11, 1, 6), (13, 2, 1)])
    def test_division_values_find_the_group_laws_torsion(self, p, a, b):
        # every field with q^k <= 2,500 and every N <= 50, p | N included
        E = curve(field_make(p), a, b)
        for k in range(1, 5):
            if p ** k > 2500:
                break
            points = _affine_points(E, k)
            for N in range(2, TORSION_INDEX_CAP + 1):
                at_identity = _multiples(*points, N)[2]
                assert (_division_lanes(*points, N) == at_identity).all(), (
                    k, N)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(E=curves(), k=st.integers(1, 3))
    def test_point_count_is_the_number_of_points(self, E, k):
        points = points_over(E, k)
        assert point_count(E, k) == len(points)
        assert all(P.curve is E for P in points)
        # against the boxed quadratic-character count, with E's rhs read
        # at every x of F_(p^k)
        ext = field_make(E.ctx.p, k)
        roots = {z * z: z for z in ext.elements()}
        rhs = [E.rhs(x) for x in ext.elements()]
        assert len(points) == 1 + sum(1 if r.is_zero() else 2 * (r in roots)
                                      for r in rhs)

    def test_walks_past_the_cap_are_refused(self, E51):
        # 5^9 points exceed limits.ENUM_CAP; no field is made or walked
        with pytest.raises(ScaleExceeded):
            point_count(E51, 9)
        with pytest.raises(ScaleExceeded):
            points_over(E51, 9)

    @pytest.mark.parametrize("p,a,b,k", [(5, 1, 1, 1), (7, 2, 3, 1),
                                         (13, 1, 6, 1), (5, 1, 1, 2)])
    def test_points_over_lists_each_x_with_its_roots(self, p, a, b, k):
        E = curve(field_make(p), a, b)
        points = points_over(E, k)
        assert points[0].is_identity
        assert all(P.curve is E for P in points)
        xs = [P.x.rep for P in points[1:]]
        assert xs == sorted(xs)
        ext = field_make(p, k)
        roots = {z * z: z for z in ext.elements()}
        expected = set()
        for x in ext.elements():
            y = roots.get(E.rhs(x))
            if y is not None:
                expected |= {(x.rep, y.rep), (x.rep, (-y).rep)}
        assert {(P.x.rep, P.y.rep) for P in points[1:]} == expected
        assert len(points) == len(expected) + 1


class TestLattesOracle:
    def test_half_sum_of_torsion(self, E51):
        assert lattes_oracle(E51, 2, 1) == 5   # (1 + 9) / 2

    def test_n2_over_f7(self, F7):
        E = curve(F7, 1, 3)
        assert not is_supersingular(E)
        assert lattes_oracle(E, 2, 2) == 17    # (9 + 25) / 2

    def test_p_divides_kernel_index(self, E51):
        # m^n - 1 = 3, m^n + 1 = 5 = p: the 5-part collapses to Z/5.
        assert lattes_oracle(E51, 2, 2) == (9 + 5) // 2

    def test_huge_n_refused_without_the_power(self, E51):
        # 2^(10^8) + 1 is never formed to be compared with the index cap
        start = time.perf_counter()
        with pytest.raises(ScaleExceeded, match="beyond the oracle range"):
            lattes_oracle(E51, 2, 10 ** 8)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("m,n", [(TORSION_INDEX_CAP, 1), (2, 6), (7, 3)])
    def test_index_past_the_cap_refused(self, E51, m, n):
        # m^n + 1 > TORSION_INDEX_CAP: refused before any torsion walk
        assert m ** n + 1 > TORSION_INDEX_CAP
        start = time.perf_counter()
        with pytest.raises(ScaleExceeded, match="beyond the oracle range"):
            lattes_oracle(E51, m, n)
        assert time.perf_counter() - start < 1.0


class TestLattesRealize:
    def test_duplication_formula(self, E51, F5):
        f = lattes_realize(E51, 2)
        # (x^4 - 2Ax^2 - 8Bx + A^2) / (4(x^3 + Ax + B)), monic denominator
        num = [c.rep for c in f.num.coeffs]
        den = [c.rep for c in f.den.coeffs]
        assert den == [1, 1, 0, 1]
        assert num == [4, 3, 2, 0, 4]

    def test_pointwise_against_group_law(self, F7):
        E = curve(F7, 2, 3)
        f = lattes_realize(E, 3)
        for P in points_over(E, 1):
            if P.is_identity:
                continue
            img = mul_by_m(P, 3)
            dv = f.den.eval(P.x)
            if img.is_identity:
                assert dv.is_zero()
            else:
                assert f.num.eval(P.x) / dv == img.x

    def test_oracle_cross_check(self, E51):
        f = lattes_realize(E51, 2)
        assert per_n_oracle(f, 1) == lattes_oracle(E51, 2, 1)
        assert per_n_oracle(f, 2) == lattes_oracle(E51, 2, 2)

    def test_degree_is_m_squared(self, F7):
        E = curve(F7, 1, 3)
        for m in (2, 3, 4, 5):
            assert lattes_realize(E, m).degree == m * m

    def test_inseparable_multiplier_refused(self, E51):
        with pytest.raises(SpecError):
            lattes_realize(E51, 5)


def test_frobenius_params_consistent(F5):
    E = curve(F5, 1, 1)
    t = trace_of_frobenius(E)
    assert point_count(E) == 5 + 1 - t


@pytest.mark.parametrize("ctx", [field_make(5, 2), field_make(7, 2),
                                 ratfunc_field(5)], ids=repr)
def test_a_curve_needs_coefficients_in_f_p(ctx):
    # F_25, F_49 and F_5(u): nonsingular y^2 = x^3 + x + 1 over each
    with pytest.raises(SpecError, match="curves need coefficients in F_p"):
        EllipticCurve(ctx, ctx.from_int(1), ctx.from_int(1))


def test_a_curve_over_an_extension_is_refused_before_any_field_is_made():
    # the refusal is at construction: no walk is reached, and F_625, the
    # field a walk of E(F_(25^2)) would have needed, is never sought
    _flat_field.cache_clear()
    F25 = field_make(5, 2)
    misses = _flat_field.cache_info().misses
    with pytest.raises(SpecError, match="curves need coefficients in F_p"):
        curve(F25, 1, 1)
    assert _flat_field.cache_info().misses == misses


def test_trace_of_frobenius_keeps_no_curve():
    # a curve, and with it its field's tables, is freed once it is dropped
    E = curve(field_make(101), 1, 1)
    assert trace_of_frobenius(E) == 101 + 1 - point_count(E)
    curve_ref, table_ref = weakref.ref(E), weakref.ref(E.ctx.arrays().log)
    del E
    gc.collect()
    assert curve_ref() is None and table_ref() is None


def test_torsion_count_with_no_extension_walks_only_the_base(E51):
    assert torsion_count(E51, 2, 0) == (0, False)
    with pytest.raises(ScaleExceeded):
        torsion_count(curve(field_make(1000003), 1, 1), 2, 0)


def test_walks_over_extensions_use_no_boxed_extension_arithmetic(monkeypatch):
    # a torsion count, a point count and the Lattes oracle read E's F_p
    # reps in F_(7^k)'s rep arrays; no element of an extension is boxed
    def refuse(*args):
        raise AssertionError("boxed extension-field arithmetic")

    for name in ("add", "neg", "mul", "inverse", "pow"):
        monkeypatch.setattr(field._TableField, name, refuse)
    E = curve(field_make(7), 1, 3)
    assert torsion_count(E, 3, 4) == (9, True)
    assert torsion_count(E, 5, 3) == (0, False)
    assert point_count(E, 2) == 60
    assert lattes_oracle(E, 2, 2, k_max=4) == 17
