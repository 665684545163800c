import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynzeta import modpoly
from dynzeta.dynmap import (RatMap, compose, cycle_census, iterate,
                            per_n_oracle, rat_map)
from dynzeta.errors import InfinitePeriodicPoints, ScaleExceeded, SpecError
from dynzeta.families import (AdditiveMap, ChebyshevMap, PowerMap,
                               SubadditiveMap, per_n_closed, realize)
from dynzeta.field import Poly, embed, extend_field, field_make
from dynzeta.twisted import TwistedPoly

INFINITY = None


def _brute_census(ctx, num, den, max_n):
    """Cycle histogram of num/den on P^1(ctx) from each point's least
    period under a plain successor walk; num and den are coprime lists of
    elements with nonzero last entries."""
    def value(coeffs, z):
        return sum((c * z ** i for i, c in enumerate(coeffs)), ctx.zero())

    def f(z):
        if z is INFINITY:
            if len(num) > len(den):
                return INFINITY
            return num[-1] / den[-1] if len(num) == len(den) else ctx.zero()
        d = value(den, z)
        return INFINITY if d.is_zero() else value(num, z) / d

    points = [ctx.elem_at(i) for i in range(ctx.order)] + [INFINITY]
    lengths = {}
    for z in points:
        w = f(z)
        for period in range(1, len(points) + 1):
            if w == z:
                lengths[period] = lengths.get(period, 0) + 1
                break
            w = f(w)
    return sorted((n, c // n) for n, c in lengths.items() if n <= max_n)


@pytest.fixture
def sq3(F3):
    return rat_map(F3, [0, 0, 1])


class TestCompose:
    def test_monomials(self, F3, sq3):
        ff = compose(sq3, sq3)
        assert ff.num == Poly.x_power(F3, 4) and ff.den == Poly.one(F3)

    def test_quadratic_over_f5(self, F5):
        f = rat_map(F5, [-2, 0, 1])
        ff = compose(f, f)
        assert ff.num == Poly.from_ints(F5, [2, 0, 1, 0, 1])

    def test_inversion_is_an_involution(self, F3):
        inv = rat_map(F3, [1], [0, 1])
        assert compose(inv, inv).num == Poly.x_power(F3, 1)

    def test_degree_multiplies(self, F5):
        f = rat_map(F5, [1, 2, 1], [0, 0, 3])
        g = rat_map(F5, [0, 1, 1])
        assert compose(f, g).degree == f.degree * g.degree


    @pytest.mark.parametrize("fam", [PowerMap(5, 3), ChebyshevMap(5, 3),
                                     ChebyshevMap(7, 4)])
    def test_polynomial_iterates_multiply_no_constants(self, fam,
                                                       monkeypatch):
        # Q = 1 for a polynomial inner map: no power of it is formed, and
        # Horner starts at the top coefficient
        products = _recorded_products(monkeypatch)
        assert per_n_oracle(realize(fam), 3) == per_n_closed(fam, 3)
        assert products
        assert not [lens for lens in products if max(lens) <= 1]

    def test_constant_factors_are_scaled_not_multiplied(self, monkeypatch):
        # x -> 1/x^2 has a constant numerator and its square a constant
        # denominator: Q^0 * Q and every Horner step on a constant P are
        # scalar passes
        products = _recorded_products(monkeypatch)
        fam = PowerMap(7, -2)
        assert per_n_oracle(realize(fam), 3) == per_n_closed(fam, 3)
        assert products
        assert not [lens for lens in products if min(lens) <= 1]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(),
           field=st.sampled_from([(2, 1), (5, 1), (7, 1), (2, 2), (3, 2)]),
           degrees=st.tuples(*[st.integers(0, 3)] * 4))
    def test_matches_the_substitution_from_degree_m(self, data, field,
                                                    degrees):
        ctx = field_make(*field)
        elem = st.integers(0, ctx.order - 1).map(ctx.elem_at)
        lead = st.integers(1, ctx.order - 1).map(ctx.elem_at)
        parts = [data.draw(st.lists(elem, min_size=d, max_size=d))
                 + [data.draw(lead)] for d in degrees]
        try:
            f, g = rat_map(ctx, *parts[:2]), rat_map(ctx, *parts[2:])
        except SpecError:  # a constant map
            assume(False)
        assert compose(f, g) == _reference_compose(f, g)


# the primes of the split's digit cases and a prime above every degree here
SPLIT_PRIMES = [2, 3, 5, 7, 13, 2 ** 31 - 1]


@st.composite
def _split_case(draw):
    """(f, g) with f dense, sparse, a p-polynomial plus a translation, or
    y h(y)^d like a subadditive map, of degree up to 3p (12 at the large
    prime), and g a polynomial or a fraction over a monomial or a general
    denominator."""
    ctx = field_make(draw(st.sampled_from(SPLIT_PRIMES)))
    p = ctx.p
    top = 3 * p if p <= 13 else 12
    elem = st.integers(0, ctx.order - 1).map(ctx.elem_at)
    unit = st.integers(1, ctx.order - 1).map(ctx.elem_at)

    def coeffs(exponents):
        out = [ctx.zero()] * (max(exponents) + 1)
        for e in exponents:
            out[e] = draw(unit)
        return out

    shape = draw(st.sampled_from(("dense", "sparse", "additive", "subadditive")))
    if shape == "dense":
        num = draw(st.lists(elem, min_size=1, max_size=top)) + [draw(unit)]
    elif shape == "sparse":
        num = coeffs(draw(st.sets(st.integers(0, top), min_size=1, max_size=4)))
    elif shape == "additive" and p <= 13:  # above, x^p passes the degree cap
        num = coeffs(draw(st.sets(st.sampled_from((1, p, p * p)), min_size=1)))
        num[0] = draw(elem)  # the translation
    else:
        d = draw(st.integers(2, 3))
        h = [draw(unit)] + draw(st.lists(elem, max_size=(top - 1) // d))
        num = [ctx.zero()] + list((Poly.from_elems(ctx, h) ** d).coeffs)
    den = [draw(unit)] if draw(st.booleans()) else draw(
        st.lists(elem, min_size=1, max_size=3)) + [draw(unit)]
    g_den = draw(st.sampled_from(("one", "monomial", "general")))
    g_num = draw(st.lists(elem, max_size=3)) + [draw(unit)]
    if g_den == "one":
        g_den = [ctx.one()]
    elif g_den == "monomial":
        g_den = [ctx.zero()] * draw(st.integers(1, 3)) + [draw(unit)]
    else:
        g_den = draw(st.lists(elem, min_size=1, max_size=3)) + [draw(unit)]
    try:
        return rat_map(ctx, num, den), rat_map(ctx, g_num, g_den)
    except SpecError:  # a constant map
        assume(False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_split_case())
def test_frobenius_split_matches_the_substitution(case):
    f, g = case
    assert compose(f, g) == _reference_compose(f, g)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_a_p_polynomial_composes_without_products(monkeypatch, p):
    # sum a_i x^(p^i) + c after any polynomial g: Frobenius copies and
    # scalar passes
    ctx = field_make(p)
    f = rat_map(ctx, [3, 1] + [0] * (p - 2) + [2] + [0] * (p * p - p - 1) + [1])
    g = rat_map(ctx, [1, 2, 0, 1])
    expected = _reference_compose(f, g)
    products = _recorded_products(monkeypatch)
    assert compose(f, g) == expected
    assert not products


def _recorded_products(monkeypatch):
    """(len(a), len(b)) of every modpoly.mul(a, b, p) from now on."""
    products = []
    mul = modpoly.mul

    def recording(a, b, p):
        products.append((len(a), len(b)))
        return mul(a, b, p)

    monkeypatch.setattr(modpoly, "mul", recording)
    return products


def _reference_compose(f, g):
    """f(g(x)) by the substitution that runs Horner from i = deg f for
    numerator and denominator alike, with every power of g.den formed."""
    m = f.degree
    qpow = [Poly.one(f.ctx)]
    for _ in range(m):
        qpow.append(qpow[-1] * g.den)

    def substitute(coeffs):
        acc = Poly.zero(f.ctx)
        for i in range(m, -1, -1):
            c = coeffs[i] if i < len(coeffs) else f.ctx.zero()
            term = qpow[m - i].scale(c)
            acc = acc * g.num + term if i < m else term
        return acc

    num, den = substitute(f.num.coeffs), substitute(f.den.coeffs)
    inv = den.leading.inverse()
    return RatMap(num.scale(inv), den.scale(inv))


class TestIterate:
    def test_power_map(self, F3, sq3):
        assert iterate(sq3, 3).num == Poly.x_power(F3, 8)

    def test_additive_cube(self, F3):
        f = rat_map(F3, [0, -1, 0, 1])
        expected = compose(f, f)
        assert iterate(f, 2) == expected

    def test_identity_of_iteration(self, F3, sq3):
        assert iterate(sq3, 1) == sq3

    def test_degree_law(self, F5):
        f = rat_map(F5, [1, 0, 1], [0, 1])
        for n in range(1, 6):
            assert iterate(f, n).degree == f.degree ** n

    def test_scale_cap(self, F3, sq3):
        with pytest.raises(ScaleExceeded):
            iterate(sq3, 30)

    def test_huge_n_refused_without_the_power(self, F5):
        # 3^(10^8) is never formed to be compared with the cap
        start = time.perf_counter()
        with pytest.raises(ScaleExceeded):
            iterate(rat_map(F5, [0, 0, 0, 1]), 10 ** 8)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 1), (2, 1)])
    def test_degree_one_matches_repeated_composition(self, p, k):
        # Moebius maps are iterated by square-and-multiply; the reference
        # composes onto f n - 1 times
        ctx, rng, maps = field_make(p, k), random.Random(p * k), []
        while len(maps) < 10:
            a, b, c, d = (ctx.elem_at(rng.randrange(ctx.order)) for _ in range(4))
            if not (a * d - b * c).is_zero():
                maps.append(rat_map(ctx, [b, a], [d, c]))
        for f in maps:
            out = f
            for n in range(1, 40):
                assert iterate(f, n) == out
                out = compose(f, out)


class TestPerNOracle:
    def test_squaring_over_f3(self, sq3):
        assert per_n_oracle(sq3, 1) == 3

    def test_frobenius_count(self):
        for p in (2, 3, 5):
            F = field_make(p)
            f = rat_map(F, [0] * p + [1])
            assert per_n_oracle(f, 1) == p + 1

    def test_chebyshev_like(self, F5):
        assert per_n_oracle(rat_map(F5, [-2, 0, 1]), 1) == 3

    def test_identity_iterate_is_flagged(self, F3):
        inv = rat_map(F3, [1], [0, 1])
        with pytest.raises(InfinitePeriodicPoints):
            per_n_oracle(inv, 2)

    def test_upper_bound(self, F5):
        f = rat_map(F5, [1, 3, 0, 1], [2, 1])
        for n in (1, 2, 3):
            assert per_n_oracle(f, n) <= f.degree ** n + 1

    def test_divisibility_monotonicity(self, F3):
        f = rat_map(F3, [0, -1, 0, 1])
        for m, n in ((1, 2), (1, 3), (2, 4), (2, 6), (3, 6)):
            if f.degree ** n > 10_000:
                continue
            assert per_n_oracle(f, m) <= per_n_oracle(f, n)


ORACLE_FAMILIES = [
    (PowerMap(5, 3), 4),
    (PowerMap(7, -2), 4),
    (PowerMap(2 ** 61 - 1, 3), 3),            # object arrays
    (ChebyshevMap(3, 2), 6),
    (ChebyshevMap(4294967311, 2), 4),        # the first object-array prime
    (AdditiveMap(TwistedPoly.from_ints(field_make(3), [2, 1])), 4),
    (AdditiveMap(TwistedPoly.from_ints(field_make(5), [3, 0, 1]),
                 field_make(5).one()), 2),
    (SubadditiveMap(TwistedPoly.from_ints(field_make(7), [6, 2]), 3), 3),
]


@pytest.mark.parametrize("fam, n_max", ORACLE_FAMILIES)
def test_oracle_polynomials_stay_arrays(monkeypatch, fam, n_max):
    # every operand that reaches modpoly from the oracle is an array: no
    # list or tuple round trip between iterate, Euclid and the radical
    calls = {"mul": 0, "divrem": 0, "gcd": 0}
    for name in calls:
        def guarded(a, b, p, name=name, real=getattr(modpoly, name)):
            assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), name
            calls[name] += 1
            return real(a, b, p)
        monkeypatch.setattr(modpoly, name, guarded)
    f = realize(fam)
    for n in range(1, n_max + 1):
        assert per_n_oracle(f, n) == per_n_closed(fam, n)
    assert calls["gcd"] > 0
    if isinstance(fam, AdditiveMap):
        # a p-polynomial's iterate is Frobenius copies and scalar passes
        assert calls["mul"] == 0
    else:
        assert calls["mul"] > 0 or fam.degree < 0


class TestCycleCensus:
    def test_squaring_over_f9(self, sq3):
        table = dict(cycle_census(sq3, 2, 2))
        assert table.get(1) == 3
        # #Per_2 = #Per_1 + 2 * (number of 2-cycles)
        per2 = per_n_oracle(sq3, 2)
        assert per2 == 3 + 2 * table.get(2, 0)

    def test_additive_fixed_points_in_f9(self, F3):
        f = rat_map(F3, [0, -1, 0, 1])
        assert cycle_census(f, 2, 1) == [(1, 4)]
        assert per_n_oracle(f, 1) == 4

    def test_lone_fixed_point_at_infinity(self, F2):
        # x^2 + x fixes only 0 and infinity; over F_2 both are rational.
        f = rat_map(F2, [0, 1, 1])
        table = dict(cycle_census(f, 1, 2))
        assert table[1] == 2

    def test_census_matches_oracle_totals(self, F3):
        f = rat_map(F3, [1, 0, 1])
        for k in (1, 2):
            census = cycle_census(f, k, 6)
            # points of period dividing n, for n covered by the census field
            for n in (1, 2):
                in_field = sum(length * cnt for length, cnt in census if n % length == 0)
                assert in_field <= per_n_oracle(f, n)

    @pytest.mark.parametrize("q,num,den", [
        (5, [1], [0, 1]),                 # 1/x: a pole, deg num < deg den
        (5, [1, 0, 1], [0, 1]),           # x + 1/x
        (5, [2, 1], [4, 0, 1]),           # (x + 2)/(x^2 - 1): poles at +-1
        (7, [3, 1], [2, 1]),              # a Moebius map, deg num = deg den
        (7, [0, 0, 1], [1, 0, 0, 1]),     # x^2/(x^3 + 1)
        (7, [3, 0, 0, 1], [0, 0, 1]),     # (x^3 + 3)/x^2
        # maps over F_3 on P^1(F_9): x^2 + 1 has its roots outside F_3
        (9, [1, 0, 1], [2, 1]),           # (x^2 + 1)/(x + 2)
        (9, [2, 0, 1], [0, 1]),           # x + 2/x
        (9, [0, 0, 2], [1, 0, 1]),        # 2x^2/(x^2 + 1): poles at +-i
    ])
    def test_rational_maps_against_a_successor_walk(self, q, num, den):
        ctx, k = (field_make(3), 2) if q == 9 else (field_make(q), 1)
        ext = extend_field(ctx, k)
        f = rat_map(ctx, num, den)
        num, den = ([ext.from_int(c) for c in cs] for cs in (num, den))
        assert cycle_census(f, k, 20) == _brute_census(ext, num, den, 20)

    def test_inversion_over_f5(self, F5):
        # 1/x fixes 1 and -1 and swaps 0 with infinity and 2 with 3
        assert cycle_census(rat_map(F5, [1], [0, 1]), 1, 4) == [(1, 2), (2, 2)]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(),
           p=st.sampled_from([2, 3, 5, 7]),
           max_k=st.sampled_from([1, 1, 2, 3]),
           degrees=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           pole_at_zero=st.booleans())
    def test_random_maps_against_a_successor_walk(self, data, p, max_k,
                                                  degrees, pole_at_zero):
        # deg num below, at and above deg den; a factor x in den puts a
        # pole at 0 unless it cancels
        ctx = field_make(p)
        assume(ctx.order ** max_k <= 125)
        elem = st.integers(0, ctx.order - 1).map(ctx.elem_at)
        lead = st.integers(1, ctx.order - 1).map(ctx.elem_at)
        num, den = (data.draw(st.lists(elem, min_size=d, max_size=d))
                    + [data.draw(lead)] for d in degrees)
        if pole_at_zero:
            den = [ctx.zero()] + den
        try:
            f = rat_map(ctx, num, den)
        except SpecError:  # a constant map
            assume(False)
        ext = extend_field(ctx, max_k)
        num, den = ([embed(c, ext) for c in part.coeffs] for part in (f.num, f.den))
        assert cycle_census(f, max_k, 30) == _brute_census(ext, num, den, 30)

    def test_census_agreement_when_complete(self, sq3):
        # Points of period 3 of x -> x^2 are seventh roots of unity, which
        # live in F_729; periods 1 and 2 need only F_3.
        census = cycle_census(sq3, 6, 3)
        for n in (1, 2, 3):
            total = sum(length * cnt for length, cnt in census if n % length == 0)
            assert total == per_n_oracle(sq3, n)
