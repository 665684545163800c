import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from dynzeta import modpoly
from dynzeta.dynmap import cycle_census, rat_map
from dynzeta.errors import NotPrime, ScaleExceeded, SpecError, ZeroPolynomial
from dynzeta.field import (Poly, _flat_field, _least_irreducible, _tonelli_shanks,
                           distinct_root_count, extend_field, embed, field_make,
                           ratfunc_field, separable_radical)
from dynzeta.intarith import factorize
from dynzeta.limits import ENUM_CAP, RF_GCD_DEGREE_CAP
from dynzeta.orders import _norm_recurrence


class TestFieldMake:
    def test_prime_field_has_no_modulus(self):
        ctx = field_make(3, 1)
        assert ctx.modulus is None and ctx.order == 3

    def test_f4_modulus_is_the_unique_irreducible(self):
        ctx = field_make(2, 2)
        assert [c.rep for c in ctx.modulus] == [1, 1, 1]

    def test_composite_characteristic_rejected(self):
        with pytest.raises(NotPrime):
            field_make(4, 1)

    def test_reproducible(self):
        a = field_make(5, 3)
        b = field_make(5, 3)
        assert a == b and [c.rep for c in a.modulus] == [c.rep for c in b.modulus]


def _ref_least_irreducible(p, k):
    """The first monic x^k + c_(k-1) x^(k-1) + ... + c_0, in ascending
    order of c_0 + c_1 p + ..., that passes Rabin's test, binomials
    included: x^(p^k) = x mod f and gcd(x^(p^(k/r)) - x, f) = 1 for each
    prime r | k."""
    x = [0, 1]
    for m in range(p ** k):
        f = [m // p ** i % p for i in range(k)] + [1]

        def frob(j):  # x^(p^j) mod f
            return modpoly.pow_mod(x, p ** j, f, p).tolist()

        if frob(k) == x and all(
                modpoly.gcd(modpoly.sub(frob(k // r), x, p), f, p).tolist() == [1]
                for r in (2, 3, 5, 7) if k % r == 0):
            return f
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")


PRIMES_BELOW_60 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@pytest.mark.parametrize("p,k", [(p, k) for p in PRIMES_BELOW_60 for k in (2, 3, 4, 5)]
                         + [(p, k) for p in (2, 3, 5, 7) for k in (6, 7, 8)]
                         + [(p, k) for p in (101, 1009) for k in (2, 3, 4)])
def test_modulus_is_the_least_irreducible(p, k):
    # the Rabin test runs on no binomial that Lidl-Niederreiter Thm 3.75
    # rules out, and the modulus stays the first irreducible of the walk;
    # the search is checked past ENUM_CAP too, where no field is made
    least = _ref_least_irreducible(p, k)
    assert _least_irreducible(p, k) == least
    if p ** k <= ENUM_CAP:
        assert [c.rep for c in field_make(p, k).modulus] == least


def test_extensions_past_the_enumeration_cap_are_refused_at_once():
    # no walk covers more than ENUM_CAP points, so no modulus is sought
    # for such a field; a degree outside the cap stays an invalid spec
    F37sq = field_make(37, 2)
    for make, args in ((field_make, (101, 3)), (field_make, (1009, 2)),
                       (field_make, (2, 20)), (field_make, (1000003, 4)),
                       (extend_field, (F37sq, 2))):
        start = time.perf_counter()
        with pytest.raises(ScaleExceeded, match="exceeds cap"):
            make(*args)
        assert time.perf_counter() - start < 0.1
    for make, args in ((field_make, (2, 25)), (extend_field, (field_make(2, 12), 3))):
        with pytest.raises(SpecError, match=r"outside \[1, 24\]"):
            make(*args)


class TestPolyArith:
    def test_gcd_common_factor(self, F5):
        a = Poly.from_ints(F5, [-1, 0, 1])   # x^2 - 1
        b = Poly.from_ints(F5, [-1, 1])      # x - 1
        assert a.gcd(b) == Poly.from_ints(F5, [-1, 1])

    def test_derivative_of_pth_power_vanishes(self, F5):
        f = Poly.x_power(F5, 5)
        assert f.derivative().is_zero()

    def test_divrem(self, F2):
        a = Poly.from_ints(F2, [0, 1, 0, 1])  # x^3 + x
        b = Poly.x_power(F2, 2)
        q, r = a.divrem(b)
        assert q == Poly.from_ints(F2, [0, 1]) and r == Poly.from_ints(F2, [0, 1])
        assert (q * b + r) == a

    def test_divrem_identity_random(self, F7):
        rng = random.Random(7)
        for _ in range(40):
            a = Poly.from_ints(F7, [rng.randrange(7) for _ in range(rng.randint(1, 12))])
            b = Poly.from_ints(F7, [rng.randrange(7) for _ in range(rng.randint(1, 6))])
            if b.is_zero():
                continue
            q, r = a.divrem(b)
            assert q * b + r == a and r.degree < b.degree


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2 ** 31 - 1, 1), (2 ** 61 - 1, 1)])
def test_poly_steps_match_the_rep_loop(p, k):
    # scale, negation and the derivative are array operations; the
    # field's rep loop is the reference here
    ctx = field_make(p, k)
    rnd = random.Random(p)
    f = Poly.from_reps(ctx, [rnd.randrange(ctx.order) for _ in range(40)]
                       + [rnd.randrange(1, ctx.order)])
    assert f.scale(ctx.zero()) == Poly.zero(ctx)
    assert f.scale(ctx.one()) is f
    unit = ctx.elem_at(rnd.randrange(1, ctx.order))
    reps = f.reps.tolist()
    assert f.scale(unit).reps.tolist() == [ctx.mul(x, unit.rep) for x in reps]
    assert (-f).reps.tolist() == [ctx.neg(x) for x in reps]
    loop = [ctx.mul(i % p, c) for i, c in enumerate(reps)][1:]
    assert f.derivative() == Poly.from_reps(ctx, loop)
    assert all(g.reps.dtype == ctx.dtype for g in (f.scale(unit), -f, f.derivative()))


@pytest.mark.parametrize("p", (3, 2 ** 31 - 1, 4294967311, 2 ** 61 - 1))
def test_scalars_leaving_the_arrays_are_python_ints(p):
    # the last int64 prime, the first object-array prime and a large one:
    # coefficients, leading terms, values, hashes and reprs of Polys, the
    # sparse terms of F_p(u) and the norm recurrence's char list are Python
    # ints, so big-int arithmetic downstream never sees a numpy scalar
    ctx = field_make(p)
    rnd = random.Random(p)
    f = Poly.from_ints(ctx, [rnd.randrange(p) for _ in range(12)] + [1])
    g = Poly.from_ints(ctx, [rnd.randrange(p) for _ in range(7)] + [p - 1])
    q, r = (f * g + f.derivative()).divrem(g)
    for h in (f, f + g, f * g, q, r, f.gcd(g * f), -f, f.scale(ctx.from_int(3)),
              g.monic(), f.derivative(), f.shift(2), separable_radical(f * f * g)):
        assert h.reps.dtype == ctx.dtype
        ints = h.reps.tolist()
        assert all(type(c.rep) is int for c in h.coeffs)
        assert all(type(c) is int for c in ints)
        assert type(h.eval(ctx.from_int(rnd.randrange(p))).rep) is int
        assert hash(h) == hash((ctx._sig, tuple(ints)))
        if not h.is_zero():
            assert type(h.leading.rep) is int
            assert repr(h) == ("Poly(" + " + ".join(f"{c}*x^{i}" for i, c in enumerate(ints) if c)
                               + f" over {ctx!r})")
    F = ratfunc_field(p)
    u = F.u()
    x = (u + 1) * (u * u + 2) / ((u + 1) * (u * u * u + u + 5))
    assert x * (u * u * u + u + 5) == u * u + 2
    assert all(type(e) is int and type(c) is int for part in x.rep for e, c in part)
    char, rec = _norm_recurrence(3, 5, p)
    assert all(type(c) is int for c in char + rec)
    assert char == [c % p for c in (25, -45, 28, -9, 1)]


@pytest.mark.parametrize("p", (2, 3))
def test_prime_field_pth_root_is_every_pth_coefficient(p):
    # c^(q/p) = c when q = p, so the root of h^p = h(x^p) is its reps[::p].
    # A polynomial with zero derivative has degree at least p, past the
    # degree cap at the large primes, which never reach this step.
    ctx = field_make(p)
    rnd = random.Random(p)
    h = Poly.from_ints(ctx, [rnd.randrange(p) for _ in range(30)] + [1])
    f = h ** p
    assert f.derivative().is_zero()
    loop = [ctx.pow(c, ctx.order // p) for c in f.reps[::p].tolist()]
    assert loop == f.reps[::p].tolist() == h.reps.tolist()
    assert separable_radical(f) == separable_radical(h)


class TestSeparableRadical:
    def test_cube_collapses(self, F3):
        f = Poly.from_ints(F3, [-1, 1])
        cube = f * f * f
        assert separable_radical(cube) == Poly.from_ints(F3, [2, 1])

    def test_x6_plus_1_over_f3(self, F3):
        # x^6 + 1 = (x^2 + 1)^3 over F_3: check by expansion, then radical.
        g = Poly.from_ints(F3, [1, 0, 1])
        assert g * g * g == Poly.from_ints(F3, [1, 0, 0, 0, 0, 0, 1])
        assert separable_radical(Poly.from_ints(F3, [1, 0, 0, 0, 0, 0, 1])) == g

    def test_already_squarefree(self, F5):
        f = Poly.from_ints(F5, [1, 0, 1])
        assert separable_radical(f) == f
        # roots are 2 and 3
        assert f.eval(F5.from_int(2)).is_zero() and f.eval(F5.from_int(3)).is_zero()

    def test_zero_polynomial_rejected(self, F3):
        with pytest.raises(ZeroPolynomial):
            separable_radical(Poly.zero(F3))

    def test_radical_is_squarefree_random(self, F3):
        rng = random.Random(33)
        for _ in range(60):
            coeffs = [rng.randrange(3) for _ in range(rng.randint(2, 20))]
            f = Poly.from_ints(F3, coeffs)
            if f.is_zero() or f.degree < 1:
                continue
            rad = separable_radical(f)
            if rad.degree <= 0:
                continue
            d = rad.derivative()
            assert not d.is_zero()
            assert rad.gcd(d).degree == 0

    def test_radical_generic_extension_field(self):
        # no Poly over F_9 is made; x^6 + 1 has its coefficients in F_3,
        # and its radical there is the radical over every extension
        with pytest.raises(SpecError, match="prime coefficient field"):
            Poly.from_ints(field_make(3, 2), [1, 0, 0, 0, 0, 0, 1])
        F3 = field_make(3)
        f = Poly.from_ints(F3, [1, 0, 0, 0, 0, 0, 1])
        assert separable_radical(f) == Poly.from_ints(F3, [1, 0, 1])


class TestDistinctRootCount:
    def test_splitting_cubic(self, F3):
        assert distinct_root_count(Poly.from_ints(F3, [0, -1, 0, 1])) == 3

    def test_ninth_power(self, F3):
        f = Poly.from_ints(F3, [-1, 1])
        acc = Poly.one(F3)
        for _ in range(9):
            acc = acc * f
        assert distinct_root_count(acc) == 1

    def test_additive_map_polynomial(self, F3):
        assert distinct_root_count(Poly.from_ints(F3, [0, 0, 0, 1, 0, 0, 0, 0, 0, 1])) == 3

    def test_subadditive_over_products(self, F5):
        rng = random.Random(5)
        for _ in range(40):
            f = Poly.from_ints(F5, [rng.randrange(5) for _ in range(rng.randint(2, 10))])
            g = Poly.from_ints(F5, [rng.randrange(5) for _ in range(rng.randint(2, 10))])
            if f.is_zero() or g.is_zero():
                continue
            total = distinct_root_count(f * g)
            assert total <= distinct_root_count(f) + distinct_root_count(g)
            if f.gcd(g).degree == 0:
                assert total == distinct_root_count(f) + distinct_root_count(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_frobenius_is_additive_on_f9(i, j):
    F9 = field_make(3, 2)
    a, b = F9.elem_at(i), F9.elem_at(j)
    assert (a + b) ** 3 == a ** 3 + b ** 3


def test_frobenius_additive_on_f8():
    F8 = field_make(2, 3)
    for i in range(8):
        for j in range(8):
            a, b = F8.elem_at(i), F8.elem_at(j)
            assert (a + b) ** 2 == a ** 2 + b ** 2


class TestRationalFunctionField:
    def test_arithmetic_and_zero_tests(self, F3u):
        u = F3u.u()
        val = (u + 1) * (u - 1) - (u * u - 1)
        assert val.is_zero()
        assert not (u + 1).is_zero()

    def test_frobenius_scales_exponents(self, F3u):
        u = F3u.u()
        c = u ** 2 + 1
        frob = c.frobenius()
        assert frob == c * c * c

    def test_inverse_round_trip(self, F3u):
        u = F3u.u()
        c = (u ** 3 + u + 1) / (u + 2)
        assert (c * c.inverse()).is_one()

    def test_constant_detection(self, F3u):
        assert F3u.from_int(2).is_constant()
        assert F3u.from_int(2).constant_value() == 2
        assert not F3u.u().is_constant()

    def test_a_gcd_past_the_degree_cap_is_refused(self):
        # u^4097 + 1 and u^3 + u + 1 are no monomials, so reducing their
        # quotient takes a gcd of degree RF_GCD_DEGREE_CAP + 1
        u = ratfunc_field(5).u()
        assert 4097 == RF_GCD_DEGREE_CAP + 1
        with pytest.raises(ScaleExceeded, match="degree cap"):
            (u ** 4097 + 1) / (u ** 3 + u + 1)


def test_embedding_through_towers():
    # F_81 is reached from F_9 by extend_field, but only F_3 embeds in it
    F9 = field_make(3, 2)
    F81 = extend_field(F9, 2)
    for x in (F9.elem([0, 1]), F9.one()):
        with pytest.raises(SpecError, match="F_p into its extensions"):
            embed(x, F81)
    F3 = field_make(3)
    assert [embed(x, F81) for x in F3.elements()] == [F81.from_int(n) for n in range(3)]


@pytest.mark.parametrize("p,a,b", [(2, 2, 3), (2, 3, 2), (3, 2, 2), (5, 2, 2),
                                   (7, 1, 3)])
def test_extension_of_an_extension_is_the_flat_field(p, a, b):
    flat, src = field_make(p, a * b), field_make(p, a)
    ext = extend_field(src, b)
    assert ext == flat and hash(ext) == hash(flat)
    assert [c.rep for c in ext.modulus] == [c.rep for c in flat.modulus]
    assert ext.base.is_prime_field and ext.k == a * b
    assert extend_field(src, 1) is src


def test_extension_degree_cap_bounds_the_degree_over_f_p():
    # F_(2^36) is out of reach from F_(2^12) as from F_2; F_(2^24) is
    # within the degree cap and past the enumeration cap
    F = field_make(2, 12)
    with pytest.raises(ScaleExceeded):
        extend_field(F, 2)
    for ctx, degree in ((F, 3), (field_make(2), 25), (F, 0)):
        with pytest.raises(SpecError, match=r"outside \[1, 24\]"):
            extend_field(ctx, degree)


@pytest.mark.parametrize("p,a,b", [(2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 3),
                                   (5, 2, 2)])
def test_embed_is_an_injective_ring_homomorphism(p, a, b):
    # F_p into the extension of F_(p^a) of degree b
    src = field_make(p)
    target = extend_field(field_make(p, a), b)
    image = {x: embed(x, target) for x in src.elements()}
    assert len(set(image.values())) == src.order
    assert image[src.zero()].is_zero() and image[src.one()].is_one()
    for x, y in image.items():
        assert y.ctx == target
        assert embed(-x, target) == -y
        if not x.is_zero():
            assert embed(x.inverse(), target) == y.inverse()
    for x in src.elements():
        for z in src.elements():
            assert image[x + z] == image[x] + image[z]
            assert image[x * z] == image[x] * image[z]


def test_embed_into_a_field_without_tables():
    # every extension has its tables: F_(37^4), past ENUM_CAP, is refused
    # before embed could be asked to reach it
    with pytest.raises(ScaleExceeded):
        extend_field(field_make(37, 2), 2)


def test_embed_refuses_a_field_that_is_not_a_subfield():
    with pytest.raises(SpecError):
        embed(field_make(2, 2).elem([0, 1]), field_make(2, 3))
    with pytest.raises(SpecError):
        embed(field_make(3).one(), field_make(5, 2))
    with pytest.raises(SpecError):
        embed(field_make(3).one(), ratfunc_field(3))


# -- flat extensions against coefficient-list arithmetic ------------------------------


def _reference(ctx):
    """Field operations on coefficient lists, computed with modpoly alone."""
    p, k = ctx.p, ctx.k
    mod = [c.rep for c in ctx.modulus]

    def reduce(a):
        return modpoly.divrem(a, mod, p)[1].tolist()

    def power(a, e):
        if e < 0:
            a, e = power(a, ctx.order - 2), -e
        return modpoly.pow_mod(a, e, mod, p).tolist()

    def elem(a):
        a = modpoly.trim([c % p for c in a])
        assert len(a) <= k
        return ctx.elem(a)

    return reduce, power, elem


def _samples(ctx, count, seed):
    rng = random.Random(seed)
    if ctx.order ** 2 <= count:
        vecs = [[(i // ctx.p ** j) % ctx.p for j in range(ctx.k)]
                for i in range(ctx.order)]
        return [(a, b) for a in vecs for b in vecs]
    return [([rng.randrange(ctx.p) for _ in range(ctx.k)],
             [rng.randrange(ctx.p) for _ in range(ctx.k)])
            for _ in range(count)]


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 4), (7, 4)])
def test_flat_extension_matches_coefficient_lists(p, k):
    ctx = field_make(p, k)
    reduce, power, elem = _reference(ctx)
    rng = random.Random(p * 100 + k)
    for a, b in _samples(ctx, 400, p + k):
        x, y = elem(a), elem(b)
        a, b = modpoly.trim(a), modpoly.trim(b)
        assert x * y == elem(reduce(modpoly.mul(a, b, p)))
        assert x + y == elem(modpoly.add(a, b, p))
        assert x - y == elem(modpoly.sub(a, b, p))
        assert -x == elem(modpoly.neg(a, p))
        e = rng.randrange(-3 * ctx.order, 3 * ctx.order)
        if b:
            assert x / y == elem(reduce(modpoly.mul(a, power(b, -1), p)))
        if a:
            assert x.inverse() == elem(power(a, -1))
            assert x ** e == elem(power(a, e))
        elif e >= 0:
            assert x ** e == (ctx.one() if e == 0 else ctx.zero())


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 4), (7, 4)])
def test_flat_extension_index_round_trip(p, k):
    ctx = field_make(p, k)
    for i in range(ctx.order):
        z = ctx.elem_at(i)
        assert z.rep == i
        assert ctx.elem_at(z.rep) == z
        # elem_at order: the base-p digits of the index are the coefficients
        assert z == ctx.elem([(i // p ** j) % p for j in range(k)])


@pytest.mark.parametrize("p,k", [(2, 3), (5, 4), (997, 2)])
def test_flat_extension_constructors_agree(p, k):
    ctx = field_make(p, k)
    for n in (0, 1, 2, p - 1, p, -1, 3 * p + 2):
        made = (ctx.from_int(n), ctx.elem([n]), ctx.elem_at(n % p),
                ctx.elem(n), extend_field(field_make(p), k).from_int(n))
        for z in made:
            assert z == made[0] and hash(z) == hash(made[0])
            assert z == n
    vec, index = [1] + [0] * (k - 2) + [p - 1], 1 + (p - 1) * p ** (k - 1)
    assert ctx.elem(vec) == ctx.elem_at(index)
    assert hash(ctx.elem(vec)) == hash(ctx.elem_at(index))


def test_tables_give_logarithms_of_every_element():
    ctx = field_make(5, 4)
    logs = ctx.log_table[1:ctx.order]
    assert set(logs) == set(range(ctx.order - 1))
    assert [ctx.exp_table[n] for n in logs] == list(range(1, ctx.order))


def test_large_flat_extension_matches_coefficient_lists():
    # the largest p whose quadratic extension is under ENUM_CAP
    ctx = field_make(997, 2)
    reduce, power, elem = _reference(ctx)
    for a, b in _samples(ctx, 60, 997):
        x, y = elem(a), elem(b)
        a, b = modpoly.trim(a), modpoly.trim(b)
        assert x * y == elem(reduce(modpoly.mul(a, b, 997)))
        assert x + y == elem(modpoly.add(a, b, 997))
        assert -x == elem(modpoly.neg(a, 997))
        if a:
            assert x.inverse() == elem(power(a, -1))
            assert x ** -5 == elem(power(a, -5))
    assert ctx.elem_at(ctx.order + 7) == ctx.elem_at(7)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 12), (101, 4)])
def test_log_and_exp_are_none_without_tables(p, k):
    # a prime field keeps no tables, and no extension is made without them
    if p ** k > ENUM_CAP:
        with pytest.raises(ScaleExceeded):
            field_make(p, k)
        return
    ctx = field_make(p, k)
    assert ctx.log_table is None and ctx.exp_table is None


def test_prime_fields_take_no_extension_cache_slot():
    # the enumerate benchmark's mix: nine fields, eight cache slots
    extensions = [(2, 10), (3, 6), (5, 4), (7, 2), (7, 3)]
    for p, k in extensions:
        field_make(p, k)
    before = _flat_field.cache_info()
    for _ in range(2):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            field_make(p)
        for p, k in extensions:
            field_make(p, k)
    assert _flat_field.cache_info().misses == before.misses


# -- arrays of reps ---------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3),
                                 (3, 2), (5, 2), (3, 3)])
def test_rep_arrays_match_the_boxed_arithmetic(p, k):
    ctx = field_make(p, k)
    arith = ctx.arrays()
    q = ctx.order
    a, b = (v.ravel() for v in np.meshgrid(np.arange(q), np.arange(q)))
    box = [ctx.elem_at(i) for i in range(q)]
    pairs = list(zip(a.tolist(), b.tolist()))
    assert arith.add(a, b).tolist() == [(box[x] + box[y]).rep for x, y in pairs]
    assert arith.sub(a, b).tolist() == [(box[x] - box[y]).rep for x, y in pairs]
    assert arith.mul(a, b).tolist() == [(box[x] * box[y]).rep for x, y in pairs]
    assert arith.neg(a).tolist() == [(-box[x]).rep for x in a.tolist()]
    nonzero = b != 0
    assert arith.div(a, b)[nonzero].tolist() == [
        (box[x] / box[y]).rep for x, y in pairs if y]
    # the census's evaluation: F_p coefficients at every point of F_q
    coeffs = [1, p - 1, 0, 1, 1]
    poly = Poly.from_ints(field_make(p), coeffs)
    assert arith.eval(poly, np.arange(q)).tolist() == [
        sum((c * z ** i for i, c in enumerate(coeffs)), ctx.zero()).rep for z in box]
    if p != 2:
        xs = np.arange(q)
        square = arith.is_square(xs)
        assert square.tolist() == [z.is_square() for z in box]
        roots = arith.sqrt(xs)
        assert (arith.mul(roots, roots)[square] == xs[square]).all()


def _rep_reference(ctx):
    """add, neg, mul and power on the reps of ctx, none of which reads a
    table: ints mod p over F_p, and over an extension modpoly on the
    base-p digits of each index (``_reference``)."""
    p, k = ctx.p, ctx.k
    if k == 1:
        return (lambda x, y: (x + y) % p, lambda x: -x % p,
                lambda x, y: x * y % p, lambda x, e: pow(x, e, p))
    reduce, power, _ = _reference(ctx)

    def digits(x):
        return modpoly.trim([x // p ** j % p for j in range(k)])

    def index(a):
        return sum(c * p ** j for j, c in enumerate(a))

    return (lambda x, y: index(modpoly.add(digits(x), digits(y), p)),
            lambda x: index(modpoly.neg(digits(x), p)),
            lambda x, y: index(reduce(modpoly.mul(digits(x), digits(y), p))),
            lambda x, e: index(power(digits(x), e)))


REP_GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
            (5, 1), (5, 2), (7, 1), (7, 2), (13, 1)]


@pytest.mark.parametrize("p,k", REP_GRID)
def test_rep_arrays_match_the_digit_arithmetic(p, k):
    # every pair of F_q, the zero lanes included, and a scalar operand
    # on either side, against the reference arithmetic on the digits
    ctx = field_make(p, k)
    arith, q = ctx.arrays(), ctx.order
    add, neg, mul, power = _rep_reference(ctx)
    xs = np.arange(q)
    a, b = (v.ravel() for v in np.meshgrid(xs, xs))
    pairs = list(zip(a.tolist(), b.tolist()))
    inv = {y: power(y, q - 2) for y in range(1, q)}

    def sub(x, y):
        return add(x, neg(y))

    for name, op in (("add", add), ("sub", sub), ("mul", mul)):
        lanes = getattr(arith, name)
        assert lanes(a, b).tolist() == [op(x, y) for x, y in pairs]
        for c in (0, 1, q - 1):
            assert lanes(c, xs).tolist() == [op(c, y) for y in range(q)]
            assert lanes(xs, c).tolist() == [op(x, c) for x in range(q)]
    assert arith.neg(xs).tolist() == [neg(x) for x in range(q)]
    assert arith.div(a, b)[b != 0].tolist() == [mul(x, inv[y]) for x, y in pairs if y]
    for c in (0, 1, q - 1):
        assert arith.div(c, xs[1:]).tolist() == [mul(c, inv[y]) for y in range(1, q)]
        if c:
            assert arith.div(xs, c).tolist() == [mul(x, inv[c]) for x in range(q)]
    poly = Poly.from_ints(field_make(p), [1, p - 1, 0, 1, 1])

    def horner(x):
        acc = 0
        for c in reversed(poly.reps.tolist()):
            acc = add(mul(acc, x), c)
        return acc

    assert arith.eval(poly, xs).tolist() == [horner(x) for x in range(q)]
    if p != 2:
        # Euler's criterion and squaring back, on the reference
        square = arith.is_square(xs)
        assert square.tolist() == [x == 0 or power(x, (q - 1) // 2) == 1 for x in range(q)]
        roots = arith.sqrt(xs)
        assert [mul(r, r) for r in roots[square].tolist()] == xs[square].tolist()


@pytest.mark.parametrize("p,k", REP_GRID + [(2, 10), (5, 4)])
def test_tables_match_the_digit_arithmetic(p, k):
    # the tables of _zech_tables, read off the modulus's companion
    # matrix, against the reference arithmetic
    ctx = field_make(p, k)
    arith, qm1 = ctx.arrays(), ctx.order - 1
    add, _, mul, power = _rep_reference(ctx)
    exp, log, zech = (t.tolist() for t in (arith.exp, arith.log, arith.zech))
    g = exp[1]

    def primitive(x):
        return all(power(x, qm1 // r) != 1 for r in factorize(qm1))

    assert primitive(g) and not any(primitive(x) for x in range(1, g))
    assert k == 1 or g >= p  # a constant's order divides p - 1
    x = 1
    for i in range(qm1):
        assert exp[i] == x
        x = mul(x, g)
    assert [log[exp[i]] for i in range(qm1)] == list(range(qm1))
    assert [zech[n] for n in range(1 - qm1, qm1)] == [
        log[add(1, exp[n % qm1])] for n in range(1 - qm1, qm1)]


def test_rep_arrays_read_the_fields_own_tables():
    # one buffer per table: the arrays are views of the field's tables
    ctx = field_make(3, 4)
    arith = ctx.arrays()
    for lanes, table in ((arith.exp, ctx.exp_table), (arith.log, ctx.log_table),
                         (arith.zech, ctx.zech)):
        assert np.shares_memory(lanes, np.asarray(table))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rep_arrays_in_characteristic_two(k):
    # 1 + 1 = 0 and -1 = 1
    ctx = field_make(2, k)
    arith, xs = ctx.arrays(), np.arange(ctx.order)
    assert arith.add(1, 1) == 0 and arith.neg(1) == 1
    assert not arith.add(xs, xs).any() and not arith.sub(xs, xs).any()
    assert arith.neg(xs).tolist() == xs.tolist()


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (3, 3), (13, 1)])
def test_zero_is_its_own_square_root(p, k):
    # zero has a log in the tables; the boxed and the array square roots
    # still answer 0 for it
    ctx = field_make(p, k)
    assert ctx.zero().is_square() and ctx.zero().sqrt() == ctx.zero()
    arith = ctx.arrays()
    assert arith.is_square(0) and arith.sqrt(0) == 0


def test_fields_without_tables_have_no_rep_arrays(F3u):
    with pytest.raises(ScaleExceeded):
        field_make(101, 4).arrays()
    with pytest.raises(ScaleExceeded):
        field_make(1_000_003).arrays()
    with pytest.raises(ScaleExceeded):
        F3u.arrays()


@pytest.mark.parametrize("p", [7, 13])
def test_an_enumeration_leaves_the_prime_fields_answers(p):
    # the walk builds F_p's tables for its arrays only: log_table and
    # exp_table stay None and square roots stay Tonelli-Shanks roots
    ctx = field_make(p)

    def answers():
        return [z.sqrt().rep for z in ctx.elements() if z.is_square()]

    before = answers()
    assert ctx._arrays is None
    assert cycle_census(rat_map(ctx, [1, 0, 1]), 1, 4)
    assert ctx._arrays is not None
    assert ctx.log_table is None and ctx.exp_table is None
    assert answers() == before


# -- square roots -------------------------------------------------------------------


def _check_square_root(z):
    euler = z.is_zero() or (z ** ((z.ctx.order - 1) // 2)).is_one()
    assert z.is_square() == euler
    if euler:
        root = z.sqrt()
        assert root.ctx == z.ctx and root * root == z
    else:
        with pytest.raises(SpecError):
            z.sqrt()


@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (7, 1), (5, 2), (7, 3)])
def test_square_roots_of_every_element(p, k):
    # F_5 and F_13 run Tonelli-Shanks, F_7 takes z^((q+1)/4), and
    # F_25 and F_343 halve the discrete log
    ctx = field_make(p, k)
    for z in ctx.elements():
        _check_square_root(z)
    assert sum(z.is_square() for z in ctx.elements()) == (ctx.order + 1) // 2


@pytest.mark.parametrize("p,k", [(2 ** 61 - 1, 1), (1_000_000_009, 1)])
def test_square_roots_without_tables(p, k):
    ctx = field_make(p, k)
    assert ctx.log_table is None
    rng = random.Random(p + k)
    for _ in range(40):
        z = ctx.elem_at(rng.randrange(ctx.order))
        _check_square_root(z)
        _check_square_root(z * z)


@pytest.mark.parametrize("p", [13, 1_000_000_009, 7, 2 ** 61 - 1])
def test_tonelli_shanks_roots_zero(p):
    # p = 1 mod 4 runs the 2-power loop and p = 3 mod 4 takes z^((p+1)/4);
    # at both, zero's t = 0 would never square to 1
    ctx = field_make(p)
    assert ctx.log_table is None
    assert _tonelli_shanks(ctx, 0) == 0
    assert _tonelli_shanks(ctx, 4) in (2, p - 2)


def test_square_roots_need_odd_characteristic(F3u):
    for z in (field_make(2).one(), field_make(2, 3).elem_at(5), F3u.u()):
        with pytest.raises(SpecError):
            z.sqrt()
        with pytest.raises(SpecError):
            z.is_square()


# -- polynomials over F_p against boxed references in an extension ----------------------


def _ref_trim(a):
    while a and a[-1].is_zero():
        a = a[:-1]
    return a


def _ref_divrem(a, b):
    """Schoolbook division on lists of field elements."""
    a, b = _ref_trim(list(a)), _ref_trim(list(b))
    zero = b[0].ctx.zero()
    inv = b[-1].inverse()
    q = [zero] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = r[i + len(b) - 1] * inv
        q[i] = c
        for j, bj in enumerate(b):
            r[i + j] = r[i + j] - c * bj
    return _ref_trim(q), _ref_trim(r[:len(b) - 1])


def _ref_gcd(a, b):
    a, b = _ref_trim(list(a)), _ref_trim(list(b))
    while b:
        a, b = b, _ref_divrem(a, b)[1]
    return [c * a[-1].inverse() for c in a] if a else a


@st.composite
def _ext_poly_pair(draw):
    """(lift, a, b): Polys over F_p and ``lift``, which sends a Poly to the
    list of its coefficients' images in F_(p^k), k > 1, where the boxed
    references run: quotients, remainders, gcds and radicals over F_p are
    those over every extension."""
    p, k = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]))
    ctx, ext = field_make(p), field_make(p, k)
    coeffs = st.lists(st.integers(0, p - 1), min_size=1, max_size=6)
    a, b = (Poly.from_ints(ctx, draw(coeffs)) for _ in range(2))

    def lift(poly):
        return [embed(c, ext) for c in poly.coeffs]

    return lift, a, b if len(b.reps) else Poly.one(ctx)


@settings(max_examples=100, deadline=None)
@given(_ext_poly_pair())
def test_ext_divrem_matches_reference(case):
    lift, a, b = case
    q, r = a.divrem(b)
    assert (lift(q), lift(r)) == _ref_divrem(lift(a), lift(b))
    assert q * b + r == a


@settings(max_examples=100, deadline=None)
@given(_ext_poly_pair(), st.lists(st.integers(0, 24), min_size=1, max_size=4))
def test_ext_gcd_matches_reference(case, common):
    # a shared factor makes the remainder chain longer than one step
    lift, a, b = case
    common = Poly.from_ints(a.ctx, common)
    common = common if len(common.reps) else Poly.one(a.ctx)
    a, b = a * common, b * common
    assert lift(a.gcd(b)) == _ref_gcd(lift(a), lift(b))


@settings(max_examples=100, deadline=None)
@given(_ext_poly_pair(), st.integers(1, 5), st.integers(1, 5))
def test_ext_separable_radical_matches_reference(case, e1, e2):
    # f = g^e1 * h^e2: the radical divides f, is squarefree, and every
    # root of f is one of its roots (f divides rad^deg f)
    lift, g, h = case
    if g.degree < 1 or h.degree < 1:
        return
    f = g ** e1 * h ** e2
    rad = separable_radical(f)
    assert rad.leading.is_one() and rad.degree >= 1
    assert _ref_divrem(lift(f), lift(rad))[1] == []
    one = lift(Poly.one(f.ctx))
    assert _ref_gcd(lift(rad), lift(rad.derivative())) == one
    assert _ref_divrem(lift(rad ** f.degree), lift(f))[1] == []


def test_poly_eval_refuses_an_element_of_another_field():
    f = Poly.from_ints(field_make(3), [1, 1])
    for x in (field_make(3, 2).one(), field_make(5).one(), field_make(5, 2).one()):
        with pytest.raises(SpecError):
            f.eval(x)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 2), (2, 5), (37, 2)])
def test_poly_refuses_a_field_that_is_not_prime(p, k):
    # a count over the algebraic closure does not depend on the finite
    # field a map is written over, so Polys, and maps, are over F_p
    ctx = field_make(p, k)
    for build in (lambda: Poly.from_ints(ctx, [1, 1]), lambda: Poly.one(ctx),
                  lambda: Poly.zero(ctx), lambda: Poly.x_power(ctx, 2),
                  lambda: Poly.from_elems(ctx, [ctx.elem_at(p)]),
                  lambda: rat_map(ctx, [0, 0, 1])):
        with pytest.raises(SpecError, match="prime coefficient field"):
            build()


def test_no_polynomials_over_the_function_field(F3u):
    for build in (lambda: Poly.from_elems(F3u, [F3u.u(), F3u.one()]),
                  lambda: Poly.from_ints(F3u, [1, 2]), lambda: Poly.one(F3u)):
        with pytest.raises(SpecError):
            build()
