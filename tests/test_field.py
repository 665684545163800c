import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from dynzeta import modpoly
from dynzeta.dynmap import cycle_census, rat_map
from dynzeta.errors import NotPrime, ScaleExceeded, SpecError, ZeroPolynomial
from dynzeta.field import (Poly, _flat_field, distinct_root_count,
                           extend_field, embed, field_make, ratfunc_field,
                           separable_radical)
from dynzeta.limits import ENUM_CAP


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

    def test_seed_selects_a_different_irreducible(self):
        a = field_make(3, 2)
        b = field_make(3, 2, seed=1)
        assert a != b
        # both must actually define fields: every nonzero element invertible
        for ctx in (a, b):
            for i in range(1, ctx.order):
                z = ctx.elem_at(i)
                assert (z * z.inverse()).is_one()


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


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2 ** 31 - 1, 1), (2 ** 61 - 1, 1), (3, 2)])
def test_poly_steps_match_the_rep_loop(p, k):
    # over F_p scale, negation and the derivative are int comprehensions;
    # F_9 keeps the field's rep loop, which is the reference here
    ctx = field_make(p, k)
    rnd = random.Random(p)
    f = Poly.from_reps(ctx, [rnd.randrange(ctx.order) for _ in range(40)]
                       + [rnd.randrange(1, ctx.order)])
    assert f.scale(ctx.zero()) == Poly.zero(ctx)
    assert f.scale(ctx.one()) is f
    unit = ctx.elem_at(rnd.randrange(1, ctx.order))
    assert f.scale(unit).reps == tuple(ctx.mul(x, unit.rep) for x in f.reps)
    assert (-f).reps == tuple(ctx.neg(x) for x in f.reps)
    loop = [ctx.mul(i % p, c) for i, c in enumerate(f.reps)][1:]
    assert f.derivative() == Poly.from_reps(ctx, loop)
    assert all(type(c) is int for g in (f.scale(unit), -f, f.derivative()) for c in g.reps)


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
    loop = tuple(ctx.pow(c, ctx.order // p) for c in f.reps[::p])
    assert loop == f.reps[::p] == h.reps
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
        F9 = field_make(3, 2)
        f = Poly.from_ints(F9, [1, 0, 0, 0, 0, 0, 1])
        assert separable_radical(f) == Poly.from_ints(F9, [1, 0, 1])


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


def test_embedding_through_towers():
    F9 = field_make(3, 2)
    F81 = extend_field(F9, 2)
    x = F9.elem([0, 1])
    y = embed(x, F81)
    assert (y ** 8).is_one() and not (y ** 4).is_one() or (y ** 4).is_one()
    # embedding is a homomorphism on a sample
    for i in range(9):
        for j in range(9):
            a, b = F9.elem_at(i), F9.elem_at(j)
            assert embed(a * b, F81) == embed(a, F81) * embed(b, F81)
            assert embed(a + b, F81) == embed(a, F81) + embed(b, F81)


def _subfields(p, a):
    """F_(p^a) with its least modulus and, where there is one, the next."""
    if (p, a) == (2, 2):  # x^2 + x + 1 is the only irreducible quadratic
        return [field_make(p, a)]
    return [field_make(p, a), field_make(p, a, seed=1)]


@pytest.mark.parametrize("p,a,b", [(2, 2, 3), (2, 3, 2), (3, 2, 2), (5, 2, 2),
                                   (7, 1, 3)])
def test_extension_of_an_extension_is_the_flat_field(p, a, b):
    flat = field_make(p, a * b)
    for src in _subfields(p, a):
        ext = extend_field(src, b)
        assert ext == flat and hash(ext) == hash(flat)
        assert [c.rep for c in ext.modulus] == [c.rep for c in flat.modulus]
        assert ext.base.is_prime_field and ext.k == a * b
        assert extend_field(src, 1) is src


@pytest.mark.parametrize("p,a,b", [(2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 3),
                                   (5, 2, 2)])
def test_embed_is_an_injective_ring_homomorphism(p, a, b):
    for src in _subfields(p, a):
        target = extend_field(src, b)
        image = {x: embed(x, target) for x in src.elements()}
        assert len(set(image.values())) == src.order
        assert image[src.zero()].is_zero() and image[src.one()].is_one()
        for x, y in image.items():
            assert y.ctx == target
            assert y.frobenius(a) == y  # the image lies in F_(p^a)
            assert embed(-x, target) == -y
            if not x.is_zero():
                assert embed(x.inverse(), target) == y.inverse()
        for x in src.elements():
            for z in src.elements():
                assert image[x + z] == image[x] + image[z]
                assert image[x * z] == image[x] * image[z]


def test_embed_into_a_field_without_tables():
    src = field_make(37, 2)
    target = extend_field(src, 2)
    assert target.order > ENUM_CAP and target.log(target.one()) is None
    rng = random.Random(37)
    for _ in range(50):
        x, z = (src.elem_at(rng.randrange(src.order)) for _ in range(2))
        assert embed(x * z, target) == embed(x, target) * embed(z, target)
        assert embed(x + z, target) == embed(x, target) + embed(z, target)
    root = embed(src.elem([0, 1]), target)
    assert Poly.from_ints(target, [c.rep for c in src.modulus]).eval(root).is_zero()


def test_embed_refuses_a_field_that_is_not_a_subfield():
    with pytest.raises(SpecError):
        embed(field_make(2, 2).elem([0, 1]), field_make(2, 3))
    with pytest.raises(SpecError):
        embed(field_make(3).one(), field_make(5, 2))


# -- flat extensions against coefficient-list arithmetic ------------------------------


def _reference(ctx):
    """Field operations on coefficient lists, computed with modpoly alone."""
    p, k = ctx.p, ctx.k
    mod = [c.rep for c in ctx.modulus]

    def reduce(a):
        return modpoly.divrem(a, mod, p)[1]

    def power(a, e):
        if e < 0:
            a, e = power(a, ctx.order - 2), -e
        return modpoly.pow_mod(a, e, mod, p)

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
        assert x.frobenius() == elem(power(a, p))
        assert x.frobenius(k - 1) == elem(power(a, p ** (k - 1)))
        assert x.pth_root() == elem(power(a, ctx.order // p))
        assert x.pth_root() ** p == x
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


@pytest.mark.parametrize("p,k", [(2, 3), (5, 4), (101, 4)])
def test_flat_extension_constructors_agree(p, k):
    ctx = field_make(p, k)
    for n in (0, 1, 2, p - 1, p, -1, 3 * p + 2):
        made = (ctx.from_int(n), ctx.elem([n]), ctx.elem_at(n % p),
                ctx.elem(n), extend_field(field_make(p), k).from_int(n))
        for z in made:
            assert z == made[0] and hash(z) == hash(made[0])
            assert z == n
    vec = [1, 0, p - 1]
    assert ctx.elem(vec) == ctx.elem_at(1 + (p - 1) * p * p)
    assert hash(ctx.elem(vec)) == hash(ctx.elem_at(1 + (p - 1) * p * p))


def test_tables_give_logarithms_of_every_element():
    ctx = field_make(5, 4)
    logs = {ctx.log(z) for z in ctx.elements() if not z.is_zero()}
    assert logs == set(range(ctx.order - 1))
    for i in range(1, ctx.order):
        z = ctx.elem_at(i)
        assert ctx.exp(ctx.log(z)) == z


def test_large_flat_extension_is_exact_without_tables():
    ctx = field_make(101, 4)
    assert ctx.order > ENUM_CAP
    reduce, power, elem = _reference(ctx)
    for a, b in _samples(ctx, 60, 101):
        x, y = elem(a), elem(b)
        a, b = modpoly.trim(a), modpoly.trim(b)
        assert x * y == elem(reduce(modpoly.mul(a, b, 101)))
        assert x + y == elem(modpoly.add(a, b, 101))
        assert -x == elem(modpoly.neg(a, 101))
        assert x.frobenius() == elem(power(a, 101))
        if a:
            assert x.inverse() == elem(power(a, -1))
            assert x ** -5 == elem(power(a, -5))
            assert ctx.log(x) is None
    assert ctx.elem_at(ctx.order + 7) == ctx.elem_at(7)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 12), (101, 4)])
def test_log_and_exp_are_none_without_tables(p, k):
    ctx = field_make(p, k)
    assert ctx.log(ctx.one()) is None
    assert ctx.exp(0) is None and ctx.exp(1) is None


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
    poly = Poly.from_ints(ctx, [1, p - 1, 0, 1, 1])
    assert arith.eval(poly, np.arange(q)).tolist() == [
        poly.eval(z).rep for z in box]
    if p != 2:
        xs = np.arange(q)
        square = arith.is_square(xs)
        assert square.tolist() == [z.is_square() for z in box]
        roots = arith.sqrt(xs)
        assert (arith.mul(roots, roots)[square] == xs[square]).all()


def test_fields_without_tables_have_no_rep_arrays(F3u):
    with pytest.raises(ScaleExceeded):
        field_make(101, 4).arrays()
    with pytest.raises(ScaleExceeded):
        field_make(1_000_003).arrays()
    with pytest.raises(ScaleExceeded):
        F3u.arrays()


@pytest.mark.parametrize("p", [7, 13])
def test_an_enumeration_leaves_the_prime_fields_answers(p):
    # the walk builds F_p's tables for its arrays only: log and exp stay
    # None and square roots stay Tonelli-Shanks roots
    ctx = field_make(p)

    def answers():
        return ([ctx.log(z) for z in ctx.elements()],
                [ctx.exp(n) for n in range(p)],
                [z.sqrt().rep for z in ctx.elements() if z.is_square()])

    before = answers()
    assert ctx._arrays is None
    assert cycle_census(rat_map(ctx, [1, 0, 1]), 1, 4)
    assert ctx._arrays is not None and ctx.log_table is None
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


@pytest.mark.parametrize("p,k", [(101, 4), (2 ** 61 - 1, 1), (1_000_000_009, 1)])
def test_square_roots_without_tables(p, k):
    ctx = field_make(p, k)
    assert ctx.log(ctx.one()) is None
    rng = random.Random(p + k)
    for _ in range(40):
        z = ctx.elem_at(rng.randrange(ctx.order))
        _check_square_root(z)
        _check_square_root(z * z)


def test_square_roots_need_odd_characteristic(F3u):
    for z in (field_make(2).one(), field_make(2, 3).elem_at(5), F3u.u()):
        with pytest.raises(SpecError):
            z.sqrt()
        with pytest.raises(SpecError):
            z.is_square()


# -- polynomials over extensions against boxed references ------------------------------


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
    ctx = field_make(*draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)])))
    coeffs = st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=6)
    a, b = (Poly.from_elems(ctx, [ctx.elem_at(i) for i in draw(coeffs)])
            for _ in range(2))
    return ctx, a, b if b.reps else Poly.one(ctx)


@settings(max_examples=100, deadline=None)
@given(_ext_poly_pair())
def test_ext_divrem_matches_reference(case):
    _, a, b = case
    q, r = a.divrem(b)
    assert (list(q.coeffs), list(r.coeffs)) == _ref_divrem(a.coeffs, b.coeffs)
    assert q * b + r == a


@settings(max_examples=100, deadline=None)
@given(_ext_poly_pair(), st.lists(st.integers(0, 24), min_size=1, max_size=4))
def test_ext_gcd_matches_reference(case, common):
    # a shared factor makes the remainder chain longer than one step
    ctx, a, b = case
    common = Poly.from_elems(ctx, [ctx.elem_at(i % ctx.order) for i in common])
    common = common if common.reps else Poly.one(ctx)
    a, b = a * common, b * common
    assert list(a.gcd(b).coeffs) == _ref_gcd(a.coeffs, b.coeffs)


@settings(max_examples=100, deadline=None)
@given(_ext_poly_pair(), st.integers(1, 5), st.integers(1, 5))
def test_ext_separable_radical_matches_reference(case, e1, e2):
    # f = g^e1 * h^e2: the radical divides f, is squarefree, and every
    # root of f is one of its roots (f divides rad^deg f)
    ctx, g, h = case
    if g.degree < 1 or h.degree < 1:
        return
    f = g ** e1 * h ** e2
    rad = separable_radical(f)
    assert rad.leading.is_one() and rad.degree >= 1
    assert _ref_divrem(f.coeffs, rad.coeffs)[1] == []
    assert _ref_gcd(rad.coeffs, rad.derivative().coeffs) == [ctx.one()]
    assert _ref_divrem((rad ** f.degree).coeffs, f.coeffs)[1] == []


def test_poly_eval_refuses_an_element_of_another_field():
    f = Poly.from_ints(field_make(3, 2), [1, 1])
    for x in (field_make(3).one(), field_make(5, 2).one(), field_make(3, 2, seed=1).one()):
        with pytest.raises(SpecError):
            f.eval(x)


def test_no_polynomials_over_the_function_field(F3u):
    for build in (lambda: Poly.from_elems(F3u, [F3u.u(), F3u.one()]),
                  lambda: Poly.from_ints(F3u, [1, 2]), lambda: Poly.one(F3u)):
        with pytest.raises(SpecError):
            build()
