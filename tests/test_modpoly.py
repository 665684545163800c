"""modpoly against pure-Python references, for primes up to 2^127.

Primes past 2^31 make coefficient products overflow int64, which is where
the numpy remainder loops must switch to exact Python ints, and where the
slots of mul's packed product grow past the eight bytes of a numpy view.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynzeta import modpoly
from dynzeta.field import Poly, field_make, separable_radical
from dynzeta.intarith import is_prime

PRIMES = (2, 3, 7, 2_147_483_647, 2_147_483_659, 4_294_967_311,
          2 ** 61 - 1, 18_446_744_073_709_551_629, 2 ** 89 - 1, 2 ** 127 - 1)

# Primes for the long remainder chains: the lazy kernel's bounds reach the
# int64 limit within a few dozen divisions below 2^31, and 2_147_483_659
# and 2^61 - 1 run the object-array path.
LONG_PRIMES = (2, 3, 7, 65537, 1_000_003, 2_147_483_647, 2_147_483_659, 2 ** 61 - 1)


def test_primes_are_prime():
    assert all(is_prime(p) for p in PRIMES + LONG_PRIMES)


def _trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _ref_divrem(a, b, p):
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = r[i + len(b) - 1] * inv % p
        q[i] = c
        for j, bj in enumerate(b):
            r[i + j] = (r[i + j] - c * bj) % p
    return _trim(q), _trim(r[:len(b) - 1])


def _ref_monic(a, p):
    return [c * pow(a[-1], -1, p) % p for c in a] if a else a


def _ref_gcd(a, b, p):
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, _ref_divrem(a, b, p)[1]
    return _ref_monic(a, p)


def _ref_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _ref_derivative(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


@st.composite
def _poly_pair(draw):
    p = draw(st.sampled_from(PRIMES))
    coeffs = st.lists(st.integers(0, p - 1), min_size=1, max_size=12)
    a, b = draw(coeffs), draw(coeffs)
    if not _trim(b):
        b = b + [1]
    return p, a, b


@settings(max_examples=150, deadline=None)
@given(_poly_pair())
def test_divrem_matches_reference(case):
    p, a, b = case
    assert modpoly.divrem(a, b, p) == _ref_divrem(a, b, p)


@settings(max_examples=150, deadline=None)
@given(_poly_pair(), st.lists(st.integers(0, 2 ** 127), min_size=1, max_size=4))
def test_gcd_matches_reference(case, common):
    # A shared factor makes the remainder chain longer than one step.
    p, a, b = case
    common = _trim([c % p for c in common]) or [1]
    a, b = _ref_mul(a, common, p), _ref_mul(b, common, p)
    assert modpoly.gcd(a, b, p) == _ref_gcd(a, b, p)


@st.composite
def _long_chain(draw, p):
    # a = u*common and b = v*common with len(a) in [100, 600]: the gcd is
    # a chain of hundreds of divisions, so the kernel's operands pass
    # through many lazy reductions.  All-(p-1) factors give the largest
    # entries the bounds allow.
    rnd = draw(st.randoms(use_true_random=False))
    widest = draw(st.booleans())
    n = draw(st.integers(100, 600))
    lc = draw(st.integers(1, n - 1))
    lb = draw(st.integers(max(1, n - lc - 40), n - lc + 1))

    def poly(length):
        if widest:
            return [p - 1] * length
        return [rnd.randrange(p) for _ in range(length - 1)] + [rnd.randrange(1, p)]

    common = poly(lc)
    return _ref_mul(poly(n - lc + 1), common, p), _ref_mul(poly(lb), common, p)


@pytest.mark.parametrize("p", LONG_PRIMES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_gcd_long_chain_matches_reference(p, data):
    a, b = data.draw(_long_chain(p))
    assert modpoly.gcd(a, b, p) == _ref_gcd(a, b, p)
    assert modpoly.gcd(b, a, p) == _ref_gcd(a, b, p)


@pytest.mark.parametrize("p", LONG_PRIMES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_divrem_long_matches_reference(p, data):
    a, b = data.draw(_long_chain(p))
    q, r = modpoly.divrem(a, b, p)
    assert (q, r) == _ref_divrem(a, b, p)
    assert all(type(c) is int for c in q + r)


@pytest.mark.parametrize("p", LONG_PRIMES)
def test_constant_operands(p):
    a = [(3 * i + 1) % p for i in range(50)] + [1]
    assert modpoly.gcd(a, [p - 1], p) == [1]
    assert modpoly.gcd([2 % p or 1], a, p) == [1]
    assert modpoly.divrem(a, [p - 1], p) == _ref_divrem(a, [p - 1], p)
    assert modpoly.divrem([5 % p], [p - 1], p) == _ref_divrem([5 % p], [p - 1], p)


@settings(max_examples=100, deadline=None)
@given(_poly_pair(), st.integers(1, 3), st.integers(1, 3))
def test_separable_radical_matches_reference(case, e1, e2):
    # f = g^e1 * h^e2: the radical divides f, is squarefree, and every
    # root of f is one of its roots (f divides rad^deg f).
    p, g, h = case
    g, h = _trim(g), _trim(h)
    if len(g) < 2 or len(h) < 2:
        return
    f = [1]
    for factor, e in ((g, e1), (h, e2)):
        for _ in range(e):
            f = _ref_mul(f, factor, p)
    rad = list(separable_radical(Poly.from_ints(field_make(p), f)).reps)
    assert rad[-1] == 1 and len(rad) >= 2
    assert _ref_divrem(f, rad, p)[1] == []
    assert _ref_gcd(rad, _ref_derivative(rad, p), p) == [1]
    power = [1]
    for _ in range(len(f) - 1):
        power = _ref_mul(power, rad, p)
    assert _ref_divrem(power, f, p)[1] == []


@pytest.mark.parametrize("p", PRIMES)
def test_divrem_identity_at_each_prime(p):
    a = [(p - 1 - i) % p for i in range(9)]
    b = [p - 2, 1, p - 1] if p > 2 else [1, 1, 1]
    q, r = modpoly.divrem(a, b, p)
    assert modpoly.add(_ref_mul(q, b, p), r, p) == _trim(a)
    assert all(isinstance(c, int) for c in q + r)


@st.composite
def _mul_case(draw):
    # Random coefficients, or all p - 1, whose product needs the widest
    # slot; lengths up to 70 and a few in the hundreds.
    p = draw(st.sampled_from(PRIMES))
    length = st.integers(0, 70) | st.sampled_from((128, 257, 400))
    la, lb = draw(length), draw(length)
    if draw(st.booleans()):
        return p, [p - 1] * la, [p - 1] * lb
    rnd = draw(st.randoms(use_true_random=False))
    return p, [rnd.randrange(p) for _ in range(la)], [rnd.randrange(p) for _ in range(lb)]


@settings(max_examples=200, deadline=None)
@given(_mul_case())
def test_mul_matches_reference(case):
    p, a, b = case
    assert modpoly.mul(a, b, p) == _ref_mul(a, b, p)


@pytest.mark.parametrize("p", PRIMES)
def test_mul_widest_slot_at_each_prime(p):
    a, b = [p - 1] * 300, [p - 1] * 41
    out = modpoly.mul(a, b, p)
    assert out == _ref_mul(a, b, p)
    assert all(type(c) is int for c in out)


def _slot_width(a, b, p):
    return ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8


@pytest.mark.parametrize("p", PRIMES)
def test_mul_trims_untrimmed_inputs(p):
    # trailing zeros on either factor, and a zero product from factors of
    # nonzero length
    assert modpoly.mul([0, 0], [0, 1], p) == []
    assert modpoly.mul([0], [0] * 50, p) == []
    for a, b in [([1, p - 1, 0, 0, 0], [0, 2 % p, 0]),
                 ([p - 1] + [0] * 40, [0, 0, 1] + [0] * 7),
                 ([0, 0, 3 % p, 0], [p - 1, 0])]:
        assert modpoly.mul(a, b, p) == _ref_mul(a, b, p)


@st.composite
def _sparse_case(draw):
    # Long factors with a few nonzero coefficients and long zero tails,
    # like the zero-padded series of a Newton step.
    p = draw(st.sampled_from(PRIMES))
    rnd = draw(st.randoms(use_true_random=False))

    def sparse():
        out = [0] * rnd.randint(1, 300)
        for _ in range(rnd.randint(0, 4)):
            out[rnd.randrange(len(out))] = rnd.randrange(p)
        return out + [0] * rnd.randint(0, 200)
    return p, sparse(), sparse()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sparse_case())
def test_mul_long_sparse_matches_reference(case):
    p, a, b = case
    assert modpoly.mul(a, b, p) == _ref_mul(a, b, p)


@pytest.mark.parametrize("p, narrow", [(7, True), (65537, True),
                                       (2 ** 61 - 1, False), (2 ** 127 - 1, False)])
def test_mul_sparse_on_both_slot_paths(p, narrow):
    a = [0, 1] + [0] * 150 + [p - 1] + [0] * 90
    b = [0] * 60 + [2] + [0] * 200
    assert (_slot_width(a, b, p) <= 8) == narrow
    out = modpoly.mul(a, b, p)
    assert out == _ref_mul(a, b, p)
    assert all(type(c) is int for c in out)


@functools.lru_cache(maxsize=None)
def _irreducibles(p, k):
    """Monic irreducibles of degree 1 to 3 over F_(p^k), as Polys: a
    polynomial of degree at most 3 is irreducible iff it has no root."""
    ctx = field_make(p, k)
    points = [ctx.elem_at(i) for i in range(ctx.order)]
    out = []
    for d in (1, 2, 3):
        for index in range(ctx.order ** d):
            reps = [(index // ctx.order ** j) % ctx.order for j in range(d)] + [1]
            f = Poly.from_reps(ctx, reps)
            if all(not f.eval(x).is_zero() for x in points):
                out.append(f)
    return out


def _exponents(p):
    # up to 2p + 1 takes both p | e and p not dividing e; j*p + 1 (1 mod p)
    # reaches a p-th root after one level, up to p^2 + p + 1, and p^2 + p
    # and 2p^2 lie above p^2
    return (st.integers(1, 2 * p + 1)
            | st.sampled_from([j * p + 1 for j in range(1, p + 2)] + [p * p + p, 2 * p * p]))


@st.composite
def _factored(draw):
    # f = c * prod g_i^e_i, each g_i a product of distinct irreducibles, so
    # the g_i are squarefree and pairwise coprime; F_9 is the one field
    # where the p-th root is not the identity on coefficients.
    p, k = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (3, 2)]))
    irr = _irreducibles(p, k)
    chosen = draw(st.lists(st.integers(0, len(irr) - 1), min_size=1, max_size=6, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, len(chosen) - 1), max_size=3))) if len(chosen) > 1 else []
    groups = [chosen[i:j] for i, j in zip([0] + cuts, cuts + [len(chosen)])]
    exps = [draw(_exponents(p)) for _ in groups]
    ctx = irr[0].ctx
    f = Poly.one(ctx).scale(ctx.elem_at(draw(st.integers(1, ctx.order - 1))))
    for group, e in zip(groups, exps):
        f = f * functools.reduce(Poly.__mul__, (irr[i] for i in group)) ** e
    return f, functools.reduce(Poly.__mul__, (irr[i] for i in chosen))


@settings(max_examples=150, deadline=None)
@given(_factored())
def test_separable_radical_is_product_of_distinct_factors(case):
    f, expected = case
    assert separable_radical(f) == expected


@pytest.mark.parametrize("k", (2, 4, 5, 7))
def test_separable_radical_two_large_gcds(monkeypatch, k):
    # f = (x+1)^k * s at p = 3 with s squarefree of degree 400: c and w
    # shrink to (x+1)^(k-1) and x+1 after the first gcd(c, w), so only
    # gcd(f, f') and that one see an operand of degree above 100.
    F3 = field_make(3)
    rnd = random.Random(400)
    while True:
        s = Poly.from_ints(F3, [rnd.randrange(3) for _ in range(400)] + [1])
        if s.gcd(s.derivative()).degree == 0 and not s.eval(F3.from_int(2)).is_zero():
            break
    large = []
    gcd = modpoly.gcd

    def spy(a, b, p):
        if max(len(a), len(b)) > 101:
            large.append((len(a) - 1, len(b) - 1))
        return gcd(a, b, p)

    monkeypatch.setattr(modpoly, "gcd", spy)
    x_plus_1 = Poly.from_ints(F3, [1, 1])
    assert separable_radical(x_plus_1 ** k * s) == x_plus_1 * s
    assert len(large) <= 2, large


def _count_remainder_calls(monkeypatch, longer_than=0):
    """Counts, by name, the modpoly.divrem and modpoly.gcd calls that have an
    operand of more than `longer_than` coefficients."""
    calls = {"divrem": 0, "gcd": 0}
    for name in calls:
        def counted(a, b, p, name=name, real=getattr(modpoly, name)):
            if max(len(a), len(b)) > longer_than:
                calls[name] += 1
            return real(a, b, p)
        monkeypatch.setattr(modpoly, name, counted)
    return calls


def test_separable_radical_large_steps_do_not_grow_with_multiplicity(monkeypatch):
    # f = (x+1)^k * s^3 at p = 3 with s squarefree of degree 150: the levels
    # below the first p-th root are (x+1)^j times at most s, so the steps
    # with an operand above degree 100 are the same few for every k, where
    # a loop that strips x+1 once per multiplicity makes k + 3 divisions.
    F3 = field_make(3)
    rnd = random.Random(150)
    while True:
        s = Poly.from_ints(F3, [rnd.randrange(3) for _ in range(150)] + [1])
        if s.gcd(s.derivative()).degree == 0 and not s.eval(F3.from_int(2)).is_zero():
            break
    large = _count_remainder_calls(monkeypatch, longer_than=101)
    x_plus_1 = Poly.from_ints(F3, [1, 1])
    counts = []
    for k in (4, 10, 28, 82):
        large.update(divrem=0, gcd=0)
        assert separable_radical(x_plus_1 ** k * s ** 3) == x_plus_1 * s
        counts.append((large["divrem"], large["gcd"]))
    assert all(d <= 3 and g <= 4 for d, g in counts), counts
    assert counts[-1] == counts[1], counts


def test_separable_radical_of_a_deep_power_needs_no_recursion(monkeypatch):
    # (x - 1)^1500 over F_10007 has 1500 squarefree levels and no p-th
    # root: one gcd per level on the way down, and only the first level's
    # w = c_0 / c_1 is kept, so one division and no gcd on the way up
    F = field_make(10007)
    x_minus_1 = Poly.from_ints(F, [-1, 1])
    f = x_minus_1 ** 1500
    calls = _count_remainder_calls(monkeypatch)
    assert separable_radical(f) == x_minus_1
    assert calls == {"divrem": 1, "gcd": 1500}
