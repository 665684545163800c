"""modpoly against pure-Python references, for primes up to 2^127.

Primes past 2^31 make coefficient products overflow int64, which is where
the numpy remainder loops must switch to exact Python ints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynzeta import modpoly
from dynzeta.intarith import is_prime

PRIMES = (2, 3, 7, 2_147_483_647, 2_147_483_659, 4_294_967_311,
          2 ** 61 - 1, 18_446_744_073_709_551_629, 2 ** 89 - 1, 2 ** 127 - 1)


def test_primes_are_prime():
    assert all(is_prime(p) for p in PRIMES)


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
    rad = modpoly.separable_radical(f, p)
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
