import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynzeta.errors import NoAdmissibleEll, ScaleExceeded, SpecError
from dynzeta import intarith
from dynzeta.intarith import (factorize, first_prime_where, is_prime,
                              multiplicative_order, power, v_p,
                              v_p_progression)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 2**70), st.integers(2, 10**9))
def test_power_matches_builtin_pow_with_no_wasted_squaring(a, e, n):
    products = []

    def mul(x, y):
        products.append(None)
        return x * y % n

    assert power(mul, 1 % n, a % n, e) == pow(a, e, n)
    assert len(products) == (e.bit_length() - 1 + bin(e).count("1") if e
                             else 0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(1, 1999), st.integers(0, 10**6))
def test_multiplicative_order_matches_brute_force(modulus, a):
    a %= modulus
    assume(math.gcd(a, modulus) == 1)
    order, x = 1, a
    while x != 1 % modulus:
        order, x = order + 1, x * a % modulus
    assert multiplicative_order(a, modulus) == order


def _expected(alpha, beta, p, n):
    # A zero term has no valuation; the package's sequences give it 0.
    return [v_p(alpha * i + beta, p) if alpha * i + beta else 0
            for i in range(n)]


class TestValuationProgression:
    def test_matches_v_p_term_by_term(self):
        rng = random.Random(11)
        for _ in range(300):
            p = rng.choice((2, 3, 5, 7, 11, 13))
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            alpha = rng.choice((1, -1)) * rng.randint(1, 50) * p ** a
            beta = rng.choice((1, -1)) * rng.randint(0, 50) * p ** b
            n = rng.randint(0, 400)
            got = v_p_progression(alpha, beta, p, n)
            assert got.tolist() == _expected(alpha, beta, p, n), (alpha, beta, p)

    def test_p_divides_alpha(self):
        # v_p(alpha) > v_p(beta): every term has the valuation of beta
        assert v_p_progression(9, 3, 3, 50).tolist() == [1] * 50
        assert v_p_progression(12, 6, 2, 40).tolist() == _expected(12, 6, 2, 40)
        assert v_p_progression(25, 50, 5, 60).tolist() == _expected(25, 50, 5, 60)

    def test_terms_past_int64(self):
        for alpha, beta, p in ((2 ** 70 + 1, 3 ** 45, 3),
                               (3 ** 40, 3 ** 41 * 2 + 3 ** 40, 3),
                               (7 ** 30, 7 ** 32, 7),
                               (1, 2 ** 64 - 8, 2),
                               (4294967311 * 4294967313, 4294967311 ** 2,
                                4294967311)):
            assert alpha * 999 + beta > 2 ** 63
            assert v_p_progression(alpha, beta, p, 1000).tolist() == \
                _expected(alpha, beta, p, 1000)

    def test_zero_term(self):
        assert v_p_progression(1, 0, 3, 10).tolist() == [0, 0, 0, 1, 0, 0, 1, 0, 0, 2]
        assert v_p_progression(-2, 8, 2, 6).tolist() == [3, 1, 2, 1, 0, 1]

    def test_zero_stride_rejected(self):
        with pytest.raises(SpecError):
            v_p_progression(0, 1, 3, 10)


@st.composite
def _progressions(draw):
    """(alpha, beta, p, n): terms past 2^64, a zero term inside [0, n),
    p dividing alpha' (v_p(alpha) > v_p(beta)), and the tower call."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = draw(st.integers(0, 600))
    kind = draw(st.sampled_from(("any", "zero", "p-divides", "tower")))
    if kind == "tower":
        return 1, 0, p, n
    unit = draw(st.integers(1, 2 ** 70).filter(lambda x: x % p))
    sign = draw(st.sampled_from((1, -1)))
    b = draw(st.integers(0, 4))
    if kind == "zero":
        # alpha i + beta vanishes at the drawn index
        alpha = sign * unit * p ** draw(st.integers(0, 4))
        return alpha, -alpha * draw(st.integers(0, max(n - 1, 0))), p, n
    if kind == "p-divides":
        return sign * unit * p ** (b + 1), p ** b * draw(
            st.integers(1, 2 ** 70).filter(lambda x: x % p)), p, n
    return (sign * unit * p ** draw(st.integers(0, 4)),
            draw(st.integers(-2 ** 70, 2 ** 70)) * p ** b, p, n)


@settings(max_examples=400, deadline=None)
@given(_progressions(), st.sampled_from((np.uint8, np.uint16, np.int64)),
       st.integers(0, 2 ** 32 - 1))
def test_progression_sieve_writes_the_table_entry_of_each_valuation(
        case, dtype, seed):
    alpha, beta, p, n = case
    top = (abs(alpha) * n + abs(beta)).bit_length()
    rng = np.random.default_rng(seed)
    table = rng.integers(0, np.iinfo(dtype).max, top + 1, endpoint=True,
                         dtype=dtype)
    valuations = v_p_progression(alpha, beta, p, n)
    sieved = v_p_progression(alpha, beta, p, n, table)
    assert sieved.dtype == table.dtype
    assert sieved.tolist() == table[valuations].tolist()
    assert valuations.tolist() == _expected(alpha, beta, p, n)


def _integer_walk(predicate, start=2, cap=10_000_000, description=""):
    # reference search: every integer from start on is a candidate
    n = max(2, start)
    while n <= cap:
        if is_prime(n) and predicate(n):
            return n
        n += 1
    raise NoAdmissibleEll(f"no admissible prime below {cap}: {description}")


def _outcome(search):
    try:
        return search()
    except NoAdmissibleEll as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(-5, 3000), st.integers(-50, 50), st.integers(1, 60),
       st.integers(0, 4000),
       st.none() | st.lists(st.integers(-10**6, 10**6), max_size=4))
def test_class_walk_matches_the_integer_walk(above, residue, modulus, cap,
                                             divisible):
    # divisible lists the integers the prime must not divide (None: no test)
    def avoids(n):
        return divisible is None or all(x % n for x in divisible)

    expected = _outcome(lambda: _integer_walk(
        lambda n: n > above and n % modulus == residue % modulus and avoids(n),
        start=above + 1, cap=cap, description="probe"))
    got = _outcome(lambda: first_prime_where(
        above, residue, modulus, cap,
        None if divisible is None else avoids, "probe"))
    assert got == expected


def test_an_exhausted_prime_search_is_a_scale_refusal():
    # the class 0 mod 4 holds no prime at all
    with pytest.raises(ScaleExceeded, match="no admissible prime below 1000"):
        first_prime_where(2, 0, 4, 1000)


@pytest.mark.parametrize("n", [100003 ** 2, 100003 ** 3, 100003 * 100019,
                               1000003 ** 2 * 1000033, 999983 * 10000019])
def test_factorize_past_trial_division(n, monkeypatch):
    # every prime factor is above the trial-division bound 10^5, so only
    # the Pollard-rho fallback can split n
    calls = []
    rho = intarith._pollard_rho
    monkeypatch.setattr(intarith, "_pollard_rho",
                        lambda m: calls.append(m) or rho(m))
    factors = factorize(n)
    assert calls
    assert math.prod(q ** e for q, e in factors.items()) == n
    assert all(q > 100_000 and is_prime(q) for q in factors)
