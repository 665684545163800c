"""Integer number-theory helpers: primality, factoring, orders, valuations."""

import math

import numpy as np

from .errors import NoAdmissibleEll, NotPrime, SpecError, ZeroInput
from .sentinels import INFINITY

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


def v_p(x: int, p: int):
    """p-adic valuation of x; INFINITY for x == 0."""
    if x == 0:
        return INFINITY
    v = 0
    x = abs(x)
    while x % p == 0:
        x //= p
        v += 1
    return v


def v_p_progression(alpha: int, beta: int, p: int, n: int):
    """numpy array of v_p(alpha*i + beta) for 0 <= i < n.

    With a = min(v_p(alpha), v_p(beta)) write alpha = p^a alpha' and
    beta = p^a beta'.  If p divides alpha' every term has valuation a;
    otherwise p^k divides alpha' i + beta' exactly when i = -beta'/alpha'
    mod p^k, so the array is a plus one strided increment per p^k up to
    the largest |alpha' i + beta'|.  No product alpha*i + beta is formed,
    so arbitrarily large alpha, beta and p are exact.  A zero term (at
    most one) gets 0, the value this package's valuation sequences give
    an index without a valuation.
    """
    if alpha == 0:
        raise SpecError("progression stride must be nonzero")
    a = v_p(alpha, p) if beta == 0 else min(v_p(alpha, p), v_p(beta, p))
    alpha1, beta1 = alpha // p ** a, beta // p ** a
    bound = max(abs(beta1), abs(alpha1 * (n - 1) + beta1))
    out = np.full(n, a, dtype=np.min_scalar_type(a + bound.bit_length()))
    if alpha1 % p == 0:
        return out
    pk = p
    while pk <= bound:
        out[-beta1 * pow(alpha1, -1, pk) % pk::pk] += 1
        pk *= p
    if beta1 % alpha1 == 0 and 0 <= -beta1 // alpha1 < n:
        out[-beta1 // alpha1] = 0
    return out


def v_p_strict(x: int, p: int) -> int:
    if x == 0:
        raise ZeroInput("valuation of zero requested")
    return v_p(x, p)


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    x, c = 2, 1
    while True:
        y, d = x, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd_int(abs(x - y), n)
        if d != n:
            return d
        c += 1
        x = c + 1


def gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def factorize(n: int) -> dict:
    """Prime factorization {p: e}; trial division, Pollard rho fallback."""
    if n < 1:
        raise ZeroInput("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    while f * f <= n and f < 100_000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return out


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a in (Z/modulus)^*; requires gcd(a, modulus) == 1."""
    a %= modulus
    if gcd_int(a, modulus) != 1:
        raise ZeroInput(f"{a} is not a unit mod {modulus}")
    if modulus == 1:
        return 1
    group = _group_exponent(modulus)
    order = group
    for q, e in factorize(group).items():
        for _ in range(e):
            if pow(a, order // q, modulus) == 1:
                order //= q
            else:
                break
    return order


def _group_exponent(modulus: int) -> int:
    # Carmichael lambda.
    lam = 1
    for q, e in factorize(modulus).items():
        if q == 2 and e >= 3:
            part = 2 ** (e - 2)
        else:
            part = (q - 1) * q ** (e - 1)
        lam = lam * part // gcd_int(lam, part)
    return lam


def first_prime_where(predicate, start: int = 2, cap: int = 10_000_000,
                      description: str = "") -> int:
    """Smallest prime >= start satisfying predicate; NoAdmissibleEll past cap."""
    n = max(2, start)
    while n <= cap:
        if is_prime(n) and predicate(n):
            return n
        n += 1
    raise NoAdmissibleEll(f"no admissible prime below {cap}: {description}")


def last_prime_where(predicate, cap: int, floor: int = 2) -> int | None:
    """Largest prime <= cap satisfying predicate, or None."""
    n = cap
    while n >= floor:
        if is_prime(n) and predicate(n):
            return n
        n -= 1
    return None


def isqrt_exact(n: int) -> int | None:
    """Integer square root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None
