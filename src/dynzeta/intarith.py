"""Integer number-theory helpers: primality, factoring, orders, valuations,
square roots mod p, and the one square-and-multiply loop that every ring
of the package uses."""

import math

import numpy as np

from .errors import (NoAdmissibleEll, NotPrime, ScaleExceeded, SpecError,
                     ZeroInput)
from .limits import PRIME_CAP
from .sentinels import INFINITY

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases: exact below PRIME_CAP =
    psi_13 ~ 3.3e24, the least strong pseudoprime to all of them
    (Sorenson and Webster, Math. Comp. 86, 2017), and a probable-prime
    test at and past it."""
    if n < 2:
        return False
    for p in _MR_BASES:
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


def power(mul, one, a, e: int):
    """a^e (e >= 0) under mul by right-to-left square-and-multiply (Knuth,
    TAOCP vol. 2, 4.6.3): for e >= 1, e.bit_length() - 1 squarings and
    popcount(e) products into the result, which starts at one.  The square
    after the top bit is never formed."""
    result = one
    while True:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if not e:
            return result
        a = mul(a, a)


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, in [0, p): 0 for a = 0 mod
    p, None for a non-residue (Euler's criterion).

    Tonelli-Shanks (Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 1.5.1): with p - 1 = 2^m e, e odd, the loop keeps
    r^2 = a t with t of order below 2^m, and each pass lowers that order
    by a power of the least non-residue.  At p = 3 mod 4 (m = 1) it never
    runs: the root is a^((p+1)/4).
    """
    a %= p
    if not a:
        return 0
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        return None
    e, m = p - 1, 0
    while e % 2 == 0:
        e, m = e // 2, m + 1
    n = next(n for n in range(2, p) if pow(n, half, p) != 1)
    c, t, r = pow(n, e, p), pow(a, e, p), pow(a, (e + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, m) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def check_prime(p: int) -> int:
    """p when is_prime proves it prime; NotPrime for a composite (a
    Miller-Rabin witness proves it at any size), ScaleExceeded for a
    probable prime at or past PRIME_CAP."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p >= PRIME_CAP:
        raise ScaleExceeded(
            f"{p} is at or past the primality proof cap {PRIME_CAP}")
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


def v_p_progression(alpha: int, beta: int, p: int, n: int, table=None):
    """numpy array of v_p(alpha*i + beta) for 0 <= i < n, or of
    table[v_p(alpha*i + beta)] when a table (a numpy array, the term of
    each valuation) is given.

    With a = min(v_p(alpha), v_p(beta)) write alpha = p^a alpha' and
    beta = p^a beta'.  If p divides alpha' every term has valuation a;
    otherwise p^k divides alpha' i + beta' exactly when i = -beta'/alpha'
    mod p^k.  So the array is filled with the entry for a, then level k
    writes the entry for a + k with stride p^k from that residue; a
    level's indices lie inside the previous level's, so each index ends
    with the entry of its own valuation.  The levels stop once p^k passes
    the largest |alpha' i + beta'| or a level's first index reaches n:
    about n/(p - 1) writes after the fill, and the table is read once per
    level, never gathered per index.  No product alpha*i + beta is
    formed, so arbitrarily large alpha, beta and p are exact.  A zero term
    (at most one) gets valuation 0, the value this package's valuation
    sequences give an index without a valuation.  A table of
    (|alpha| n + |beta|).bit_length() + 1 entries covers every valuation
    that occurs.
    """
    if alpha == 0:
        raise SpecError("progression stride must be nonzero")
    a = v_p(alpha, p) if beta == 0 else min(v_p(alpha, p), v_p(beta, p))
    alpha1, beta1 = alpha // p ** a, beta // p ** a
    bound = max(abs(beta1), abs(alpha1 * (n - 1) + beta1))
    if table is None:
        table = np.arange(a + bound.bit_length() + 1,
                          dtype=np.min_scalar_type(a + bound.bit_length()))
    if n == 0:
        return np.zeros(0, table.dtype)  # no valuation, no entry read
    out = np.full(n, table[a], dtype=table.dtype)
    if alpha1 % p == 0:
        return out
    pk, v = p, a
    while pk <= bound:
        start = -beta1 * pow(alpha1, -1, pk) % pk
        if start >= n:
            break
        v += 1
        out[start::pk] = table[v]
        pk *= p
    if beta1 % alpha1 == 0 and 0 <= -beta1 // alpha1 < n:
        out[-beta1 // alpha1] = table[0]
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
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1
        x = c + 1


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


def divisors(n: int) -> list:
    """The positive divisors of n >= 1 in ascending order."""
    out = [1]
    for q, e in factorize(n).items():
        out = [d * q ** i for d in out for i in range(e + 1)]
    return sorted(out)


def order_descent(is_one, exponent: int) -> int:
    """Order of an element whose order divides exponent, given
    is_one(k) = (the element's k-th power is the identity): each prime
    factor of exponent is divided out while the power stays the identity."""
    order = exponent
    for q, e in factorize(exponent).items():
        for _ in range(e):
            if not is_one(order // q):
                break
            order //= q
    return order


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a in (Z/modulus)^*; requires gcd(a, modulus) == 1."""
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise ZeroInput(f"{a} is not a unit mod {modulus}")
    return order_descent(lambda k: pow(a, k, modulus) == 1,
                         _group_exponent(modulus))


def _group_exponent(modulus: int) -> int:
    # Carmichael lambda.
    lam = 1
    for q, e in factorize(modulus).items():
        if q == 2 and e >= 3:
            part = 2 ** (e - 2)
        else:
            part = (q - 1) * q ** (e - 1)
        lam = lam * part // math.gcd(lam, part)
    return lam


def first_prime_where(above: int, residue: int, modulus: int, cap: int,
                      predicate=None, description: str = "") -> int:
    """Smallest prime n > above with n = residue mod modulus that satisfies
    predicate (when given).  Only that residue class is walked;
    NoAdmissibleEll past cap."""
    n = above + 1 + (residue - above - 1) % modulus
    while n <= cap:
        if is_prime(n) and (predicate is None or predicate(n)):
            return n
        n += modulus
    raise NoAdmissibleEll(f"no admissible prime below {cap}: {description}")


def tower_bound(p: int, a: int, cap: int) -> int | None:
    """p^(a p^a) when it is below cap, else None.  The exponents are
    compared first (p^x >= 2^x), so the power is never formed past the
    size of cap."""
    bits = cap.bit_length()
    if a >= bits or a * p ** a >= bits:
        return None
    bound = p ** (a * p ** a)
    return bound if bound < cap else None
