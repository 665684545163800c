"""Dense univariate polynomial arithmetic over Z/p on plain int lists.

Coefficient lists are ascending (index i holds the x^i coefficient) and
trimmed: the last entry is nonzero, [] is the zero polynomial.  Values are
Python ints in [0, p).  Multiplication and the division/gcd remainder
chains run on int64 numpy arrays while every product of two coefficients
fits ((p-1)^2 < 2^62), and on object arrays of Python ints above that;
callers always get lists of Python ints back, so big-integer arithmetic
downstream never sees numpy scalars.
"""

import numpy as np

from .errors import DivisionByZeroPoly, ZeroPolynomial

_NP_SAFE = 2**62


def trim(a: list) -> list:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def deg(a: list) -> int:
    return len(a) - 1


def add(a: list, b: list, p: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def sub(a: list, b: list, p: int) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(out)


def neg(a: list, p: int) -> list:
    return [(-c) % p for c in a]


def scalar_mul(a: list, c: int, p: int) -> list:
    c %= p
    if c == 0:
        return []
    return trim([x * c % p for x in a])


def mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if la * lb <= 1024:
        out = [0] * (la + lb - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return trim([c % p for c in out])
    if min(la, lb) * (p - 1) * (p - 1) < _NP_SAFE:
        conv = np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        return trim([int(c) for c in conv % p])
    return _kronecker_mul(a, b, p)


def _kronecker_mul(a: list, b: list, p: int) -> list:
    bits = (min(len(a), len(b)) * (p - 1) * (p - 1)).bit_length() + 1
    av = 0
    for c in reversed(a):
        av = (av << bits) | c
    bv = 0
    for c in reversed(b):
        bv = (bv << bits) | c
    prod = av * bv
    mask = (1 << bits) - 1
    out = []
    for _ in range(len(a) + len(b) - 1):
        out.append((prod & mask) % p)
        prod >>= bits
    return trim(out)


def _dtype(p: int):
    """int64 while c*b - r in the remainder loop cannot overflow, else object."""
    return np.int64 if (p - 1) * (p - 1) < _NP_SAFE else object


def divrem(a: list, b: list, p: int) -> tuple:
    b = trim(list(b))
    if not b:
        raise DivisionByZeroPoly("polynomial division by zero")
    a = trim(list(a))
    if len(a) < len(b):
        return [], a
    dtype = _dtype(p)
    q, r = _divrem_np(np.array(a, dtype=dtype), np.array(b, dtype=dtype), p)
    return trim([int(c) for c in q]), trim([int(c) for c in r])


def _divrem_np(a, b, p):
    lb = len(b)
    inv = pow(int(b[-1]), p - 2, p)
    r = a % p
    q = np.zeros(len(a) - lb + 1, dtype=a.dtype)
    for i in range(len(a) - lb, -1, -1):
        c = int(r[i + lb - 1]) % p
        if c:
            c = c * inv % p
            q[i] = c
            r[i:i + lb] = (r[i:i + lb] - c * b) % p
    return q, r[:lb - 1]


def rem(a: list, b: list, p: int) -> list:
    return divrem(a, b, p)[1]


def monic(a: list, p: int) -> list:
    a = trim(list(a))
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return scalar_mul(a, pow(lead, p - 2, p), p)


def gcd(a: list, b: list, p: int) -> list:
    """Monic gcd via the Euclidean remainder chain (numpy inner loop)."""
    a = trim(list(a))
    b = trim(list(b))
    if not a:
        return monic(b, p)
    if not b:
        return monic(a, p)
    dtype = _dtype(p)
    x = np.array(a, dtype=dtype) % p
    y = np.array(b, dtype=dtype) % p
    while len(y):
        if len(x) < len(y):
            x, y = y, x
            continue
        _, r = _divrem_np(x, y, p)
        n = len(r)
        while n and r[n - 1] % p == 0:
            n -= 1
        x, y = y, r[:n]
    return monic([int(c) for c in x], p)


def derivative(a: list, p: int) -> list:
    return trim([i * c % p for i, c in enumerate(a)][1:])


def eval_at(a: list, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def pow_mod(base: list, e: int, modulus: list, p: int) -> list:
    """base^e reduced mod modulus (e >= 0, big ints welcome)."""
    result = [1]
    acc = rem(base, modulus, p)
    while e:
        if e & 1:
            result = rem(mul(result, acc, p), modulus, p)
        acc = rem(mul(acc, acc, p), modulus, p)
        e >>= 1
    return result


def separable_radical(f: list, p: int, pth_root=None) -> list:
    """Monic squarefree polynomial with the same roots as f in the closure.

    pth_root maps a coefficient to its p-th root; for F_p itself that is
    the identity, extensions pass c -> c^(q/p).
    """
    f = trim(list(f))
    if not f:
        raise ZeroPolynomial("radical of the zero polynomial")
    f = monic(f, p)
    if deg(f) <= 0:
        return [1]
    if pth_root is None:
        pth_root = lambda c: c
    fp = derivative(f, p)
    if not fp:
        # Every exponent is a multiple of p: f = g(x^p) with g as below.
        g = [pth_root(f[i]) for i in range(0, len(f), p)]
        return separable_radical(g, p, pth_root)
    d = gcd(f, fp, p)
    if deg(d) == 0:
        return f
    w = divrem(f, d, p)[0]          # separable part, squarefree
    r = f
    g = gcd(r, w, p)
    while deg(g) > 0:
        r = divrem(r, g, p)[0]
        g = gcd(r, w, p)
    if deg(r) == 0:
        return monic(w, p)
    # r collects the factors with multiplicity divisible by p; its
    # derivative vanishes, so the recursion lands in the branch above.
    return monic(mul(w, separable_radical(r, p, pth_root), p), p)


def distinct_root_count(f: list, p: int, pth_root=None) -> int:
    return deg(separable_radical(f, p, pth_root))
