"""Dense univariate polynomial arithmetic over Z/p on plain int lists.

Coefficient lists are ascending (index i holds the x^i coefficient) and
trimmed: the last entry is nonzero, [] is the zero polynomial.  Values are
Python ints in [0, p).  Every product, whatever the lengths and p, is one
Kronecker substitution (von zur Gathen-Gerhard, *Modern Computer Algebra*,
section 8.4): both factors are packed into Python ints and CPython's
big-int product does the work.  The division/gcd remainder chains run on
int64 numpy arrays while every product of two coefficients fits
((p-1)^2 < 2^62), and on object arrays of Python ints above that; callers
always get lists of Python ints back, so big-integer arithmetic downstream
never sees numpy scalars.
"""

import numpy as np

from .errors import DivisionByZeroPoly
from .intarith import power

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


def mul(a: list, b: list, p: int) -> list:
    """One w-byte little-endian slot per coefficient; w holds the largest
    coefficient of the integer product, min(len(a), len(b))*(p-1)^2."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    w = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8
    data = (_pack(a, w) * _pack(b, w)).to_bytes(n * w, "little")
    if w <= 8:
        slots = np.zeros((n, 8), dtype=np.uint8)
        slots[:, :w] = np.frombuffer(data, dtype=np.uint8).reshape(n, w)
        return trim((slots.view("<u8").ravel() % p).tolist())
    return trim([int.from_bytes(data[i:i + w], "little") % p
                 for i in range(0, n * w, w)])


def _pack(a: list, w: int) -> int:
    if w <= 8:
        data = np.array(a, dtype="<u8").view(np.uint8).reshape(-1, 8)[:, :w]
        return int.from_bytes(data.tobytes(), "little")
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")


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
    inv = pow(lead, p - 2, p)
    return [x * inv % p for x in a]


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


def pow_mod(base: list, e: int, modulus: list, p: int) -> list:
    """base^e reduced mod modulus (e >= 0, big ints welcome)."""
    return power(lambda a, b: rem(mul(a, b, p), modulus, p), [1],
                 rem(base, modulus, p), e)
