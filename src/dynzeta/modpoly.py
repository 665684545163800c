"""Dense univariate polynomial arithmetic over Z/p on numpy arrays of
residues.

A polynomial is a one-dimensional array of residues in [0, p), ascending
(index i holds the x^i coefficient) and trimmed: the last entry is
nonzero, an empty array is the zero polynomial.  Its dtype is
``residue_dtype(p)``: int64 while (p-1)^2 + p < 2^62, so that a product
of two residues plus a residue fits, and object arrays of Python ints
above that.  ``mul``, ``divrem``, ``gcd`` and ``pow_mod`` take such arrays
(a sequence of ints is read as one) and return new ones; none writes to
its operands.  A product of two factors of two or more terms each is one
Kronecker substitution (von zur Gathen-Gerhard, *Modern Computer
Algebra*, section 8.4): both factors are packed into Python ints and
CPython's big-int product does the work.  Products of zero-padded series
end in long runs of zeros, so ``mul`` trims its product.

``divrem`` and ``gcd`` share one remainder kernel with lazy reduction.
Its arrays hold integers congruent mod p to the coefficients but not
reduced, and each array carries a Python-int bound on the absolute value
of its entries.  The invariant: every bound, and so every entry and every
intermediate c*y and x - c*y (0 <= c < p), stays below the kernel's
limit, which is 2^62 on int64 arrays, so nothing overflows.  A quotient
step x[i:i+ly] -= c*y adds (p-1)*bound(y) to the dividend's bound; the
dividend's live prefix is reduced mod p only when that sum would reach the
limit.  The divisor must satisfy (p-1)*bound(y) + p < limit, so that a
reduced dividend can always take one step.  In a gcd chain each remainder
becomes the next divisor unreduced; both operands are reduced together,
once, before a division whose worst case would reach the limit, so a
chain at small p pays one O(n) reduction per few dozen divisions instead
of one per quotient step.  On object arrays the limit is p^2 * 2^32.
Every result is reduced and trimmed.

The kernel pays per nonzero quotient coefficient, not per degree.  A zero
top writes nothing, so after ``_ZERO_RUN`` zero tops in a row a division
finds the next nonzero top with numpy scans of chunks that double in
length, and jumps there; the gcd trims a remainder's zero top the same
way.  Sparse dividends and unbalanced first Euclid steps thus cost a few
numpy calls per zero run.  Most steps of a gcd chain have the normal
degree drop deg x = deg y + 1; when the bounds allow both of its quotient
steps without a reduction, the gcd reads the two quotient coefficients
as scalars and subtracts their multiples of y from x in place, through
one scratch array, with no quotient list.

A divisor whose leading term is followed by a gap of zero coefficients
has a quotient in blocks: subtracting c x^i y leaves the next span - 1
tops unchanged, span being the distance from y's leading exponent to its
next nonzero one, so ``_divide_blocks`` reads span quotient coefficients
as one vector and subtracts the block times each lower term of y, one
vector operation per term.  A position takes at most one product per
term in a block, which the lazy bound counts; a division whose block
could pass the limit even after a reduction (int64 just below p = 2^31)
steps per coefficient.  Blocks are taken only when they issue fewer
numpy calls: a gap of at least ``_BLOCK_GAP`` zeros, fewer lower terms
than the gap, and a quotient of four blocks or more.  A short quotient,
as in most steps of a gcd chain, pays one integer comparison, and a dense
divisor one scalar test, of its second coefficient.

Products and gcds pay per nonzero term too; the oracle's iterates are
lacunary.  ``mul`` by a monomial c x^s (a power-map iterate) is one
shifted pass over c times the other factor; two to four terms stay
Kronecker products, faster at small p.  An odd-degree Chebyshev iterate
minus x is x g(x^2), its derivative k(x^2), and for A(0), B(0) nonzero,
gcd(x^s A(x^k), x^t B(x^k)) = x^min(s,t) gcd(A, B)(x^k): x -> x^k is an
injective ring map, so Euclid's steps carry along, and ``gcd`` runs the
chain on A and B.  An int64 array's lazy reduction is a -= a // p * p,
which numpy's libdivide makes half the time of %; object arrays keep %.

``trim``, ``deg``, ``add``, ``sub`` and ``neg`` work on plain lists of
ints; ``add`` also takes a product from ``mul`` for either operand, and
``deg`` any sequence.  The library itself does not call them; the
benchmark's independent checks (perfbench/checks.py) do.
"""

import numpy as np

from .errors import DivisionByZeroPoly
from .intarith import power

_NP_SAFE = 2**62

# Zero tops a division steps over one at a time before it looks for the
# next nonzero top with vector scans; scanning after every zero top costs
# more on dense quotients than it saves.
_ZERO_RUN = 16

# The least run of zero coefficients below a divisor's leading term for
# which a division takes its quotient in blocks (``_block_shape``).
_BLOCK_GAP = 8


def trim(a: list) -> list:
    """a without its trailing zeros.  A zero tail is skipped in slices
    that double while they hold only zeros, so a long one costs a few
    C-level scans instead of one Python step per zero."""
    n = len(a)
    step = 1
    while n and not a[n - 1]:
        lo = max(n - step, 0)
        if any(a[lo:n]):
            step = 1
        else:
            n, step = lo, 2 * step
    return a[:n]


def deg(a) -> int:
    return len(a) - 1


def add(a: list, b: list, p: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = [(x + y) % p for x, y in zip(a, b)]
    out.extend(a[len(b):])  # a may be mul's array, which += would add to
    return trim(out)


def sub(a: list, b: list, p: int) -> list:
    out = [(x - y) % p for x, y in zip(a, b)]
    out += a[len(b):] if len(a) > len(b) else neg(b[len(a):], p)
    return trim(out)


def neg(a: list, p: int) -> list:
    return [(-c) % p for c in a]


def mul(a, b, p: int):
    """The product of a and b, as a trimmed array.  Kronecker: one
    w-byte little-endian slot per coefficient; w holds the largest
    coefficient of the integer product, min(len(a), len(b))*(p-1)^2."""
    dtype = residue_dtype(p)
    a, b = np.asarray(a, dtype), np.asarray(b, dtype)
    if not len(a) or not len(b):
        return a[:0]
    n = len(a) + len(b) - 1
    a, b = (b, a) if _one_term(b) else (a, b)
    if _one_term(a):  # a = c x^s: one shifted pass over c*b
        s = int(np.flatnonzero(a)[0])
        return trim_array(np.concatenate((np.zeros(s, dtype), b * int(a[s]) % p)))
    w = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8
    data = (_pack(a, w) * _pack(b, w)).to_bytes(n * w, "little")
    if w <= 8:
        slots = np.zeros((n, 8), dtype=np.uint8)
        slots[:, :w] = np.frombuffer(data, dtype=np.uint8).reshape(n, w)
        out = (slots.view("<u8").ravel() % p).astype(a.dtype, copy=False)
    else:
        out = np.array([int.from_bytes(data[i:i + w], "little") % p
                        for i in range(0, n * w, w)], a.dtype)
    # p is prime, so only factors with zero tails leave a zero tail
    return trim_array(out)


def _one_term(a) -> bool:
    """Whether a has one nonzero entry, counted only after a zero constant
    term: a trimmed array of two or more entries with a nonzero constant
    term has two terms (an untrimmed c, 0, ... reads as two, and takes
    the Kronecker product, of the same values)."""
    return len(a) == 1 if a[0] else np.count_nonzero(a) == 1


def trim_array(a):
    """Array a without its trailing zeros."""
    if not len(a) or a[-1]:
        return a
    nonzero = np.flatnonzero(a)
    return a[:nonzero[-1] + 1] if len(nonzero) else a[:0]


def residues(a, p: int):
    """The ints of a reduced mod p, as an array of ``residue_dtype(p)``."""
    return np.array([c % p for c in a], residue_dtype(p))


def residue_dtype(p: int):
    """int64 while (p-1)^2 + p < 2^62, else object (Python ints)."""
    return _dtype(p)[0]


def _pack(a, w: int) -> int:
    if w <= 8:
        data = a.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, :w]
        return int.from_bytes(data.tobytes(), "little")
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a.tolist()),
                          "little")


def _dtype(p: int):
    """The remainder kernel's array dtype and the limit its bounds stay under."""
    if (p - 1) * (p - 1) + p < _NP_SAFE:
        return np.int64, _NP_SAFE
    return object, p * p << 32


def divrem(a, b, p: int) -> tuple:
    """Quotient and remainder of a by b, with deg r < deg b."""
    dtype, limit = _dtype(p)
    b = trim_array(np.asarray(b, dtype))
    if not len(b):
        raise DivisionByZeroPoly("polynomial division by zero")
    x = trim_array(np.array(a, dtype))  # a copy: the quotient steps write to it
    if len(x) < len(b):
        return x[:0], x
    if len(b) == 1:
        return x * pow(int(b[0]), -1, p) % p, x[:0]
    q, _ = _divide(x, p - 1, b, p - 1, p, limit)
    return np.array(q, dtype), trim_array(x[:len(b) - 1] % p)


def _divide(x, bx, y, by, p, limit):
    """Divide x in place by y, whose entries are bounded by bx and by, with
    (p-1)*by + p < limit.

    Returns the quotient as a reduced list and the new bound on x, whose
    first len(y) - 1 entries then hold the remainder, unreduced.
    """
    ly = len(y)
    step = (p - 1) * by
    inv = pow(int(y[-1]) % p, -1, p)
    q = [0] * (len(x) - ly + 1)
    # four blocks of at least _BLOCK_GAP + 1 coefficients, and a gap
    if len(q) > 4 * _BLOCK_GAP and not y[-2] % p:
        shape = _block_shape(y, p, len(q), step, limit)
        if shape:
            return q, _divide_blocks(x, bx, y, p, limit, q, inv, step, *shape)
    i, zeros = len(x) - ly, 0
    while i >= 0:
        c = int(x[i + ly - 1]) % p
        if not c:
            zeros += 1
            i -= 1
            if zeros == _ZERO_RUN:
                # a zero step writes nothing, so the next nonzero top is
                # the last nonzero entry of x[ly-1 : i+ly]
                i = _last_nonzero(x, ly - 1, i + ly, p) - ly + 1
                zeros = 0
            continue
        if bx + step >= limit:
            _reduce(x[:i + ly], p)
            bx = p - 1
        c = c * inv % p
        q[i] = c
        x[i:i + ly] -= c * y
        bx += step
        i, zeros = i - 1, 0
    return q, bx


def _block_shape(y, p, nq, step, limit):
    """(span, terms) when a quotient of nq coefficients by y pays in blocks
    (module docstring), else None: span is the distance from y's leading
    exponent down to its next nonzero one, terms the exponents of y's
    nonzero terms below the leading one."""
    ly = len(y)
    if ly <= _BLOCK_GAP or (y[ly - 1 - _BLOCK_GAP:ly - 1] % p).any():
        return None
    terms = np.flatnonzero(y[:-1] % p)
    span = ly - 1 - (int(terms[-1]) if len(terms) else -1)
    if (len(terms) >= span - 1 or nq < 4 * span
            or p - 1 + len(terms) * step >= limit):
        return None
    return span, terms.tolist()


def _divide_blocks(x, bx, y, p, limit, q, inv, step, span, terms):
    """_divide's quotient loop, span coefficients at a time; fills q and
    returns the new bound on x.  A block's tops are left unwritten: no
    later step reads them."""
    ly = len(y)
    parts = [(j, int(y[j])) for j in terms]
    grow = len(terms) * step
    i = len(q) - 1
    while i >= 0:
        lo = max(i - span + 1, 0)
        if bx + grow >= limit:
            _reduce(x[:i + ly], p)
            bx = p - 1
        c = x[lo + ly - 1:i + ly] % p * inv % p
        if c.any():
            q[lo:i + 1] = c.tolist()
            for j, cy in parts:
                x[lo + j:i + 1 + j] -= c * cy
            bx += grow
        i = lo - 1
    return bx


def _last_nonzero(x, lo, hi, p):
    """The largest i in [lo, hi) with x[i] nonzero mod p, or lo - 1.

    Scans down in chunks that start at _ZERO_RUN entries and double, so a
    run of z zeros costs O(log z) numpy calls."""
    size = _ZERO_RUN
    while hi > lo:
        start = max(hi - size, lo)
        nonzero = np.flatnonzero(x[start:hi] % p)
        if len(nonzero):
            return start + int(nonzero[-1])
        hi, size = start, 2 * size
    return lo - 1


def _reduce(a, p: int):
    """a mod p, in place."""
    if a.dtype == object:
        a %= p
    else:
        a -= a // p * p


def _monic(a, p: int):
    if not len(a) or a[-1] == 1:
        return a
    return a * pow(int(a[-1]), -1, p) % p


def gcd(a, b, p: int):
    """Monic gcd of x^s A(x^k) and x^t B(x^k) via the Euclidean remainder
    chain of A and B; a nonzero constant anywhere in it ends it with [1]."""
    dtype = residue_dtype(p)
    x, y = trim_array(np.asarray(a, dtype)), trim_array(np.asarray(b, dtype))
    if not len(x) or not len(y):
        return _monic(np.array(x if len(x) else y), p)
    if len(x) == 1 or len(y) == 1:
        return np.ones(1, dtype)
    ix, iy = np.flatnonzero(x), np.flatnonzero(y)
    s, t = int(ix[0]), int(iy[0])
    m, k = min(s, t), int(np.gcd.reduce(np.concatenate((ix - s, iy - t))))
    if k <= 1:  # or 0 for two monomials: strip x^m, keeping every quotient
        s, t, k = m, m, 1
    g = _gcd_chain(x[s::k].copy(), y[t::k].copy(), p)  # copies: it writes
    out = np.zeros(m + k * (len(g) - 1) + 1, dtype)
    out[m::k] = g
    return out


def _gcd_chain(x, y, p: int):
    """The monic gcd of trimmed, reduced x and y, which it overwrites."""
    dtype, limit = _dtype(p)
    if len(x) == 1 or len(y) == 1:
        return np.ones(1, dtype)
    if len(x) < len(y):
        x, y = y, x
    bx = by = p - 1
    scratch = np.empty(len(y), dtype)
    while True:
        if by >= p and bx + (len(x) - len(y) + 1) * (p - 1) * by + p >= limit:
            _reduce(x, p)
            _reduce(y, p)
            bx = by = p - 1
        ly = len(y)
        step = (p - 1) * by
        if len(x) == ly + 1 and bx + 2 * step < limit:
            # the normal step, quotient c1*t + c0, in place: x's top is
            # nonzero mod p, so c1 is too
            inv = pow(int(y[-1]) % p, -1, p)
            cy, top = scratch[:ly], x[1:]
            np.multiply(y, int(x[-1]) % p * inv % p, out=cy)
            np.subtract(top, cy, out=top)
            bx += step
            c = int(x[ly - 1]) % p
            if c:
                low = x[:ly]
                np.multiply(y, c * inv % p, out=cy)
                np.subtract(low, cy, out=low)
                bx += step
        else:
            _, bx = _divide(x, bx, y, by, p, limit)
        n = ly - 1
        if int(x[n - 1]) % p == 0:
            n = _last_nonzero(x, 0, n - 1, p) + 1
        if n == 0:
            return _monic(y % p, p)
        if n == 1:
            return np.ones(1, dtype)
        x, bx, y, by = y, by, x[:n], bx


def pow_mod(base, e: int, modulus, p: int):
    """base^e reduced mod modulus (e >= 0, big ints welcome)."""
    return power(lambda a, b: divrem(mul(a, b, p), modulus, p)[1],
                 np.ones(1, residue_dtype(p)), divrem(base, modulus, p)[1], e)
