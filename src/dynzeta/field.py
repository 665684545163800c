"""Exact arithmetic over F_p, its extensions, and the function field F_p(u).

Representation conventions:

* A prime field F_p stores elements as ints in [0, p).
* Every extension F_(p^k) is built directly over F_p and also stores each
  element as one int: its ``elem_at`` index in [0, p^k), whose base-p
  digits are the element's coefficients in ascending powers of the
  adjoined root.  So ``rep`` is the index and ``from_int(n)`` is the
  constant n mod p.  The modulus is a monic irreducible polynomial over
  F_p, chosen deterministically so every run of the library reproduces
  the same field.  An extension with p^k at most ``limits.ENUM_CAP``
  builds exp/log/Zech tables to a primitive element when it is made
  (Huber, "Some comments on Zech's logarithms", IEEE Trans. IT, 1990);
  products, sums, negations, inverses and powers are then table
  lookups.  Larger fields build no tables and compute on the digits.
  ``extend_field(ctx, b)`` on F_(p^a) returns the field of
  ``field_make(p, a*b)``, so equal fields share one set of tables.  The
  eight most recently made extensions, each with its arithmetic, and the
  subfield roots of the eight most recently used embeddings live in
  ``functools.lru_cache``s, whose ``cache_info()`` counts hits and
  misses.  Making a prime field builds nothing, so each ``field_make(p)``
  makes a new one and none takes a cache slot.
* Every field an enumeration may walk, one of at most ``limits.ENUM_CAP``
  elements, also computes on numpy arrays of reps: ``ctx.arrays()`` is
  its ``RepArrays``, which adds, negates, multiplies, divides, tests
  squares, takes square roots and evaluates a Poly lane by lane, by
  lookups in the same tables.  A prime field builds its tables the
  first time it is walked and keeps them in its ``RepArrays`` only: its
  FieldElem arithmetic stays on ints mod p, its square roots stay
  Tonelli-Shanks, and its ``log`` and ``exp`` stay None.
* A subfield F_(p^a) of F_(p^(ab)) is reached by ``embed``, which sends
  the adjoined root of the smaller field to a fixed root of its modulus
  in the larger one (Lidl-Niederreiter, *Finite Fields*, Thm 2.14).  That
  root is the first norm z = elem_at(i)^((Q-1)/(q-1)), i = 2, 3, ..., at
  which the modulus vanishes; the norm maps F_Q^* onto F_q^*, which holds
  every root, so the walk ends.
* F_p(u) stores a reduced fraction of sparse polynomials in u: tuples of
  (exponent, coefficient) pairs with ascending exponents, denominator
  monic and coprime to the numerator.  Sparseness matters because the
  Frobenius c(u) -> c(u)^p multiplies exponents by p.

A field is one FieldCtx whose subclass is its representation
(``_PrimeField``, ``_DigitField``, ``_TableField``, ``_RatFuncField``).
It adds, negates, multiplies, inverts, raises to powers and applies the
Frobenius on reps; every FieldElem operator is one call to it.  Square
roots exist in odd characteristic: halved discrete logs where there are
tables, Euler's criterion and Tonelli-Shanks elsewhere.

A Poly over a finite field keeps its coefficients as a trimmed tuple of
reps, lowest degree first, and boxes them only when ``coeffs`` is read.
Over F_p, sums, products, division and gcds run in the int kernel
``modpoly``, and scaling, negation, the derivative and the p-th root are
int comprehensions with no field call per coefficient; every other
operation, and every operation over F_(p^k), is one loop through the
field's rep arithmetic.  Scaling by one returns the Poly itself.
"""

import functools
import itertools
import math
from array import array

import numpy as np

from . import modpoly
from .errors import (DivisionByZeroPoly, NoIrreducibleFound, ScaleExceeded,
                     SpecError, ZeroPolynomial)
from .intarith import check_prime, factorize, power
from .limits import (ENUM_CAP, EXTENSION_DEGREE_CAP, POLY_DEGREE_CAP,
                     RF_GCD_DEGREE_CAP)


class FieldCtx:
    """A field with its arithmetic on reps; immutable, shared freely.

    Rep-level zero, one and constant n are ``zero_rep``, ``one_rep`` and
    ``int_rep(n)``; the defaults here are the finite fields' 0, 1, n mod p.
    """

    __slots__ = ("p", "k", "base", "modulus", "qm1", "nonresidue", "_sig",
                 "_order", "_arrays")
    flavor = "finite"
    is_prime_field = False
    zero_rep, one_rep = 0, 1
    log_table = exp_table = None  # exp/log tables where the field keeps them

    def __init__(self, p, k, sig, order, base=None, modulus=None):
        self.p = p
        self.k = k
        self.base = base
        self.modulus = modulus
        self._sig = sig
        self._order = order
        self.qm1 = None if order is None else order - 1
        self.nonresidue = None  # least non-square rep, found by the first square root
        self._arrays = None

    def int_rep(self, n):
        return n % self.p

    def frobenius(self, a, times):
        return self.pow(a, self.p ** times)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._sig == other._sig

    def __hash__(self):
        return hash(self._sig)

    def __repr__(self):
        return f"F_{self.order}"

    # -- basic data -------------------------------------------------------

    @property
    def order(self):
        if self._order is None:
            raise SpecError("F_p(u) is infinite")
        return self._order

    def zero(self):
        return FieldElem(self, self.zero_rep)

    def one(self):
        return FieldElem(self, self.one_rep)

    def from_int(self, n):
        return FieldElem(self, self.int_rep(n))

    def elem(self, value):
        """Coerce an int, a base-element vector, or an element of this ctx."""
        if isinstance(value, FieldElem):
            if value.ctx != self:
                raise SpecError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, (list, tuple)) and self.base is not None:
            vec = [self.base.elem(v) for v in value]
            if len(vec) > self.k:
                raise SpecError("vector longer than extension degree")
            return FieldElem(self, self.index([c.rep for c in vec]))
        raise SpecError(f"cannot coerce {value!r} into {self!r}")

    def u(self):
        """The transcendental generator of F_p(u)."""
        if self.flavor != "ratfunc":
            raise SpecError("u() only exists for the rational-function flavor")
        return FieldElem(self, (((1, 1),), ((0, 1),)))

    # -- enumeration (finite flavor only) ----------------------------------

    def elements(self):
        for i in range(self.order):
            yield self.elem_at(i)

    def elem_at(self, index):
        return FieldElem(self, index % self.order)

    # -- discrete logarithms (flat extensions with tables) -------------------

    def log(self, z):
        """Discrete logarithm of nonzero z to the base of this field's tables.

        None where the field keeps no tables: prime fields, F_p(u) and
        extensions with more than ``limits.ENUM_CAP`` elements.
        """
        log = self.log_table
        return None if log is None else log[z.rep]

    def exp(self, n):
        """The element whose ``log`` is n; None where ``log`` is None."""
        exp = self.exp_table
        return None if exp is None else FieldElem(self, exp[n % self.qm1])

    # -- arithmetic on arrays of reps (fields an enumeration may walk) --------

    def arrays(self):
        """This field's ``RepArrays``, built on the first call.

        Only finite fields of at most ``limits.ENUM_CAP`` elements have
        them; any other field raises ScaleExceeded.
        """
        if self._arrays is None:
            self._arrays = RepArrays(self.p, self.qm1, *self._tables())
        return self._arrays

    def _tables(self):
        raise ScaleExceeded(f"{self!r} is too large to enumerate")


class FieldElem:
    """Element of a FieldCtx in canonical form.  Immutable.

    ``rep`` is an int in [0, p) over F_p, the ``elem_at`` index over an
    extension, and a pair of sparse polynomials over F_p(u).
    """

    __slots__ = ("ctx", "rep")

    def __init__(self, ctx, rep):
        self.ctx = ctx
        self.rep = rep

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return self.rep == self.ctx.zero_rep

    def is_one(self):
        return self.rep == self.ctx.one_rep

    # -- equality -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, FieldElem) or other.ctx != self.ctx:
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash((self.ctx._sig, self.rep))

    def __repr__(self):
        return f"{self.rep!r} in {self.ctx!r}"

    # -- ring operations ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.ctx is self.ctx or other.ctx == self.ctx:
                return other
        elif isinstance(other, int):
            return self.ctx.from_int(other)
        raise SpecError("mixed-field arithmetic")

    def __add__(self, other):
        return FieldElem(self.ctx, self.ctx.add(self.rep, self._coerce(other).rep))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg(self.rep))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return FieldElem(self.ctx, self.ctx.mul(self.rep, self._coerce(other).rep))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return FieldElem(self.ctx, self.ctx.inverse(self.rep))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElem(self.ctx, self.ctx.pow(self.rep, e))

    # -- characteristic-p structure ------------------------------------------

    def frobenius(self, times=1):
        """Apply c -> c^p the given number of times."""
        return FieldElem(self.ctx, self.ctx.frobenius(self.rep, times))

    def pth_root(self):
        """Unique p-th root in a finite field (perfect field)."""
        return self ** (self.ctx.order // self.ctx.p)

    # -- square roots (finite fields of odd order) ------------------------------

    def is_square(self):
        """Whether this element of a field of odd order is a square."""
        ctx = self._odd_field()
        if not self.rep:
            return True
        if ctx.log_table is not None:
            return ctx.log_table[self.rep] % 2 == 0
        return ctx.pow(self.rep, ctx.qm1 // 2) == 1  # Euler's criterion

    def sqrt(self):
        """A square root; SpecError when there is none.

        Fields with tables halve the discrete log; others run Tonelli-Shanks.
        """
        ctx = self._odd_field()
        z = self.rep
        if not z:
            return self
        if ctx.log_table is None:
            root = _tonelli_shanks(ctx, z)
        else:
            log = ctx.log_table[z]
            root = None if log % 2 else ctx.exp_table[log // 2]
        if root is None:
            raise SpecError("square root of a non-square")
        return FieldElem(self.ctx, root)

    def _odd_field(self):
        if self.ctx.order % 2 == 0:
            raise SpecError("square roots need a field of odd characteristic")
        return self.ctx

    # -- rational-function extras ---------------------------------------------

    def is_constant(self):
        if self.ctx.flavor != "ratfunc":
            return True
        num, den = self.rep
        return den == ((0, 1),) and (not num or (len(num) == 1 and num[0][0] == 0))

    def constant_value(self):
        if not self.is_constant():
            raise SpecError("element is not constant")
        if self.ctx.flavor != "ratfunc":
            raise SpecError("constant_value is a rational-function accessor")
        num = self.rep[0]
        return num[0][1] if num else 0


def _tonelli_shanks(ctx, z):
    """A square root of the nonzero rep z, or None if z is not a square.

    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 1.5.1;
    for q = 3 mod 4 the root is z^((q+1)/4).
    """
    e, m = ctx.qm1, 0
    while e % 2 == 0:
        e //= 2
        m += 1
    if ctx.nonresidue is None:
        half = ctx.qm1 // 2
        ctx.nonresidue = next(g for g in itertools.count(2) if ctx.pow(g, half) != 1)
    c = ctx.pow(ctx.nonresidue, e)
    t = ctx.pow(z, e)
    r = ctx.pow(z, (e + 1) // 2)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = ctx.mul(t2, t2)
            i += 1
        if i == m:  # t has the full 2-power order: z is not a square
            return None
        b = ctx.pow(c, 1 << (m - i - 1))
        c = ctx.mul(b, b)
        m, t, r = i, ctx.mul(t, c), ctx.mul(r, b)
    return r


# -- sparse F_p[u] helpers (exponent, coefficient) ------------------------------


def _sp_add(a, b, p):
    out = dict(a)
    for e, c in b:
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return tuple(sorted(out.items()))


def _sp_neg(a, p):
    return tuple((e, (-c) % p) for e, c in a)


def _sp_mul(a, b, p):
    out = {}
    for ea, ca in a:
        for eb, cb in b:
            e = ea + eb
            v = (out.get(e, 0) + ca * cb) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return tuple(sorted(out.items()))


def _sp_to_dense(a):
    if not a:
        return []
    out = [0] * (a[-1][0] + 1)
    for e, c in a:
        out[e] = c
    return out


def _dense_to_sp(a):
    return tuple((e, c) for e, c in enumerate(a) if c)


def _rf_normalize(num, den, p):
    """Reduce a fraction of sparse polynomials to canonical form."""
    if not den:
        raise DivisionByZeroPoly("zero denominator in F_p(u)")
    if not num:
        return ((), ((0, 1),))
    shift = min(num[0][0], den[0][0])
    if shift:
        num = tuple((e - shift, c) for e, c in num)
        den = tuple((e - shift, c) for e, c in den)
    num_mono = len(num) == 1
    den_mono = len(den) == 1
    if not num_mono and not den_mono:
        if max(num[-1][0], den[-1][0]) > RF_GCD_DEGREE_CAP:
            raise ScaleExceeded("rational-function gcd beyond degree cap")
        g = modpoly.gcd(_sp_to_dense(num), _sp_to_dense(den), p)
        if modpoly.deg(g) > 0:
            num = _dense_to_sp(modpoly.divrem(_sp_to_dense(num), g, p)[0])
            den = _dense_to_sp(modpoly.divrem(_sp_to_dense(den), g, p)[0])
    lead = den[-1][1]
    if lead != 1:
        inv = pow(lead, p - 2, p)
        num = tuple((e, c * inv % p) for e, c in num)
        den = tuple((e, c * inv % p) for e, c in den)
    return (num, den)


# -- the representations ------------------------------------------------------------


class _RatFuncField(FieldCtx):
    """F_p(u) on reduced fractions of sparse polynomials."""

    __slots__ = ()
    flavor = "ratfunc"
    zero_rep = ((), ((0, 1),))
    one_rep = (((0, 1),), ((0, 1),))

    def __init__(self, p):
        super().__init__(p, 1, ("rf", p), None)

    def __repr__(self):
        return f"F_{self.p}(u)"

    def int_rep(self, n):
        c = n % self.p
        return (((0, c),) if c else (), ((0, 1),))

    def add(self, a, b):
        (a_n, a_d), (b_n, b_d), p = a, b, self.p
        num = _sp_add(_sp_mul(a_n, b_d, p), _sp_mul(b_n, a_d, p), p)
        return _rf_normalize(num, _sp_mul(a_d, b_d, p), p)

    def neg(self, a):
        return (_sp_neg(a[0], self.p), a[1])

    def mul(self, a, b):
        p = self.p
        return _rf_normalize(_sp_mul(a[0], b[0], p), _sp_mul(a[1], b[1], p), p)

    def inverse(self, a):
        return _rf_normalize(a[1], a[0], self.p)

    def pow(self, a, e):
        return power(self.mul, self.one_rep, a, e)

    def frobenius(self, a, times):
        scale = self.p ** times
        return tuple(tuple((e * scale, c) for e, c in part) for part in a)


class _PrimeField(FieldCtx):
    """F_p on ints in [0, p)."""

    __slots__ = ()
    is_prime_field = True

    def __init__(self, p):
        super().__init__(p, 1, ("fp", p), p)

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inverse(self, a):
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        return pow(a, e, self.p)

    def frobenius(self, a, times):
        return a

    def _tables(self):
        # the array arithmetic's tables only: log_table stays None, so the
        # boxed square roots keep Tonelli-Shanks and their roots
        if self.p > ENUM_CAP:
            return super()._tables()
        return _zech_tables(_DigitField(self, (self.zero(), self.one())))


class _DigitField(FieldCtx):
    """F_(p^k) on indices, through their base-p digits.

    ``low`` holds the modulus coefficients below x^k.  Exact for every p
    and k; used as is above the table limit and to build the tables.
    """

    __slots__ = ("low",)

    def __init__(self, prime, modulus):
        reps = tuple(c.rep for c in modulus)
        k = len(reps) - 1
        super().__init__(prime.p, k, ("ext", prime._sig, reps), prime.p ** k,
                         prime, modulus)
        self.low = reps[:-1]

    def digits(self, n):
        p = self.p
        out = []
        for _ in range(self.k):
            n, d = divmod(n, p)
            out.append(d)
        return out

    def index(self, vec):
        p = self.p
        n = 0
        for c in reversed(vec):
            n = n * p + c % p
        return n

    def add(self, a, b):
        return self.index([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.index([-x for x in self.digits(a)])

    def mul(self, a, b):
        p, k, low = self.p, self.k, self.low
        conv = [0] * (2 * k - 1)
        ys = self.digits(b)
        for i, x in enumerate(self.digits(a)):
            if x:
                for j, y in enumerate(ys):
                    conv[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            c = conv[i] % p
            if c:
                for j in range(k):
                    conv[i - k + j] -= c * low[j]
        return self.index(conv[:k])

    def inverse(self, a):
        return self.pow(a, self.qm1 - 1)

    def pow(self, a, e):
        if not a:
            return 0 if e else 1
        return power(self.mul, 1, a, e % self.qm1)


class _TableField(_DigitField):
    """F_(p^k) on indices by exp/log/Zech table lookups.

    With g a primitive element: exp[i] = g^i (stored twice over, so a sum
    of two logs needs no reduction), log[g^i] = i, and
    zech[n] = log(1 + g^n), or -1 where 1 + g^n = 0.  The tables are
    built by the digit arithmetic of ``digit_field``, the same field.
    """

    __slots__ = ("exp_table", "log_table", "zech", "minus_one")

    def __init__(self, digit_field):
        super().__init__(digit_field.base, digit_field.modulus)
        self.exp_table, self.log_table, self.zech = _zech_tables(digit_field)
        self.minus_one = self.qm1 // 2 if self.p != 2 else 0  # log of -1

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self.log_table
        la = log[a]
        z = self.zech[(log[b] - la) % self.qm1]
        return 0 if z < 0 else self.exp_table[la + z]

    def neg(self, a):
        return self.exp_table[self.log_table[a] + self.minus_one] if a else 0

    def mul(self, a, b):
        if not a or not b:
            return 0
        log = self.log_table
        return self.exp_table[log[a] + log[b]]

    def inverse(self, a):
        return self.exp_table[self.qm1 - self.log_table[a]]

    def pow(self, a, e):
        if not a:
            return 0 if e else 1
        return self.exp_table[self.log_table[a] * e % self.qm1]

    def _tables(self):
        return self.exp_table, self.log_table, self.zech


def _zech_tables(field):
    """(exp, log, zech) of the least primitive index, as compact int arrays,
    computed by the digit arithmetic of the _DigitField ``field``.

    Over F_2 that index is 1, the only nonzero element."""
    p, k, qm1 = field.p, field.k, field.qm1
    primes = list(factorize(qm1))
    g = next(a for a in range(1, qm1 + 1)
             if all(field.pow(a, qm1 // r) != 1 for r in primes))
    # g^0 .. g^(step-1) one product at a time; after that each block of
    # step powers is the previous one times g^step, a k x k matrix on
    # coefficient columns.
    step = math.isqrt(qm1) + 1
    block, a = [], 1
    for _ in range(step):
        block.append(field.digits(a))
        a = field.mul(a, g)
    cols = np.array(block, dtype=np.int64).T
    jump = np.array([field.digits(field.mul(a, p ** j)) for j in range(k)],
                    dtype=np.int64).T
    weights = p ** np.arange(k, dtype=np.int64)
    exp = np.empty(-(-qm1 // step) * step, dtype=np.int64)
    for start in range(0, qm1, step):
        exp[start:start + step] = weights @ cols
        cols = jump @ cols % p
    exp = exp[:qm1]
    log = np.full(qm1 + 1, -1, dtype=np.int64)
    log[exp] = np.arange(qm1)
    digit = exp % p
    zech = log[exp - digit + (digit + 1) % p]
    return (_compact(np.concatenate([exp, exp])), _compact(log),
            _compact(zech))


def _compact(values):
    return array("i", values.astype(np.intc).tobytes())


class RepArrays:
    """A finite field's arithmetic on numpy arrays of reps.

    Every operation works elementwise on int arrays (or an array and a
    scalar rep) by lookups in the exp/log/Zech tables of ``_TableField``;
    a prime field builds the same tables the first time it is walked and
    keeps them here only.  log[0] reads 0 in this copy, so the lanes that
    a zero takes index the tables safely and are then overwritten.
    """

    __slots__ = ("qm1", "minus_one", "exp", "log", "zech")

    def __init__(self, p, qm1, exp, log, zech):
        self.qm1 = qm1
        self.minus_one = qm1 // 2 if p != 2 else 0  # log of -1
        self.exp = np.frombuffer(exp, dtype=np.intc)
        self.log = np.frombuffer(log, dtype=np.intc).copy()
        self.log[0] = 0
        self.zech = np.frombuffer(zech, dtype=np.intc)

    def add(self, a, b):
        la, lb = self.log[a], self.log[b]
        z = self.zech[(lb - la) % self.qm1]
        total = np.where(z < 0, 0, self.exp[la + z])
        return np.where(np.equal(a, 0), b, np.where(np.equal(b, 0), a, total))

    def neg(self, a):
        return np.where(np.equal(a, 0), 0, self.exp[self.log[a] + self.minus_one])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        zero = np.equal(a, 0) | np.equal(b, 0)
        return np.where(zero, 0, self.exp[self.log[a] + self.log[b]])

    def div(self, a, b):
        """a / b; the lanes where b is 0 hold no meaningful value."""
        return np.where(np.equal(a, 0), 0,
                        self.exp[self.log[a] + self.qm1 - self.log[b]])

    def is_square(self, a):
        """Square test in odd characteristic: 0 and the even logs."""
        return self.log[a] % 2 == 0

    def sqrt(self, a):
        """exp(log / 2): a root on the lanes that ``is_square`` accepts."""
        return np.where(np.equal(a, 0), 0, self.exp[self.log[a] // 2])

    def eval(self, poly, x):
        """The values of the Poly ``poly`` at the array of reps x (Horner)."""
        reps = poly.reps
        acc = np.full(np.shape(x), reps[-1] if reps else 0, dtype=np.int64)
        for c in reversed(reps[:-1]):
            acc = self.mul(acc, x)
            if c:
                acc = self.add(acc, c)
        return acc


def embed(elem, target):
    """Image of elem under the subfield embedding into the field target."""
    src = elem.ctx
    if src == target:
        return elem
    if (src.flavor != "finite" or target.flavor != "finite"
            or src.p != target.p or target.k % src.k):
        raise SpecError("no embedding path to the requested field")
    if src.is_prime_field:
        return target.from_int(elem.rep)
    # elem is its base-p digit polynomial at src's root
    digits = Poly.from_ints(target, src.digits(elem.rep))
    return digits.eval(FieldElem(target, _subfield_root(src, target)))


@functools.lru_cache(maxsize=8)
def _subfield_root(src, target):
    """Rep of the root in target of src's modulus: the first norm at which
    it vanishes."""
    modulus = Poly.from_ints(target, [c.rep for c in src.modulus])
    e = (target.order - 1) // (src.order - 1)
    return next(z for z in (target.elem_at(i) ** e for i in itertools.count(2))
                if modulus.eval(z).is_zero()).rep


# -- polynomials -----------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over a finite FieldCtx.

    ``reps`` is the trimmed tuple of coefficient reps, lowest degree
    first; ``coeffs`` boxes them as FieldElems.
    """

    __slots__ = ("ctx", "reps")

    def __init__(self, ctx, reps):
        if ctx.flavor != "finite":
            raise SpecError("polynomials need a finite coefficient field")
        self.ctx = ctx
        self.reps = reps

    @classmethod
    def from_reps(cls, ctx, reps):
        n = len(reps)
        while n and not reps[n - 1]:
            n -= 1
        return cls(ctx, tuple(reps[:n]))

    @classmethod
    def from_elems(cls, ctx, elems):
        return cls.from_reps(ctx, [ctx.elem(c).rep for c in elems])

    @classmethod
    def from_ints(cls, ctx, ints):
        return cls.from_reps(ctx, [ctx.int_rep(c) for c in ints])

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,))

    @classmethod
    def x_power(cls, ctx, n, scale=1):
        return cls.from_ints(ctx, [0] * n + [scale])

    # -- views -------------------------------------------------------------

    @property
    def coeffs(self):
        return tuple(FieldElem(self.ctx, c) for c in self.reps)

    @property
    def degree(self):
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self.reps) - 1

    def is_zero(self):
        return not self.reps

    @property
    def leading(self):
        if not self.reps:
            raise ZeroPolynomial("leading coefficient of zero")
        return FieldElem(self.ctx, self.reps[-1])

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ctx == self.ctx
                and other.reps == self.reps)

    def __hash__(self):
        return hash((self.ctx._sig, self.reps))

    def __repr__(self):
        if not self.reps:
            return "Poly(0)"
        if self.ctx.is_prime_field:
            terms = [f"{c}*x^{i}" for i, c in enumerate(self.reps) if c]
            return "Poly(" + " + ".join(terms) + f" over {self.ctx!r})"
        return f"Poly(deg {self.degree} over {self.ctx!r})"

    # -- arithmetic: F_p through modpoly, extensions through the field --------

    def __add__(self, other):
        self._check(other)
        ctx = self.ctx
        if ctx.is_prime_field:
            return Poly(ctx, tuple(modpoly.add(self.reps, other.reps, ctx.p)))
        a, b = self.reps, other.reps
        if len(a) < len(b):
            a, b = b, a
        add = ctx.add
        return Poly.from_reps(ctx, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return self.scale(other)
        self._check(other)
        ctx = self.ctx
        a, b = self.reps, other.reps
        if ctx.is_prime_field:
            return Poly(ctx, tuple(modpoly.mul(a, b, ctx.p)))
        if not a or not b:
            return Poly.zero(ctx)
        add, mul = ctx.add, ctx.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
        return Poly.from_reps(ctx, out)

    def scale(self, elem):
        ctx, c = self.ctx, self.ctx.elem(elem).rep
        if c == 1:
            return self
        if not c:
            return Poly.zero(ctx)
        p, mul = ctx.p, ctx.mul
        if ctx.is_prime_field:
            return Poly(ctx, tuple(x * c % p for x in self.reps))
        return Poly(ctx, tuple(mul(x, c) for x in self.reps))

    def __pow__(self, e):
        if e < 0:
            raise SpecError("negative polynomial powers are not defined")
        return power(Poly.__mul__, Poly.one(self.ctx), self, e)

    def divrem(self, other):
        """Quotient and remainder with deg r < deg other."""
        self._check(other)
        if other.is_zero():
            raise DivisionByZeroPoly("polynomial division by zero")
        ctx = self.ctx
        a, b = self.reps, other.reps
        if ctx.is_prime_field:
            q, r = modpoly.divrem(a, b, ctx.p)
            return Poly(ctx, tuple(q)), Poly(ctx, tuple(r))
        if len(a) < len(b):
            return Poly.zero(ctx), self
        add, mul, neg = ctx.add, ctx.mul, ctx.neg
        inv = ctx.inverse(b[-1])
        rem = list(a)
        lb = len(b)
        q = [0] * (len(a) - lb + 1)
        for i in range(len(a) - lb, -1, -1):
            c = rem[i + lb - 1]
            if not c:
                continue
            q[i] = c = mul(c, inv)
            c = neg(c)
            for j, y in enumerate(b):
                rem[i + j] = add(rem[i + j], mul(c, y))
        return Poly.from_reps(ctx, q), Poly.from_reps(ctx, rem[:lb - 1])

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def __mod__(self, other):
        return self.divrem(other)[1]

    def monic(self):
        return self.scale(self.leading.inverse()) if self.reps else self

    def gcd(self, other):
        """Monic greatest common divisor."""
        self._check(other)
        ctx = self.ctx
        if ctx.is_prime_field:
            return Poly(ctx, tuple(modpoly.gcd(self.reps, other.reps, ctx.p)))
        a, b = self, other
        while b.reps:
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        # the constant i has rep i mod p in every finite field
        ctx, p, reps = self.ctx, self.ctx.p, self.reps
        out = ([i * c % p for i, c in enumerate(reps)] if ctx.is_prime_field
               else [ctx.mul(i % p, c) for i, c in enumerate(reps)])
        return Poly.from_reps(ctx, out[1:])

    def eval(self, x):
        ctx = self.ctx
        if not (isinstance(x, FieldElem) and x.ctx is ctx):
            x = ctx.elem(x)
        x = x.rep
        add, mul = ctx.add, ctx.mul
        acc = 0
        for c in reversed(self.reps):
            acc = add(mul(acc, x), c)
        return FieldElem(ctx, acc)

    def shift(self, n):
        """Multiply by x^n."""
        if not self.reps:
            return self
        return Poly(self.ctx, (0,) * n + self.reps)

    def _check(self, other):
        if not isinstance(other, Poly) or other.ctx != self.ctx:
            raise SpecError("mixed-context polynomial arithmetic")


# -- field construction -----------------------------------------------------------


def _irreducible_int(coeffs, p):
    """Rabin irreducibility test for a monic int-list polynomial over F_p."""
    k = modpoly.deg(coeffs)
    x = [0, 1]
    if modpoly.pow_mod(x, p ** k, coeffs, p) != x:
        return False
    for r in factorize(k):
        probe = modpoly.sub(modpoly.pow_mod(x, p ** (k // r), coeffs, p), x, p)
        if modpoly.deg(modpoly.gcd(probe, coeffs, p)) != 0:
            return False
    return True


def field_make(p, k=1, seed=None):
    """Deterministic field constructor.

    The modulus is the (seed)-th monic irreducible of degree k in the
    ascending coefficient enumeration (seed None or 0 gives the least one),
    so runs are reproducible.
    """
    check_prime(p)
    _check_degree(k)
    return _PrimeField(p) if k == 1 else _flat_field(p, k, seed or 0)


def extend_field(ctx, degree):
    """Degree-`degree` extension of a finite context, built flat over F_p.

    Over F_(p^a) this is the field of ``field_make(p, a*degree)``, so
    equal contexts share their tables; elements of ctx reach it through
    ``embed``.  The degree cap bounds `degree`, not a*degree; callers that
    enumerate the field bound its size by ``limits.ENUM_CAP``.
    """
    if ctx.flavor != "finite":
        raise SpecError("can only extend finite fields")
    if degree == 1:
        return ctx
    _check_degree(degree)
    return _flat_field(ctx.p, ctx.k * degree, 0)


def _check_degree(k):
    if not 1 <= k <= EXTENSION_DEGREE_CAP:
        raise SpecError(f"extension degree {k} outside [1, {EXTENSION_DEGREE_CAP}]")


@functools.lru_cache(maxsize=8)
def _flat_field(p, k, skip):
    """The skip-th field of field_make(p, k), k >= 2; contexts are
    immutable, so the eight most recently made are shared instead of
    searched again.  A prime field costs nothing to make and is not kept
    here, so it never evicts an extension's tables."""
    prime = _PrimeField(p)
    for m in range(p ** k):
        coeffs = []
        mm = m
        for _ in range(k):
            coeffs.append(mm % p)
            mm //= p
        coeffs.append(1)
        if _irreducible_int(coeffs, p):
            if skip == 0:
                field = _DigitField(prime, tuple(prime.from_int(c) for c in coeffs))
                return field if field.order > ENUM_CAP else _TableField(field)
            skip -= 1
    raise NoIrreducibleFound(f"no irreducible of degree {k} over F_{p}")


def ratfunc_field(p):
    check_prime(p)
    return _RatFuncField(p)


# -- root structure -----------------------------------------------------------------


def separable_radical(f: Poly) -> Poly:
    """Monic squarefree polynomial with the same closure roots as f.

    Squarefree levels over a finite field (Geddes-Czapor-Labahn,
    *Algorithms for Computer Algebra*, 1992, Alg. 8.3; von zur
    Gathen-Gerhard, *Modern Computer Algebra*, ch. 14), one pass down and
    one fold up.  Down: c_0 = f, c_(i+1) = gcd(c_i, c_i'), w_i = c_i /
    c_(i+1); a level c_i = g(x^p) becomes the coefficientwise p-th root of
    g, which has its roots since finite fields are perfect.  w_i holds
    once each factor of c_i whose multiplicity p does not divide, and
    c_(i+1) every other factor, so rad c_i = lcm(w_i, rad c_(i+1)).
    Between p-th roots w_(i+1) divides w_i, so only the first level of f
    and of each root keeps its w.  Up, from the deepest kept w:
    rad <- rad * (w / gcd(w, rad)).  Both passes are loops: (x - 1)^1500
    has 1500 levels, past Python's recursion limit, and perfbench's
    tracer, which wraps this module attribute, would time a recursive
    call once per level.
    """
    if f.is_zero():
        raise ZeroPolynomial("radical of zero polynomial")
    ctx = f.ctx
    kept, top, c = [], True, f.monic()
    while c.degree > 0:
        dc = c.derivative()
        if dc.is_zero():
            root, reps = ctx.order // ctx.p, c.reps[::ctx.p]  # root 1 over F_p
            c = Poly(ctx, reps if root == 1 else tuple(ctx.pow(x, root) for x in reps))
            top = True
            continue
        g = c.gcd(dc)
        if top:
            kept.append(c // g if g.degree > 0 else c)
        c, top = g, False
    rad = kept.pop() if kept else Poly.one(ctx)
    for w in reversed(kept):
        g = w.gcd(rad)
        rad = rad * (w // g if g.degree > 0 else w)
    return rad


def distinct_root_count(f: Poly) -> int:
    """Number of distinct roots of f in the algebraic closure."""
    return separable_radical(f).degree


def check_poly_scale(degree):
    if degree > POLY_DEGREE_CAP:
        raise ScaleExceeded(
            f"polynomial degree {degree} exceeds cap {POLY_DEGREE_CAP}")
