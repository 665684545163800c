"""Exact arithmetic over F_p, its extensions, and the function field F_p(u).

Representation conventions:

* A prime field F_p stores elements as ints in [0, p).
* Every extension F_(p^k) is built directly over F_p and also stores each
  element as one int: its ``elem_at`` index in [0, p^k), whose base-p
  digits are the element's coefficients in ascending powers of the
  adjoined root.  So ``rep`` is the index and ``from_int(n)`` is the
  constant n mod p.  The modulus is a monic irreducible polynomial over
  F_p, chosen deterministically so every run of the library reproduces
  the same field.  Every extension builds exp/log/Zech tables to a
  primitive element, from the modulus's companion matrix, when it is
  made (Huber, "Some comments on Zech's logarithms", IEEE Trans. IT,
  1990); products, sums, negations, inverses and powers are then table
  lookups.  A census or a torsion walk covers at most ``limits.ENUM_CAP``
  points, so an extension with more elements is refused with
  ScaleExceeded before its modulus is sought.  The eight most recently
  made extensions, each with its tables, live in a
  ``functools.lru_cache``, whose ``cache_info()`` counts hits and misses.
  Making a prime field builds nothing, so each ``field_make(p)`` makes a
  new one and none takes a cache slot.  The constant n is the rep n in
  every finite field of characteristic p, which is why a census and a
  torsion walk read F_p reps in F_(p^k).
* Every field an enumeration may walk, one of at most ``limits.ENUM_CAP``
  elements, also computes on numpy arrays of reps: ``ctx.arrays()`` is
  its ``RepArrays``, which adds, negates, multiplies, divides, tests
  squares, takes square roots by halved logs and evaluates a polynomial
  with F_p coefficients lane by lane, by gathers in the same table
  buffers.  Zero's log is 2(q-1), which the tables send back to zero, so
  a sum, negative, product or quotient is the same gathers on every
  lane, zero or not.
  A prime field builds its tables the first time it is walked and
  keeps them in its ``RepArrays`` only: its FieldElem arithmetic stays
  on ints mod p.
* F_p(u) stores a reduced fraction of sparse polynomials in u: tuples of
  (exponent, coefficient) pairs with ascending exponents, denominator
  monic and coprime to the numerator.  Sparseness matters because the
  Frobenius c(u) -> c(u)^p multiplies exponents by p.

A field is one FieldCtx whose subclass is its representation
(``_PrimeField``, ``_TableField``, ``_RatFuncField``).
It adds, negates, multiplies, inverts, raises to powers and applies the
Frobenius on reps; every FieldElem operator is one call to it.

A Poly has its coefficients in a prime field F_p and refuses any other
field: a count of periodic points over the algebraic closure does not
depend on the finite field a map is written over.  It keeps them as one
trimmed numpy array of reps, lowest degree first, of the field's
``dtype`` (modpoly's: int64 while (p-1)^2 + p < 2^62, object arrays of
Python ints above), and boxes them only when ``coeffs`` is read.
Products, division and gcds run in the array kernel ``modpoly``, and
sums, scaling, negation, the derivative and the p-th root are each one
array operation, so a Poly never leaves its array.  Scaling by one
returns the Poly itself.
"""

import functools
import itertools

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

    __slots__ = ("p", "k", "modulus", "qm1", "dtype", "_sig", "_order",
                 "_arrays")
    flavor = "finite"
    is_prime_field = False
    zero_rep, one_rep = 0, 1

    def __init__(self, p, k, sig, order, modulus=None):
        self.p = p
        self.k = k
        self.modulus = modulus
        self._sig = sig
        self._order = order
        self.qm1 = None if order is None else order - 1
        # a Poly's reps: modpoly's dtype, so Polys over F_p go to it as they are
        self.dtype = None if order is None else modpoly.residue_dtype(order)
        self._arrays = None

    def int_rep(self, n):
        return n % self.p

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
        """Coerce an int or an element of this ctx."""
        if isinstance(value, FieldElem):
            if value.ctx != self:
                raise SpecError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return self.from_int(value)
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

    def frobenius(self):
        """c -> c^p."""
        return FieldElem(self.ctx, self.ctx.frobenius(self.rep))

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


def _sp_to_dense(a, p):
    """The residue array of a nonzero sparse polynomial."""
    exps, coeffs = zip(*a)
    out = np.zeros(exps[-1] + 1, modpoly.residue_dtype(p))
    out[list(exps)] = coeffs
    return out


def _dense_to_sp(a):
    exps = np.flatnonzero(a)
    return tuple(zip(exps.tolist(), a[exps].tolist()))


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
        dense_num, dense_den = _sp_to_dense(num, p), _sp_to_dense(den, p)
        g = modpoly.gcd(dense_num, dense_den, p)
        if len(g) > 1:
            num = _dense_to_sp(modpoly.divrem(dense_num, g, p)[0])
            den = _dense_to_sp(modpoly.divrem(dense_den, g, p)[0])
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

    def frobenius(self, a):
        p = self.p
        return tuple(tuple((e * p, c) for e, c in part) for part in a)


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

    def frobenius(self, a):
        return a

    def _tables(self):
        if self.p > ENUM_CAP:
            return super()._tables()
        return _zech_tables(self.p, (0,))  # the modulus x


class _TableField(FieldCtx):
    """F_(p^k), k >= 2, on indices by exp/log/Zech table lookups.

    ``_zech_tables`` builds the tables from the modulus when the field
    is made.  They are read here through memoryviews, and the field's
    ``RepArrays`` reads the same buffers as numpy arrays.  Zero has a
    log, so sums, negatives and products take no zero branch.
    """

    __slots__ = ("exp_table", "log_table", "zech", "minus_one")

    def __init__(self, p, modulus):
        k = len(modulus) - 1
        super().__init__(p, k, ("ext", p, modulus), p ** k, modulus)
        self.exp_table, self.log_table, self.zech = map(
            memoryview, _zech_tables(p, modulus[:-1]))
        self.minus_one = self.qm1 // 2 if self.p != 2 else 0  # log of -1

    def add(self, a, b):
        la = self.log_table[a]
        return self.exp_table[la + self.zech[self.log_table[b] - la]]

    def neg(self, a):
        return self.exp_table[self.log_table[a] + self.minus_one]

    def mul(self, a, b):
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


def _zech_tables(p, low):
    """(exp, log, zech) intc arrays of F_(p^k) to its least primitive
    index g, read from the modulus x^k + low[k-1] x^(k-1) + ... + low[0].

    Multiplication by the index a is the k x k matrix on coefficient
    columns whose column j is a x^j, the companion matrix of the modulus
    applied j times to a's digits; every product here is one of these
    matrices, and powers of them come from ``intarith.power``.  The
    constants 1 .. p - 1 have orders dividing p - 1, so for k >= 2 the
    search for g starts at the index p, the root x.

    With Q = q - 1, zero's log is S = 2Q: log[0] = S and log[g^i] = i.
    exp has 4Q + 1 entries, g^(i mod Q) below S and 0 from S up, so the
    sum of two logs, either of them S, indexes the product.  zech, also
    4Q + 1 entries, is indexed by n = log b - log a in [-2Q, 2Q],
    negative n counted from the end, so that a + b = exp[log a + zech[n]]:
    log(1 + g^n) for |n| < Q (S where that is log 0), n itself for n < -Q
    (a = 0, so exp[S + n] = b) and 0 for n > Q (b = 0).  np.zeros leaves
    both zero regions unwritten, so they add no resident memory.

    Over F_2 the index g is 1, the only nonzero element."""
    k = len(low)
    qm1 = p ** k - 1
    weights = p ** np.arange(k, dtype=np.int64)
    companion = np.eye(k, k, -1, dtype=np.int64)  # x * x^j = x^(j+1) ...
    companion[:, -1] = [-c % p for c in low]       # ... reduced at j = k - 1
    one = np.eye(k, dtype=np.int64)

    def mul(a, b):
        return a @ b % p

    def times(indices):
        """The matrices of multiplication by an array of indices."""
        col = indices[..., None] // weights % p
        cols = [col]
        for _ in range(k - 1):
            col = col @ companion.T % p
            cols.append(col)
        return np.stack(cols, axis=-1)

    # g, the least primitive index, from 16 candidates at a time: the
    # power of their stack of matrices for each prime r | Q, read off
    # column 0, is not the identity
    primes = list(factorize(qm1))
    for start in itertools.count(p if k > 1 else 1, 16):
        stack = times(np.arange(start, min(start + 16, qm1 + 1)))
        primitive = np.ones(len(stack), dtype=bool)
        for r in primes:
            primitive &= power(mul, one, stack, qm1 // r)[:, :, 0] @ weights != 1
        if primitive.any():
            break
    # g^0 .. g^(n-1) as coefficient columns and jump = g^n, doubled until
    # n^2 >= Q; after that each block of n powers is the previous one
    # times jump.
    cols, jump = one[:, :1], stack[primitive.argmax()]
    while cols.shape[1] ** 2 < qm1:
        cols = np.concatenate((cols, jump @ cols % p), axis=1)
        jump = mul(jump, jump)
    step = cols.shape[1]
    exp = np.zeros(4 * qm1 + 1, dtype=np.intc)
    for start in range(0, qm1, step):
        exp[start:start + step] = weights @ cols
        cols = jump @ cols % p
    powers = exp[:qm1]
    exp[qm1:2 * qm1] = powers
    log = np.empty(qm1 + 1, dtype=np.intc)
    log[powers] = np.arange(qm1, dtype=np.intc)
    log[0] = 2 * qm1
    zech = np.zeros(4 * qm1 + 1, dtype=np.intc)
    one_plus = powers + 1  # 1 + g^n: the lowest digit p - 1 wraps to 0, no carry
    one_plus[one_plus % p == 0] -= p
    zech[:qm1] = zech[-qm1:] = log[one_plus]
    zech[-2 * qm1:-qm1] = np.arange(-2 * qm1, -qm1, dtype=np.intc)
    return exp, log, zech


class RepArrays:
    """A finite field's arithmetic on numpy arrays of reps.

    Every operation works elementwise on int arrays (or an array and a
    scalar rep) by gathers in the tables of ``_zech_tables``: an
    extension's ``_TableField`` buffers, or the tables a prime field
    builds the first time it is walked and keeps here only.  Zero has a
    log, so a sum, negative, product or quotient takes no zero mask.
    """

    __slots__ = ("qm1", "minus_one", "exp", "log", "zech")

    def __init__(self, p, qm1, exp, log, zech):
        self.qm1 = qm1
        self.minus_one = qm1 // 2 if p != 2 else 0  # log of -1
        self.exp, self.log, self.zech = (np.frombuffer(t, dtype=np.intc)
                                         for t in (exp, log, zech))

    def add(self, a, b):
        la = self.log.take(a)
        return self.exp.take(la + self.zech.take(self.log.take(b) - la))

    def neg(self, a):
        return self.exp.take(self.log.take(a) + self.minus_one)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self.exp.take(self.log.take(a) + self.log.take(b))

    def div(self, a, b):
        """a / b; the lanes where b is 0 hold no meaningful value."""
        return self.exp.take(self.log.take(a) - self.log.take(b) + self.qm1)

    def is_square(self, a):
        """Square test in odd characteristic: 0 and the even logs."""
        return self.log.take(a) % 2 == 0

    def sqrt(self, a):
        """exp(log / 2): a root on the lanes that ``is_square`` accepts."""
        return np.where(np.equal(a, 0), 0, self.exp.take(self.log.take(a) // 2))

    def eval(self, reps, x):
        """The values at the array of reps x (Horner) of the polynomial
        whose coefficient reps, ascending, are the ints ``reps``.

        They are F_p reps, which name the same constants in every
        extension of F_p, so they are read as reps of this field.
        """
        acc = np.full(np.shape(x), reps[-1] if reps else 0, dtype=np.int64)
        for c in reversed(reps[:-1]):
            acc = self.mul(acc, x)
            if c:
                acc = self.add(acc, c)
        return acc


# -- polynomials -----------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over a prime field F_p.

    ``reps`` is the trimmed numpy array of coefficient reps, lowest degree
    first, of the field's ``dtype``.  No method writes to it, so Polys
    share arrays and slices of them.  What leaves a Poly is Python ints:
    ``coeffs`` and ``leading`` box reps as FieldElems, and ``eval``,
    hashing and the repr read ``reps.tolist()``.
    """

    __slots__ = ("ctx", "reps")

    def __init__(self, ctx, reps):
        self.ctx = _prime(ctx)
        self.reps = reps

    @classmethod
    def from_reps(cls, ctx, reps):
        """The Poly of a sequence of reps, trailing zeros dropped."""
        return cls(ctx, modpoly.trim_array(np.array(reps, _prime(ctx).dtype)))

    @classmethod
    def from_elems(cls, ctx, elems):
        return cls.from_reps(ctx, [ctx.elem(c).rep for c in elems])

    @classmethod
    def from_ints(cls, ctx, ints):
        return cls.from_reps(ctx, [ctx.int_rep(c) for c in ints])

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, np.zeros(0, ctx.dtype))

    @classmethod
    def one(cls, ctx):
        return cls(ctx, np.ones(1, ctx.dtype))

    @classmethod
    def x_power(cls, ctx, n):
        return cls.from_ints(ctx, [0] * n + [1])

    # -- views -------------------------------------------------------------

    @property
    def coeffs(self):
        return tuple(FieldElem(self.ctx, c) for c in self.reps.tolist())

    @property
    def degree(self):
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self.reps) - 1

    def is_zero(self):
        return not len(self.reps)

    @property
    def leading(self):
        if not len(self.reps):
            raise ZeroPolynomial("leading coefficient of zero")
        return FieldElem(self.ctx, int(self.reps[-1]))

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ctx == self.ctx
                and np.array_equal(other.reps, self.reps))

    def __hash__(self):
        return hash((self.ctx._sig, tuple(self.reps.tolist())))

    def __repr__(self):
        if not len(self.reps):
            return "Poly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.reps.tolist()) if c]
        return "Poly(" + " + ".join(terms) + f" over {self.ctx!r})"

    # -- arithmetic: on arrays and modpoly ------------------------------------

    def __add__(self, other):
        self._check(other)
        a, b = self.reps, other.reps
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[:len(b)] += b
        out[:len(b)] %= self.ctx.p
        return Poly(self.ctx, modpoly.trim_array(out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return self.scale(other)
        self._check(other)
        return Poly(self.ctx, modpoly.mul(self.reps, other.reps, self.ctx.p))

    def scale(self, elem):
        ctx, c = self.ctx, self.ctx.elem(elem).rep
        if c == 1:
            return self
        if not c:
            return Poly.zero(ctx)
        return Poly(ctx, self.reps * c % ctx.p)

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
        q, r = modpoly.divrem(self.reps, other.reps, ctx.p)
        return Poly(ctx, q), Poly(ctx, r)

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def monic(self):
        return self.scale(self.leading.inverse()) if len(self.reps) else self

    def gcd(self, other):
        """Monic greatest common divisor."""
        self._check(other)
        return Poly(self.ctx, modpoly.gcd(self.reps, other.reps, self.ctx.p))

    def derivative(self):
        # (i mod p) * c stays below p^2
        p, reps = self.ctx.p, self.reps
        i = np.arange(1, len(reps), dtype=reps.dtype) % p
        return Poly(self.ctx, modpoly.trim_array(i * reps[1:] % p))

    def eval(self, x):
        ctx = self.ctx
        if not (isinstance(x, FieldElem) and x.ctx is ctx):
            x = ctx.elem(x)
        x = x.rep
        add, mul = ctx.add, ctx.mul
        acc = 0
        for c in reversed(self.reps.tolist()):
            acc = add(mul(acc, x), c)
        return FieldElem(ctx, acc)

    def shift(self, n):
        """Multiply by x^n."""
        if not len(self.reps):
            return self
        return Poly(self.ctx, np.concatenate((np.zeros(n, self.reps.dtype), self.reps)))

    def _check(self, other):
        if not isinstance(other, Poly) or other.ctx != self.ctx:
            raise SpecError("mixed-context polynomial arithmetic")


def _prime(ctx):
    if not ctx.is_prime_field:
        raise SpecError(f"polynomials need a prime coefficient field, not {ctx!r}")
    return ctx


# -- field construction -----------------------------------------------------------


def _irreducible(modulus):
    """Rabin irreducibility test for a monic Poly of degree k >= 2 over F_p."""
    ctx, k = modulus.ctx, modulus.degree
    x = Poly.x_power(ctx, 1)

    def x_to_p_to_the(j):
        return Poly(ctx, modpoly.pow_mod(x.reps, ctx.p ** j, modulus.reps, ctx.p))

    return x_to_p_to_the(k) == x and all(
        (x_to_p_to_the(k // r) - x).gcd(modulus).degree == 0 for r in factorize(k))


def field_make(p, k=1):
    """Deterministic field constructor.

    The modulus is the least monic irreducible of degree k in the
    ascending coefficient enumeration, so runs are reproducible.  A k
    outside [1, ``limits.EXTENSION_DEGREE_CAP``] is a SpecError, and an
    extension of more than ``limits.ENUM_CAP`` elements a ScaleExceeded.
    """
    check_prime(p)
    if not 1 <= k <= EXTENSION_DEGREE_CAP:
        raise SpecError(f"extension degree {k} outside [1, {EXTENSION_DEGREE_CAP}]")
    return _PrimeField(p) if k == 1 else _flat_field(p, k)


@functools.lru_cache(maxsize=8)
def _flat_field(p, k):
    """The field of field_make(p, k), k >= 2; contexts are immutable, so
    the eight most recently made are shared instead of searched again.  A
    prime field costs nothing to make and is not kept here, so it never
    evicts an extension's tables.  A field of more than
    ``limits.ENUM_CAP`` elements is refused before any modulus is sought.
    """
    if p ** k > ENUM_CAP:
        raise ScaleExceeded(f"extension field of {p ** k} elements exceeds cap")
    return _TableField(p, tuple(_least_irreducible(p, k)))


def _least_irreducible(p, k):
    """The coefficients, ascending, of the least monic irreducible of
    degree k >= 2 over F_p: x^k + c_(k-1) x^(k-1) + ... + c_0 with
    c_0 + c_1 p + ... least.

    The first p candidates are the binomials x^k - a, a = -m.  One is
    irreducible exactly when a != 0, every prime r | k divides p - 1 with
    a^((p-1)/r) != 1, and p = 1 mod 4 if 4 | k (Lidl-Niederreiter,
    *Finite Fields*, Thm 3.75), so the Rabin test runs on no other: when
    gcd(k, p - 1) = 1 that skips a walk of p tests.
    """
    prime, primes = _PrimeField(p), list(factorize(k))
    for m in range(p ** k):
        a = -m % p
        if m < p and not (a and (k % 4 or p % 4 == 1)
                          and all((p - 1) % r == 0 and pow(a, (p - 1) // r, p) != 1
                                  for r in primes)):
            continue
        coeffs = [m // p ** i % p for i in range(k)] + [1]
        if _irreducible(Poly.from_ints(prime, coeffs)):
            return coeffs
    raise NoIrreducibleFound(f"no irreducible of degree {k} over F_{p}")


def ratfunc_field(p):
    check_prime(p)
    return _RatFuncField(p)


# -- root structure -----------------------------------------------------------------


def separable_radical(f: Poly) -> Poly:
    """Monic squarefree polynomial with the same closure roots as f.

    Squarefree levels over F_p (Geddes-Czapor-Labahn, *Algorithms for
    Computer Algebra*, 1992, Alg. 8.3; von zur Gathen-Gerhard, *Modern
    Computer Algebra*, ch. 14), one pass down and one fold up.  Down:
    c_0 = f, c_(i+1) = gcd(c_i, c_i'), w_i = c_i / c_(i+1); a level
    c_i = g(x^p), which is g^p over F_p, becomes g, its every p-th
    coefficient, which has its roots.  w_i holds once each factor of c_i
    whose multiplicity p does not divide, and c_(i+1) every other
    factor, so rad c_i = lcm(w_i, rad c_(i+1)).
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
            c = Poly(ctx, c.reps[::ctx.p])
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
