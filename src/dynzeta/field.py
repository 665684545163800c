"""Exact arithmetic over F_p, its extensions, and the function field F_p(u).

Representation conventions:

* A prime field F_p stores elements as ints in [0, p).
* Every extension F_(p^k) is built directly over F_p and also stores
  each element as one int: its ``elem_at`` index in [0, p^k), whose base-p digits are the element's
  coefficients in ascending powers of the adjoined root.  So ``rep`` is
  the index, ``from_int(n)`` is the constant n mod p, and ``index_of`` is
  the identity.  The modulus is a monic irreducible polynomial over F_p,
  chosen deterministically so every run of the library reproduces the
  same field.  The first arithmetic on a field with p^k at most
  ``limits.DEFAULT_ENUM_CAP`` builds exp/log/Zech tables to a primitive
  element (Huber, "Some comments on Zech's logarithms", IEEE Trans. IT,
  1990); products, sums, negations, inverses and powers are then table
  lookups.  Larger fields build no tables and compute on the digits.
  ``extend_field(ctx, b)`` on F_(p^a) returns the field of
  ``field_make(p, a*b)``, so equal fields share one set of tables.
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

Polynomials over any of these contexts are dense ascending coefficient
lists (class Poly).  Over a prime field the heavy operations are routed
through the int-list kernel in ``modpoly``.
"""

import itertools
import math
from array import array

import numpy as np

from . import modpoly
from .errors import (DivisionByZeroPoly, NoIrreducibleFound, ScaleExceeded,
                     SpecError, ZeroPolynomial)
from .intarith import check_prime, factorize
from .limits import DEFAULT_ENUM_CAP, EXTENSION_DEGREE_CAP, poly_degree_cap

_RF_GCD_DEGREE_CAP = 4096
# Flat-extension arithmetic (with its tables) kept per field signature;
# contexts are rebuilt per call, so the tables must outlive them.
_FLAT_OPS = {}
_FLAT_OPS_CAP = 8
# Index of the image of a subfield's adjoined root, per (subfield, field)
# signature pair; bounded like the tables.
_SUBFIELD_ROOTS = {}


class FieldCtx:
    """Immutable description of a field; shared freely between values."""

    __slots__ = ("p", "k", "flavor", "base", "modulus", "flat",
                 "_sig", "_order", "_ops")

    def __init__(self, p, k, flavor, base=None, modulus=None):
        self.p = p
        self.k = k
        self.flavor = flavor
        self.base = base
        self.modulus = modulus
        self.flat = base is not None
        self._ops = None
        if flavor == "ratfunc":
            self._sig = ("rf", p)
            self._order = None
        elif base is None:
            self._sig = ("fp", p)
            self._order = p
        else:
            self._sig = ("ext", base._sig, tuple(c.rep for c in modulus))
            self._order = base.order ** k

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._sig == other._sig

    def __hash__(self):
        return hash(self._sig)

    def __repr__(self):
        if self.flavor == "ratfunc":
            return f"F_{self.p}(u)"
        if self.base is None:
            return f"F_{self.p}"
        return f"F_{self.order}"

    # -- basic data -------------------------------------------------------

    @property
    def order(self):
        if self._order is None:
            raise SpecError("F_p(u) is infinite")
        return self._order

    @property
    def is_prime_field(self):
        return self.flavor == "finite" and self.base is None

    def zero(self):
        return self._make(self._zero_rep())

    def one(self):
        return self.from_int(1)

    def _zero_rep(self):
        if self.flavor == "ratfunc":
            return ((), ((0, 1),))
        return 0

    def _make(self, rep):
        return FieldElem(self, rep)

    def from_int(self, n):
        if self.flavor == "ratfunc":
            c = n % self.p
            num = ((0, c),) if c else ()
            return self._make((num, ((0, 1),)))
        return self._make(n % self.p)

    def elem(self, value):
        """Coerce an int, a base-element vector, or an element of this ctx."""
        if isinstance(value, FieldElem):
            if value.ctx != self:
                raise SpecError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, (list, tuple)) and self.flat:
            vec = [self.base.elem(v) for v in value]
            if len(vec) > self.k:
                raise SpecError("vector longer than extension degree")
            return self._make(sum(c.rep * self.p ** i for i, c in enumerate(vec)))
        raise SpecError(f"cannot coerce {value!r} into {self!r}")

    def u(self):
        """The transcendental generator of F_p(u)."""
        if self.flavor != "ratfunc":
            raise SpecError("u() only exists for the rational-function flavor")
        return self._make((((1, 1),), ((0, 1),)))

    # -- enumeration (finite flavor only) ----------------------------------

    def elements(self):
        for i in range(self.order):
            yield self.elem_at(i)

    def elem_at(self, index):
        return self._make(index % self.order)

    def index_of(self, elem):
        return elem.rep

    # -- discrete logarithms (flat extensions with tables) -------------------

    def log(self, z):
        """Discrete logarithm of nonzero z to the base of this field's tables.

        None where the field keeps no tables: prime fields, F_p(u) and
        extensions with more than ``limits.DEFAULT_ENUM_CAP``
        elements.
        """
        if not self.flat:
            return None
        log = (self._ops or self._arith()).log
        return None if log is None else log[z.rep]

    def exp(self, n):
        """The element whose ``log`` is n (fields with tables only)."""
        ops = self._ops or self._arith()
        return FieldElem(self, ops.exp[n % ops.qm1])

    def _arith(self):
        """Arithmetic of a flat extension, shared by equal contexts."""
        ops = _FLAT_OPS.get(self._sig)
        if ops is None:
            low = [c.rep for c in self.modulus[:-1]]
            kind = _TableOps if self._order <= DEFAULT_ENUM_CAP else _DigitOps
            ops = kind(self.p, self.k, low)
            if len(_FLAT_OPS) >= _FLAT_OPS_CAP:
                del _FLAT_OPS[next(iter(_FLAT_OPS))]
            _FLAT_OPS[self._sig] = ops
        self._ops = ops
        return ops


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
        if self.ctx.flavor == "ratfunc":
            return not self.rep[0]
        return self.rep == 0

    def is_one(self):
        if self.ctx.flavor == "ratfunc":
            return self == self.ctx.one()
        return self.rep == 1

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
        other = self._coerce(other)
        ctx = self.ctx
        if ctx.flat:
            return FieldElem(ctx, (ctx._ops or ctx._arith()).add(self.rep, other.rep))
        if ctx.flavor == "ratfunc":
            a_n, a_d = self.rep
            b_n, b_d = other.rep
            num = _sp_add(_sp_mul(a_n, b_d, ctx.p), _sp_mul(b_n, a_d, ctx.p), ctx.p)
            return ctx._make(_rf_normalize(num, _sp_mul(a_d, b_d, ctx.p), ctx.p))
        return ctx._make((self.rep + other.rep) % ctx.p)

    __radd__ = __add__

    def __neg__(self):
        ctx = self.ctx
        if ctx.flat:
            return FieldElem(ctx, (ctx._ops or ctx._arith()).neg(self.rep))
        if ctx.flavor == "ratfunc":
            num, den = self.rep
            return ctx._make((_sp_neg(num, ctx.p), den))
        return ctx._make(-self.rep % ctx.p)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        ctx = self.ctx
        if ctx.flat:
            return FieldElem(ctx, (ctx._ops or ctx._arith()).mul(self.rep, other.rep))
        if ctx.flavor == "ratfunc":
            a_n, a_d = self.rep
            b_n, b_d = other.rep
            num = _sp_mul(a_n, b_n, ctx.p)
            den = _sp_mul(a_d, b_d, ctx.p)
            return ctx._make(_rf_normalize(num, den, ctx.p))
        return ctx._make(self.rep * other.rep % ctx.p)

    __rmul__ = __mul__

    def inverse(self):
        ctx = self.ctx
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if ctx.flat:
            return FieldElem(ctx, (ctx._ops or ctx._arith()).inverse(self.rep))
        if ctx.flavor == "ratfunc":
            num, den = self.rep
            return ctx._make(_rf_normalize(den, num, ctx.p))
        return ctx._make(pow(self.rep, ctx.p - 2, ctx.p))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        ctx = self.ctx
        if ctx.flat:
            return FieldElem(ctx, (ctx._ops or ctx._arith()).pow(self.rep, e))
        if ctx.is_prime_field:
            return ctx._make(pow(self.rep, e, ctx.p))
        result = ctx.one()
        acc = self
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    # -- characteristic-p structure ------------------------------------------

    def frobenius(self, times=1):
        """Apply c -> c^p the given number of times."""
        ctx = self.ctx
        if ctx.flavor == "ratfunc":
            num, den = self.rep
            scale = ctx.p ** times
            num = tuple((e * scale, c) for e, c in num)
            den = tuple((e * scale, c) for e, c in den)
            return ctx._make((num, den))
        if ctx.is_prime_field:
            return self
        return self ** (ctx.p ** times)

    def pth_root(self):
        """Unique p-th root in a finite field (perfect field)."""
        ctx = self.ctx
        if ctx.flavor != "finite":
            raise SpecError("p-th roots only implemented for finite fields")
        return self ** (ctx.order // ctx.p)

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
        if max(num[-1][0], den[-1][0]) > _RF_GCD_DEGREE_CAP:
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


# -- flat extensions: elements are elem_at indices -----------------------------------


class _DigitOps:
    """Arithmetic of F_(p^k) on indices, through their base-p digits.

    ``low`` holds the modulus coefficients below x^k.  Exact for every p
    and k; used as is above the table limit and to build the tables.
    """

    log = None

    def __init__(self, p, k, low):
        self.p = p
        self.k = k
        self.low = low
        self.qm1 = p ** k - 1

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
        e %= self.qm1
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result


class _TableOps:
    """Arithmetic of F_(p^k) on indices by exp/log/Zech table lookups.

    With g a primitive element: exp[i] = g^i (stored twice over, so a sum
    of two logs needs no reduction), log[g^i] = i, and
    zech[n] = log(1 + g^n), or -1 where 1 + g^n = 0.
    """

    def __init__(self, p, k, low):
        self.qm1 = p ** k - 1
        self.exp, self.log, self.zech = _zech_tables(_DigitOps(p, k, low))
        self.minus_one = self.qm1 // 2 if p != 2 else 0  # log of -1

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self.log
        la = log[a]
        z = self.zech[(log[b] - la) % self.qm1]
        return 0 if z < 0 else self.exp[la + z]

    def neg(self, a):
        return self.exp[self.log[a] + self.minus_one] if a else 0

    def mul(self, a, b):
        if not a or not b:
            return 0
        log = self.log
        return self.exp[log[a] + log[b]]

    def inverse(self, a):
        return self.exp[self.qm1 - self.log[a]]

    def pow(self, a, e):
        if not a:
            return 0 if e else 1
        return self.exp[self.log[a] * e % self.qm1]


def _zech_tables(ops):
    """(exp, log, zech) of the least primitive index, as compact int arrays."""
    p, k, qm1 = ops.p, ops.k, ops.qm1
    primes = list(factorize(qm1))
    g = next(a for a in range(2, qm1 + 1)
             if all(ops.pow(a, qm1 // r) != 1 for r in primes))
    # g^0 .. g^(step-1) one product at a time; after that each block of
    # step powers is the previous one times g^step, a k x k matrix on
    # coefficient columns.
    step = math.isqrt(qm1) + 1
    block, a = [], 1
    for _ in range(step):
        block.append(ops.digits(a))
        a = ops.mul(a, g)
    cols = np.array(block, dtype=np.int64).T
    jump = np.array([ops.digits(ops.mul(a, p ** j)) for j in range(k)],
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
    root = _subfield_root(src, target)
    acc, n = target.zero(), elem.rep
    for i in range(src.k - 1, -1, -1):
        acc = acc * root + n // src.p ** i % src.p
    return acc


def _subfield_root(src, target):
    """Root in target of src's modulus: the first norm at which it vanishes."""
    key = (src._sig, target._sig)
    rep = _SUBFIELD_ROOTS.get(key)
    if rep is None:
        modulus = Poly.from_ints(target, [c.rep for c in src.modulus])
        e = (target.order - 1) // (src.order - 1)
        rep = next(z for z in (target.elem_at(i) ** e for i in itertools.count(2))
                   if modulus.eval(z).is_zero()).rep
        if len(_SUBFIELD_ROOTS) >= _FLAT_OPS_CAP:
            del _SUBFIELD_ROOTS[next(iter(_SUBFIELD_ROOTS))]
        _SUBFIELD_ROOTS[key] = rep
    return FieldElem(target, rep)


# -- polynomials -----------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over a FieldCtx (ascending, trimmed)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs

    @classmethod
    def from_elems(cls, ctx, elems):
        elems = list(elems)
        while elems and elems[-1].is_zero():
            elems.pop()
        return cls(ctx, tuple(elems))

    @classmethod
    def from_ints(cls, ctx, ints):
        return cls.from_elems(ctx, [ctx.from_int(c) for c in ints])

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls.from_ints(ctx, [1])

    @classmethod
    def x_power(cls, ctx, n, scale=1):
        return cls.from_ints(ctx, [0] * n + [scale])

    # -- views -------------------------------------------------------------

    @property
    def degree(self):
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("leading coefficient of zero")
        return self.coeffs[-1]

    def _ints(self):
        return [c.rep for c in self.coeffs]

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ctx == self.ctx
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ctx._sig, tuple(c.rep for c in self.coeffs)))

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        if self.ctx.is_prime_field:
            terms = [f"{c.rep}*x^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero()]
            return "Poly(" + " + ".join(terms) + f" over {self.ctx!r})"
        return f"Poly(deg {self.degree} over {self.ctx!r})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if self.ctx.is_prime_field:
            return Poly.from_ints(self.ctx, modpoly.add(self._ints(), other._ints(), self.ctx.p))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly.from_elems(self.ctx, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self.ctx.is_prime_field:
            return Poly.from_ints(self.ctx, modpoly.neg(self._ints(), self.ctx.p))
        return Poly.from_elems(self.ctx, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            other = Poly.from_elems(self.ctx, [other])
        self._check(other)
        if self.ctx.is_prime_field:
            return Poly.from_ints(self.ctx, modpoly.mul(self._ints(), other._ints(), self.ctx.p))
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        out = [self.ctx.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Poly.from_elems(self.ctx, out)

    def scale(self, elem):
        return self * Poly.from_elems(self.ctx, [elem])

    def __pow__(self, e):
        if e < 0:
            raise SpecError("negative polynomial powers are not defined")
        result = Poly.one(self.ctx)
        acc = self
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    def divrem(self, other):
        """Quotient and remainder with deg r < deg other."""
        self._check(other)
        if other.is_zero():
            raise DivisionByZeroPoly("polynomial division by zero")
        if self.ctx.is_prime_field:
            q, r = modpoly.divrem(self._ints(), other._ints(), self.ctx.p)
            return Poly.from_ints(self.ctx, q), Poly.from_ints(self.ctx, r)
        if self.degree < other.degree:
            return Poly.zero(self.ctx), self
        lead_inv = other.leading.inverse()
        rem = list(self.coeffs)
        lb = len(other.coeffs)
        q = [self.ctx.zero()] * (len(rem) - lb + 1)
        for i in range(len(rem) - lb, -1, -1):
            c = rem[i + lb - 1]
            if c.is_zero():
                continue
            c = c * lead_inv
            q[i] = c
            for j, b in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - c * b
        return Poly.from_elems(self.ctx, q), Poly.from_elems(self.ctx, rem[:lb - 1])

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def __mod__(self, other):
        return self.divrem(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        if self.leading.is_one():
            return self
        inv = self.leading.inverse()
        return Poly.from_elems(self.ctx, [c * inv for c in self.coeffs])

    def gcd(self, other):
        """Monic greatest common divisor."""
        self._check(other)
        if self.ctx.is_prime_field:
            return Poly.from_ints(self.ctx, modpoly.gcd(self._ints(), other._ints(), self.ctx.p))
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        if self.ctx.is_prime_field:
            return Poly.from_ints(self.ctx, modpoly.derivative(self._ints(), self.ctx.p))
        out = [self.ctx.from_int(i) * c for i, c in enumerate(self.coeffs)][1:]
        return Poly.from_elems(self.ctx, out)

    def eval(self, x):
        acc = self.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other):
        """Substitution self(other(x))."""
        self._check(other)
        acc = Poly.zero(self.ctx)
        for c in reversed(self.coeffs):
            acc = acc * other + Poly.from_elems(self.ctx, [c])
        return acc

    def pow_mod(self, e, modulus):
        if self.ctx.is_prime_field:
            out = modpoly.pow_mod(self._ints(), e, modulus._ints(), self.ctx.p)
            return Poly.from_ints(self.ctx, out)
        result = Poly.one(self.ctx)
        acc = self % modulus
        while e:
            if e & 1:
                result = (result * acc) % modulus
            acc = (acc * acc) % modulus
            e >>= 1
        return result

    def shift(self, n):
        """Multiply by x^n."""
        if self.is_zero():
            return self
        return Poly(self.ctx, (self.ctx.zero(),) * n + self.coeffs)

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
    return _flat_field(p, k, seed)


def extend_field(ctx, degree):
    """Degree-`degree` extension of a finite context, built flat over F_p.

    Over F_(p^a) this is the field of ``field_make(p, a*degree)``, so
    equal contexts share their tables; elements of ctx reach it through
    ``embed``.  The degree cap bounds `degree`, not a*degree; callers that
    enumerate the field bound its size through ``enum_cap()``.
    """
    if ctx.flavor != "finite":
        raise SpecError("can only extend finite fields")
    if degree == 1:
        return ctx
    _check_degree(degree)
    return _flat_field(ctx.p, ctx.k * degree)


def _check_degree(k):
    if not 1 <= k <= EXTENSION_DEGREE_CAP:
        raise SpecError(f"extension degree {k} outside [1, {EXTENSION_DEGREE_CAP}]")


def _flat_field(p, k, seed=None):
    prime = FieldCtx(p, 1, "finite")
    if k == 1:
        return prime
    skip = seed or 0
    for m in range(p ** k):
        coeffs = []
        mm = m
        for _ in range(k):
            coeffs.append(mm % p)
            mm //= p
        coeffs.append(1)
        if _irreducible_int(coeffs, p):
            if skip == 0:
                modulus = tuple(prime.from_int(c) for c in coeffs)
                return FieldCtx(p, k, "finite", base=prime, modulus=modulus)
            skip -= 1
    raise NoIrreducibleFound(f"no irreducible of degree {k} over F_{p}")


def ratfunc_field(p):
    check_prime(p)
    return FieldCtx(p, 1, "ratfunc")


# -- root structure -----------------------------------------------------------------


def separable_radical(f: Poly) -> Poly:
    """Monic squarefree polynomial with the same closure roots as f.

    Handles vanishing derivatives by taking coefficientwise p-th roots of
    f = g(x^p) and recursing; valid because finite fields are perfect.
    """
    if f.is_zero():
        raise ZeroPolynomial("radical of zero polynomial")
    ctx = f.ctx
    if ctx.flavor != "finite":
        raise SpecError("separable radical needs a finite coefficient field")
    if ctx.is_prime_field:
        rad = modpoly.separable_radical(f._ints(), ctx.p)
        return Poly.from_ints(ctx, rad)
    return _radical_generic(f.monic())


def _radical_generic(f):
    ctx = f.ctx
    if f.degree <= 0:
        return Poly.one(ctx)
    fp = f.derivative()
    if fp.is_zero():
        g = Poly.from_elems(ctx, [f.coeffs[i].pth_root()
                                  for i in range(0, len(f.coeffs), ctx.p)])
        return _radical_generic(g.monic())
    d = f.gcd(fp)
    if d.degree == 0:
        return f
    w = (f // d).monic()
    r = f
    g = r.gcd(w)
    while g.degree > 0:
        r = r // g
        g = r.gcd(w)
    if r.degree == 0:
        return w
    return (w * _radical_generic(r.monic())).monic()


def distinct_root_count(f: Poly) -> int:
    """Number of distinct roots of f in the algebraic closure."""
    return separable_radical(f).degree


def check_poly_scale(degree):
    cap = poly_degree_cap()
    if degree > cap:
        raise ScaleExceeded(f"polynomial degree {degree} exceeds cap {cap}")
