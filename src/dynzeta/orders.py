"""Valuations in the endomorphism rings that control inseparable degrees.

Three kinds of ring are covered:

* rational integers with the p-adic valuation and its exponent-lifting
  identity v_p(x^n - y^n) = v_p(x - y) + v_p(n);
* quadratic orders Z[tau] with tau^2 = T*tau - N and T^2 <= 4N.  At
  T^2 = 4N the ring is Z[eps] with eps = tau - T/2 and eps^2 = 0; its norm
  (a + b*T/2)^2 is still multiplicative, which is all an integer
  multiplier given by (trace, norm) needs.  In the imaginary case the
  prime frak_p above p attached to inseparable isogenies is named by a
  simple unit root u of x^2 - T x + N mod p: its conjugate is (p, tau - u),
  and frak_p is (p, tau - (T - u)).  A simple root means p does not divide
  T^2 - 4N, so Z[tau] (x) Z_p is Z_p x Z_p and an element that p does not
  divide lies in at most one of the two primes.  So with x = p^c x',
  where p divides neither coordinate of x', v_frak(x) is c when
  a' + b' u = 0 mod p (x' lies in the conjugate prime) and
  v_p(norm(x)) - c otherwise; no p-adic lift is needed.  Which unit root
  is "the" one is an orientation choice the caller may pin; the default
  takes the least.  A double root (T^2 = 4N mod p) has no orientation and
  is refused.
* the two explicit maximal quaternion orders that occur at p = 2 and
  p = 3: Hurwitz integers in (-1,-1 | Q), and the order with basis
  1, i, (1+j)/2, (i+k)/2 in (-1,-3 | Q).  Elements are stored by doubled
  coordinates, so (a + b i + c j + d k)/2 with the lattice parity
  constraints checked at construction.  On these orders the valuation at
  the unique two-sided maximal ideal above p is v_p of the reduced norm,
  and the exponent lift doubles: v(x^n - y^n) = v(x - y) + 2 v_p(n).
"""

from dataclasses import dataclass
from itertools import product

from . import modpoly
from .errors import (HypothesisViolated, InvalidCombination, Mismatch,
                     SpecError, ZeroInput)
from .field import field_make
from .intarith import check_prime, power, v_p, v_p_strict

_DIRECT_CHECK_N_CAP = 32


def _exponent_lift(x, y, n, p, valuation, e, ring):
    """v(x^n - y^n) = v(x - y) + e * v_p(n), where e = v(p).

    Needs x, y units at the prime, x != y and v(x - y) > e / (p - 1);
    cross-checked against the direct valuation for n <= 32.
    """
    if valuation(x) != 0 or valuation(y) != 0:
        raise HypothesisViolated("x, y must be units at the prime")
    if x == y:
        raise HypothesisViolated("x == y makes the identity vacuous")
    base = valuation(x - y)
    guard = e // (p - 1) + 1
    if base < guard:
        raise HypothesisViolated(f"p = {p} requires valuation >= {guard} of x - y")
    value = base + e * v_p(n, p)
    if n <= _DIRECT_CHECK_N_CAP:
        direct = valuation(x ** n - y ** n)
        if direct != value:
            raise Mismatch(f"{ring} exponent lift: {value} != direct {direct}")
    return value


# -- rational integers -----------------------------------------------------------


def lte_int(x: int, y: int, p: int, n: int) -> int:
    """v_p(x^n - y^n) = v_p(x - y) + v_p(n) under the classical hypotheses."""
    if x % p == 0 or y % p == 0:
        raise HypothesisViolated("x and y must be units mod p")
    return _exponent_lift(x, y, n, p, lambda z: v_p_strict(z, p), 1, "integer")


# -- imaginary quadratic orders -----------------------------------------------------


@dataclass(frozen=True)
class QuadRing:
    """Z[tau] with tau^2 = trace*tau - norm and discriminant <= 0."""

    trace: int
    norm: int

    def __post_init__(self):
        if self.disc > 0:
            raise SpecError("ring is not imaginary quadratic")

    @property
    def disc(self):
        return self.trace ** 2 - 4 * self.norm

    def elem(self, a, b=0):
        return QuadElem(self, a, b)

    def one(self):
        return QuadElem(self, 1, 0)

    def zero(self):
        return QuadElem(self, 0, 0)


@dataclass(frozen=True)
class QuadElem:
    """a + b*tau in a QuadRing; exact big-integer coordinates."""

    ring: QuadRing
    a: int
    b: int

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __add__(self, other):
        other = self._coerce(other)
        return QuadElem(self.ring, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        other = self._coerce(other)
        return QuadElem(self.ring, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return QuadElem(self.ring, -self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        T, N = self.ring.trace, self.ring.norm
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QuadElem(self.ring,
                        a1 * a2 - b1 * b2 * N,
                        a1 * b2 + b1 * a2 + b1 * b2 * T)

    def __pow__(self, n):
        if n < 0:
            raise SpecError("negative powers not defined in the order")
        return power(QuadElem.__mul__, self.ring.one(), self, n)

    def conj(self):
        return QuadElem(self.ring, self.a + self.b * self.ring.trace, -self.b)

    def norm(self) -> int:
        T, N = self.ring.trace, self.ring.norm
        return self.a ** 2 + self.a * self.b * T + self.b ** 2 * N

    def trace(self) -> int:
        return 2 * self.a + self.b * self.ring.trace

    def _coerce(self, other):
        if isinstance(other, int):
            return QuadElem(self.ring, other, 0)
        if not isinstance(other, QuadElem) or other.ring != self.ring:
            raise SpecError("mixed quadratic rings")
        return other


@dataclass(frozen=True)
class PrimeContext:
    """The split prime (p, tau - (T - unit_root)) of a quadratic ring; its
    conjugate is (p, tau - unit_root)."""

    ring: QuadRing
    p: int
    unit_root: int       # simple unit root of x^2 - T x + N, in [0, p)


def _quadratic_roots_mod_p(T, N, p):
    if p == 2:
        return [r for r in range(2) if (r * r - T * r + N) % 2 == 0]
    disc = field_make(p).from_int(T * T - 4 * N)
    if not disc.is_square():
        return []
    s, inv2 = disc.sqrt().rep, pow(2, p - 2, p)
    return sorted({(T + s) * inv2 % p, (T - s) * inv2 % p})


def prime_context(ring: QuadRing, p: int, *,
                  unit_root: int | None = None) -> PrimeContext:
    """Build the split-prime context from a simple unit root mod p.

    Requires x^2 - T x + N to have a simple unit root mod p.  When both
    roots are units the orientation is ambiguous; pass unit_root to pin it,
    otherwise the numerically smaller root is chosen.
    """
    check_prime(p)
    roots = _quadratic_roots_mod_p(ring.trace, ring.norm, p)
    simple_units = [r for r in roots
                    if r % p != 0 and (2 * r - ring.trace) % p != 0]
    if not simple_units:
        raise InvalidCombination(
            f"x^2 - {ring.trace}x + {ring.norm} has no simple unit root mod {p}")
    if unit_root is None:
        return PrimeContext(ring, p, min(simple_units))
    if unit_root % p not in simple_units:
        raise InvalidCombination(f"{unit_root} is not a simple unit root mod {p}")
    return PrimeContext(ring, p, unit_root % p)


def v_frak_p(x: QuadElem, ctx: PrimeContext, norm=None) -> int:
    """Valuation at the oriented split prime.

    With x = p^c x', where p divides neither coordinate of x', this is c
    when x' lies in the conjugate prime (a' + b' u = 0 mod p) and
    v_p(norm(x)) - c otherwise.  A caller that already holds x.norm()
    passes it as norm; only the second case reads it.
    """
    if x.ring != ctx.ring:
        raise SpecError("element outside the context ring")
    if x.is_zero():
        raise ZeroInput("valuation of zero")
    p, a, b = ctx.p, x.a, x.b
    c = 0
    while a % p == 0 and b % p == 0:
        a, b, c = a // p, b // p, c + 1
    if (a + b * ctx.unit_root) % p == 0:
        return c
    return v_p_strict(x.norm() if norm is None else norm, p) - c


def lte_quad(x: QuadElem, y: QuadElem, ctx: PrimeContext, n: int) -> int:
    """Exponent lift at a split prime: v(x^n - y^n) = v(x - y) + v_p(n)."""
    return _exponent_lift(x, y, n, ctx.p, lambda z: v_frak_p(z, ctx), 1,
                          "quadratic")


# -- quaternion orders ----------------------------------------------------------------


@dataclass(frozen=True)
class QuatOrder:
    """One of the two hardcoded maximal orders, tagged by its prime."""

    p: int        # 2 for the Hurwitz order, 3 for the (-1,-3) order
    alpha: int    # i^2
    beta: int     # j^2

    def elem(self, a, b=0, c=0, d=0):
        """Element a + b i + c j + d k (stored doubled)."""
        return QuatElem(self, 2 * a, 2 * b, 2 * c, 2 * d)

    def one(self):
        return self.elem(1, 0, 0, 0)

    def contains(self, a, b, c, d):
        """Whether doubled coordinates (a, b, c, d) lie in the order."""
        if self.p == 2:
            # Hurwitz lattice: all four halves share one parity.
            return len({a % 2, b % 2, c % 2, d % 2}) == 1
        # basis 1, i, (1+j)/2, (i+k)/2
        return (a - c) % 2 == 0 and (b - d) % 2 == 0


HURWITZ = QuatOrder(2, -1, -1)
B3_ORDER = QuatOrder(3, -1, -3)


@dataclass(frozen=True)
class QuatElem:
    """(a + b i + c j + d k)/2 by doubled integer coordinates."""

    order: QuatOrder
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if not self.order.contains(self.a, self.b, self.c, self.d):
            raise SpecError(f"coordinates outside the p={self.order.p} order lattice")

    def is_zero(self):
        return self.a == self.b == self.c == self.d == 0

    def __add__(self, other):
        other = self._coerce(other)
        return QuatElem(self.order, self.a + other.a, self.b + other.b,
                        self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        other = self._coerce(other)
        return QuatElem(self.order, self.a - other.a, self.b - other.b,
                        self.c - other.c, self.d - other.d)

    def __neg__(self):
        return QuatElem(self.order, -self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        other = self._coerce(other)
        al, be = self.order.alpha, self.order.beta
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        e = a1 * a2 + al * b1 * b2 + be * c1 * c2 - al * be * d1 * d2
        f = a1 * b2 + b1 * a2 - be * (c1 * d2 - d1 * c2)
        g = a1 * c2 + c1 * a2 + al * (b1 * d2 - d1 * b2)
        h = a1 * d2 + d1 * a2 + b1 * c2 - c1 * b2
        for v in (e, f, g, h):
            if v % 2:
                raise SpecError("product left the order lattice (internal)")
        return QuatElem(self.order, e // 2, f // 2, g // 2, h // 2)

    def __pow__(self, n):
        if n < 0:
            raise SpecError("negative powers not defined in the order")
        return power(QuatElem.__mul__, self.order.one(), self, n)

    def conj(self):
        return QuatElem(self.order, self.a, -self.b, -self.c, -self.d)

    def norm(self) -> int:
        """Reduced norm."""
        al, be = self.order.alpha, self.order.beta
        val = (self.a ** 2 - al * self.b ** 2 - be * self.c ** 2
               + al * be * self.d ** 2)
        if val % 4:
            raise SpecError("norm not integral (internal)")
        return val // 4

    def trace(self) -> int:
        """Reduced trace."""
        return self.a

    def _coerce(self, other):
        if isinstance(other, int):
            return QuatElem(self.order, 2 * other, 0, 0, 0)
        if not isinstance(other, QuatElem) or other.order != self.order:
            raise SpecError("mixed quaternion orders")
        return other


def v_I(x: QuatElem, p: int | None = None) -> int:
    """Valuation at the two-sided maximal ideal above p: v_p(reduced norm)."""
    if x.is_zero():
        raise ZeroInput("valuation of zero")
    if p is not None and p != x.order.p:
        raise SpecError(f"order belongs to p = {x.order.p}, not {p}")
    return v_p_strict(x.norm(), x.order.p)


def lte_quat(x: QuatElem, y: QuatElem, n: int) -> int:
    """Quaternionic exponent lift: v(x^n - y^n) = v(x - y) + 2*v_p(n).

    The inputs must commute: the geometric-sum and binomial expansions
    behind the identity need xy = yx, and noncommuting pairs satisfying
    the valuation hypotheses genuinely break it (e.g. in the p = 3 order,
    x = (3+2i-3j+2k)/2 and y = (-4i+6j-10k)/2 have v(x-y) = 2 but
    v(x^3 - y^3) = 3, not 4).  Every intended use compares a power of one
    element against a central root of unity, which always commutes.
    """
    if x.order != y.order:
        raise SpecError("mixed quaternion orders")
    if not (x * y - y * x).is_zero():
        raise HypothesisViolated("x and y must commute")
    return _exponent_lift(x, y, n, x.order.p, v_I, 2, "quaternion")


# -- unit groups ----------------------------------------------------------------------------


def units(order):
    """The norm-1 elements of a definite order (QuadRing or QuatOrder).

    The norm is a positive definite form in the doubled coordinates: 4
    norm(a + b tau) = (2a + bT)^2 + b^2 (4N - T^2), and four times the
    reduced norm of a quaternion is a sum of its doubled coordinates'
    squares with positive weights.  So every unit has each of those
    coordinates in [-2, 2].
    """
    span = range(-2, 3)
    if isinstance(order, QuatOrder):
        found = (QuatElem(order, *co) for co in product(span, repeat=4)
                 if order.contains(*co))
    elif order.disc < 0:
        found = (order.elem((t - b * order.trace) // 2, b)
                 for t in span for b in span if (t - b * order.trace) % 2 == 0)
    else:
        raise SpecError("a degenerate quadratic ring has infinitely many units")
    return [u for u in found if u.norm() == 1]


# -- norm sequences and their recurrence ---------------------------------------------------


@dataclass(frozen=True)
class NormSequenceReport:
    terms: tuple          # norm(sigma^n - gamma) mod ell, n = 0, 1, ...
    ell: int
    char_poly: tuple      # monic degree-4 recurrence polynomial mod ell
    least_period: int
    preperiod: int
    bound_exponent: int   # least A <= 4 with period | (ell-1)(ell^2-1)ell^A


def norm_sequence(sigma, gamma, ell: int, length: int) -> NormSequenceReport:
    """norm(sigma^n - gamma) mod ell, computed two independent ways.

    The direct route powers sigma modulo ell O, O the ring of sigma; the
    second route runs the order-4 linear recurrence with characteristic
    polynomial (x-1)(x-N)(x^2-Tx+N) mod ell.  Any disagreement raises
    Mismatch, as does a least period that fails to divide
    (ell-1)(ell^2-1)ell^A for every A <= 4.

    The norm mod ell sees only x mod ell O, since N(x + ell y) =
    N(x) + ell Tr(x conj(y)) + ell^2 N(y) with an integral trace.  So the
    direct route keeps each power with coordinates reduced mod ell
    (_mod_ell), and its products stay small however large sigma is.
    """
    check_prime(ell)
    if length < 8:
        raise SpecError("need at least 8 terms")
    char, rec = _norm_recurrence(sigma.trace(), sigma.norm(), ell)

    direct = []
    step = _mod_ell(sigma, ell)
    power = sigma ** 0
    for _ in range(length):
        direct.append((power - gamma).norm() % ell)
        power = _mod_ell(power * step, ell)
    seq = list(direct[:4])
    for i in range(4, len(direct)):
        nxt = (rec[3] * seq[i - 1] + rec[2] * seq[i - 2]
               + rec[1] * seq[i - 3] + rec[0] * seq[i - 4]) % ell
        seq.append(nxt)
        if nxt != direct[i]:
            raise Mismatch(f"norm recurrence disagrees at index {i}")

    preperiod, period = _state_cycle(seq[:4], rec, ell)
    bound_a = None
    base = (ell - 1) * (ell * ell - 1)
    for a in range(5):
        if (base * ell ** a) % period == 0:
            bound_a = a
            break
    if bound_a is None:
        raise Mismatch(f"least period {period} violates the recurrence bound")
    return NormSequenceReport(tuple(direct[:length]), ell, tuple(char),
                              period, preperiod, bound_a)


def _mod_ell(x, ell):
    """An element congruent to x mod ell O: a + b tau with a, b mod ell, or
    a quaternion with its doubled coordinates mod 4 ell, which moves it by
    2 ell times a quaternion with integer coordinates, inside ell O, and
    keeps the parities that place it in its order."""
    if isinstance(x, QuatElem):
        m = 4 * ell
        return QuatElem(x.order, x.a % m, x.b % m, x.c % m, x.d % m)
    return QuadElem(x.ring, x.a % ell, x.b % ell)


def _norm_recurrence(T, N, ell):
    """(char, rec) for norm(sigma^n - gamma) mod ell, sigma of trace T, norm N.

    char lists the coefficients of (x-1)(x-N)(x^2-Tx+N) mod ell in
    ascending order; the sequence satisfies
    a_n = rec[3] a_(n-1) + rec[2] a_(n-2) + rec[1] a_(n-3) + rec[0] a_(n-4).
    """
    char = modpoly.mul(modpoly.residues([N, -(1 + N), 1], ell),
                       modpoly.residues([N, -T, 1], ell), ell).tolist()
    return char, [(-c) % ell for c in char[:4]]


def _state_cycle(state0, rec, ell):
    """Preperiod and least period of the order-4 recurrence orbit."""
    seen = {}
    state = tuple(state0)
    idx = 0
    while state not in seen:
        seen[state] = idx
        nxt = (rec[3] * state[3] + rec[2] * state[2]
               + rec[1] * state[1] + rec[0] * state[0]) % ell
        state = (state[1], state[2], state[3], nxt)
        idx += 1
    first = seen[state]
    return first, idx - first
