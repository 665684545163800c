"""Dynamically affine map families and their closed-form periodic counts.

Each family is a finite quotient of x -> sigma x on the multiplicative
group, the additive group or an elliptic curve by a finite group Gamma, and
its class states the quotient data once: ``name`` (the CLI tag), ``sigma``,
Gamma (``gammas``, its elements, or ``d`` for mu_d on G_a),
``boundary(n)``, ``degree``, and ``size(x)`` and ``valuation(x)``, the
degree of an endomorphism x and the p-power exponent of its inseparable
part.  Every family is counted by

    #Per_n = boundary(n) + (1/|Gamma|) * sum over gamma of #ker(sigma^n - gamma)

with #ker x = size(x) / p^valuation(x): |x| and v_p(x) for integer
multipliers, deg x and v_phi(x) (in closed form, no power formed) for
additive maps, and for ring multipliers of elliptic curves the norm with the
valuation at the split prime (ordinary) or v_p of the reduced norm
(supersingular).  An inseparable map is counted so too: no count reads
``degree``, which a rational verdict's closed form reads.  On G_a every
term of the sum but the one at gamma = c0^n, c0 the F^0 coefficient of
sigma, is deg(sigma)^n, so the sum reads one valuation and mu_d is never
listed.

boundary(n) counts the period-n points outside the group: a positive power
map fixes 0 and infinity (2), a negative one swaps them (2 for even n, 0
for odd n), the other quotients of G_m and G_a fix only infinity (1), and
elliptic quotients cover the whole projective line (0).

For an integer multiplier of an elliptic curve with End = Z the kernel
size is the norm form (s^n - gamma)^2 / p^(v_p(s^n - gamma)), which the
acceptance suite's torsion-enumeration oracle confirms.

Counts come in runs along a progression n = first, first + step, ...
(``per_n_counts``; ``per_n_closed`` is a run's first term): each term
moves the power of sigma that the last one read forward by one product
with sigma^step, so no term forms sigma^n from scratch; an additive map
forms no power at all.  A ring multiplier also moves N(sigma)^n forward,
and reads each norm as
N(sigma^n - gamma) = N(sigma)^n - Tr(sigma^n conj(gamma)) + N(gamma);
an integer multiplier of an elliptic curve likewise moves s^(2n) forward
and reads (s^n - gamma)^2 as s^(2n) - 2 gamma s^n + gamma^2.
"""

import math
from dataclasses import InitVar, dataclass, field as dc_field
from functools import partial
from itertools import count

import numpy as np

from .errors import (InvalidCombination, NonIntegerOrbitCount, NotRealizable,
                     SpecError, SubadditiveConditionViolated)
from .field import Poly, check_poly_scale, field_make
from .dynmap import RatMap, poly_map, rat_map
from .intarith import check_prime, v_p
from .orders import (PrimeContext, QuadElem, QuadRing, QuatElem, units,
                     v_frak_p)
from .twisted import TwistedPoly, realize_additive, v_phi, v_phi_pow_minus

class _Quotient:
    """Kernel sizes #ker x = size(x) / p^valuation(x) of x = sigma^n - gamma;
    by default for an integer sigma: |x|, v_p(x) and degree |sigma|.

    A run of counts holds sigma^n as a ``_power`` and moves it forward by
    ``_advance`` with the power of the step; ``_kernel`` reads
    #ker(sigma^n - gamma) off it."""

    def counts(self, first: int, step: int):
        """#Per_n for n = first, first + step, ...: one product per term,
        with sigma^step formed when the second term is read."""
        n, stride = first, None
        power = self._power(self.sigma ** first, first)
        while True:
            yield per_n_template(self.boundary(n), self.gammas,
                                 partial(self._kernel, power), n)
            if stride is None:
                stride = self._power(self.sigma ** step, step)
            power, n = self._advance(power, stride), n + step

    def _power(self, sigma_n, _n):
        return sigma_n

    def _advance(self, power, stride):
        return power * stride

    def _kernel(self, power, gamma, _n) -> int:
        x = power - gamma
        return self.size(x) // self.p ** self.valuation(x)

    def size(self, x) -> int:
        return abs(x)

    def valuation(self, x) -> int:
        return v_p(x, self.p)

    @property
    def degree(self) -> int:
        return abs(self.sigma)


@dataclass(frozen=True)
class PowerMap(_Quotient):
    p: int
    d: int
    name = "power"
    gammas = (1,)
    sigma = property(lambda self: self.d)

    def __post_init__(self):
        check_prime(self.p)
        if abs(self.d) < 2:
            raise SpecError("power maps need |d| >= 2")

    def boundary(self, n: int) -> int:
        return 2 if self.d > 0 or n % 2 == 0 else 0


@dataclass(frozen=True)
class ChebyshevMap(_Quotient):
    p: int
    d: int
    name = "chebyshev"
    gammas = (1, -1)
    sigma = property(lambda self: self.d)

    def __post_init__(self):
        check_prime(self.p)
        if self.d < 2:
            raise SpecError("Chebyshev maps need d >= 2")

    def boundary(self, n: int) -> int:
        return 1


class _AdditiveQuotient:
    """x -> sigma x on G_a, quotient by mu_d (d = 1 for an additive map)."""

    def counts(self, first: int, step: int):
        """#Per_n = 1 + ((d - delta) p^(top n) + delta p^(top n - v)) / d
        for n = first, first + step, ...  The F^0 coefficient of
        sigma^n - w is c0^n - w, so v_phi(sigma^n - w) = 0 for every w in
        mu_d but c0^n, which is in mu_d (delta = 1) exactly when
        c0^(nd) = 1, and never for a non-constant c0 of F_p(u); then
        v = v_phi(sigma^n - c0^n), read off sigma by v_phi_pow_minus."""
        sigma, d = self.sigma, self.d
        p, top, c0 = sigma.ctx.p, sigma.top_index, sigma.constant_coeff()
        for n in count(first, step):
            full = p ** (top * n)
            total = d * full
            if c0.is_constant() and (c0 ** (n * d)).is_one():
                v = v_phi_pow_minus(sigma, n, c0 ** n)
                total += full // p ** v - full
            yield _orbit_count(self.boundary(n), total, d)

    def boundary(self, n: int) -> int:
        return 1

    def _check_sigma(self):
        """Refuse a sigma of degree below p.  Its coefficients are in F_p
        or F_p(u), as every TwistedPoly's are."""
        if self.sigma.is_zero() or self.sigma.top_index < 1:
            raise SpecError(f"{self.name} maps need degree at least p")

    @property
    def degree(self) -> int:
        return self.sigma.map_degree()

    def valuation(self, x):
        return v_phi(x)

    @property
    def p(self):
        return self.sigma.ctx.p


@dataclass(frozen=True)
class AdditiveMap(_AdditiveQuotient):
    sigma: TwistedPoly
    translation: object = None
    name = "additive"
    d = 1

    def __post_init__(self):
        self._check_sigma()
        if self.translation is None:
            object.__setattr__(self, "translation", self.sigma.ctx.zero())


@dataclass(frozen=True)
class SubadditiveMap(_AdditiveQuotient):
    sigma: TwistedPoly
    d: int
    name = "subadditive"

    def __post_init__(self):
        if self.d < 2:
            raise SpecError("subadditive quotient needs d >= 2")
        p = self.sigma.ctx.p
        if math.gcd(p, self.d) != 1:
            raise SpecError("quotient order must be prime to p")
        self._check_sigma()
        for i, c in enumerate(self.sigma.coeffs):
            if not c.is_zero() and (p ** i - 1) % self.d != 0:
                raise SubadditiveConditionViolated(
                    "every monomial degree of the additive map must be 1 mod d")


class _DegreePowers(_Quotient):
    """A run that moves size(sigma)^n = size(sigma^n) forward beside
    sigma^n, so that a kernel size reads size(sigma^n - gamma) off the
    two without squaring sigma^n."""

    def _power(self, sigma_n, n):
        return sigma_n, self.size(self.sigma) ** n

    def _advance(self, power, stride):
        return power[0] * stride[0], power[1] * stride[1]


@dataclass(frozen=True)
class LattesGenericJ(_DegreePowers):
    """Integer multiplier on a curve with End = Z; quotient by negation."""

    p: int
    s: int
    name = "lattes-generic"
    gammas = (1, -1)
    sigma = property(lambda self: self.s)

    def __post_init__(self):
        check_prime(self.p)
        if abs(self.s) < 2:
            raise SpecError("multiplier needs |s| >= 2")

    @property
    def degree(self) -> int:
        return self.s * self.s

    def size(self, x) -> int:
        return x * x

    def _kernel(self, power, gamma, _n) -> int:
        # (s^n - gamma)^2 = s^(2n) - 2 gamma s^n + gamma^2: s^n is not squared
        s_n, square_n = power
        return ((square_n - 2 * gamma * s_n + gamma * gamma)
                // self.p ** self.valuation(s_n - gamma))

    def boundary(self, n: int) -> int:
        return 0


class _RingMultiplier(_DegreePowers):
    """x -> sigma x for sigma in an imaginary quadratic or quaternion
    order: the degree of an endomorphism is its (reduced) norm, which
    the valuation reads too (norm_valuation)."""

    def size(self, x) -> int:
        return x.norm()

    def valuation(self, x) -> int:
        return self.norm_valuation(x, x.norm())

    def _kernel(self, power, gamma, _n) -> int:
        # N(sigma^n - gamma) = N(sigma)^n - Tr(sigma^n conj(gamma)) + N(gamma):
        # no coordinate of sigma^n is squared
        sigma_n, norm_n = power
        norm = norm_n - (sigma_n * gamma.conj()).trace() + gamma.norm()
        return norm // self.p ** self.norm_valuation(sigma_n - gamma, norm)

    @property
    def degree(self) -> int:
        return self.sigma.norm()

    def boundary(self, n: int) -> int:
        return 0


@dataclass(frozen=True)
class LattesOrdinary(_RingMultiplier):
    prime_ctx: PrimeContext
    sigma: QuadElem
    gamma_order: int
    gammas: tuple = dc_field(init=False)
    name = "lattes-ordinary"

    def __post_init__(self):
        if self.sigma.ring != self.prime_ctx.ring:
            raise SpecError("multiplier outside the context ring")
        if self.sigma.norm() < 2:
            raise SpecError("affine morphisms have degree >= 2")
        k = self.gamma_order
        one = self.sigma.ring.one()
        gammas = tuple(u for u in units(self.sigma.ring) if u ** k == one)
        if k not in (2, 3, 4, 6) or len(gammas) != k:
            raise InvalidCombination(
                f"no cyclic automorphism group of order {k} in this ring")
        if self.prime_ctx.p in (2, 3) and k != 2:
            raise InvalidCombination("only the order-2 group exists for p in {2, 3}")
        object.__setattr__(self, "gammas", gammas)

    @property
    def p(self):
        return self.prime_ctx.p

    def norm_valuation(self, x, norm) -> int:
        """The p-power exponent of #ker x: v at the oriented split prime."""
        return v_frak_p(x, self.prime_ctx, norm)


@dataclass(frozen=True)
class LattesSupersingular(_RingMultiplier):
    """Supersingular quotient E/Gamma.  sigma is given by (trace, norm) for
    p >= 5, and stored as tau in QuadRing(trace, norm); for p in {2, 3}
    (j = 0) it is a quaternion of the explicit maximal order."""

    p: int
    sigma_trace: InitVar[int | None] = None
    sigma_norm: InitVar[int | None] = None
    sigma_quat: InitVar[QuatElem | None] = None
    gamma: str = "mu2"   # "mu2" or "units"
    sigma: QuadElem | QuatElem = dc_field(init=False)
    gammas: tuple = dc_field(init=False)
    name = "lattes-supersingular"

    def __post_init__(self, sigma_trace, sigma_norm, sigma_quat):
        check_prime(self.p)
        if self.p in (2, 3):
            if sigma_quat is None:
                raise SpecError("p in {2, 3} needs explicit quaternion coordinates")
            if sigma_quat.order.p != self.p:
                raise SpecError("quaternion order belongs to a different prime")
            sigma = sigma_quat
        elif sigma_trace is None or sigma_norm is None:
            raise SpecError("p >= 5 supersingular multipliers are (trace, norm) pairs")
        elif sigma_trace ** 2 > 4 * sigma_norm:
            raise InvalidCombination(
                "no endomorphism has trace^2 > 4 * norm (the degree form "
                "is positive definite)")
        else:
            sigma = QuadRing(sigma_trace, sigma_norm).elem(0, 1)
        if sigma.norm() < 2:
            raise SpecError("affine morphisms have degree >= 2")
        one = sigma ** 0
        if self.gamma == "mu2":
            gammas = (one, -one)
        elif self.gamma == "units" and isinstance(sigma, QuatElem):
            gammas = tuple(units(sigma.order))
            # E/Gamma carries sigma only if sigma Gamma = Gamma sigma.
            if {sigma * g for g in gammas} != {g * sigma for g in gammas}:
                raise InvalidCombination(
                    "the multiplier does not normalise the unit group, so "
                    "the quotient by it has no induced map")
        else:
            # (trace, norm) data fixes no unit group beyond -1
            raise InvalidCombination(
                f"gamma group {self.gamma!r} is not available for this multiplier")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "gammas", gammas)

    def norm_valuation(self, x, norm) -> int:
        """The p-power exponent of #ker x: v_p of the reduced norm."""
        return v_p(norm, self.p)


# -- the counting template -------------------------------------------------------------


def per_n_template(boundary: int, gammas, kernel_size, n: int) -> int:
    """boundary + (1/|Gamma|) sum of kernel sizes; integrality asserted."""
    total = 0
    for g in gammas:
        total += kernel_size(g, n)
    return _orbit_count(boundary, total, len(gammas))


def _orbit_count(boundary: int, total: int, order: int) -> int:
    """boundary + total / order, for an orbit sum over a group of that
    order; a sum that the order does not divide is refused."""
    if total % order:
        raise NonIntegerOrbitCount(
            f"orbit sum {total} not divisible by group order {order}")
    return boundary + total // order


def map_degree(m) -> int:
    return m.degree


def classify_separability(m) -> str:
    return "inseparable" if m.valuation(m.sigma) != 0 else "separable"


def per_n_counts(m, first: int, step: int = 1):
    """Iterator of the exact #Per_n for n = first, first + step, ...
    (step >= 1), from the family's closed form (big integers).

    Every map, separable or not, is counted by its family's formula.
    Each term moves the last one's power forward by one product with the
    power of the step, which is formed only when a second term is read:
    sigma^n for an integer multiplier (and sigma^(2n) for one of an
    elliptic curve), and sigma^n and N(sigma)^n for a ring multiplier.
    An additive map forms no power: each term reads one valuation off
    sigma.
    """
    if first < 1:
        raise SpecError("periods start at n = 1")
    return m.counts(first, step)


def per_n_closed(m, n: int) -> int:
    """Exact #Per_n from the family's closed form: the first term of
    per_n_counts."""
    return next(per_n_counts(m, n))


# -- realizations ------------------------------------------------------------------------


def chebyshev_poly(ctx, d: int) -> Poly:
    """T_d normalized by T_d(x + 1/x) = x^d + x^(-d), so T_0 = 2.

    T_d is the Dickson polynomial D_d(x, 1), whose coefficient of
    x^(d-2k), k <= d/2, is c_k = (-1)^k d/(d-k) C(d-k, k).  Each c_k comes
    from c_(k-1) by the ratio -(d-2k+2)(d-2k+1) / (k(d-k)), held as a
    power of p times a unit mod p, so the binomials are never formed.
    Over F_p, T_(pd)(x) = T_d(x)^p = T_d(x^p): a factor p^e of d only
    spreads the coefficients of T_(d/p^e).
    """
    if d == 0:
        return Poly.from_ints(ctx, [2])
    p, spread = ctx.p, 1
    while d % p == 0:
        d, spread = d // p, spread * p
    coeffs = [0] * (d * spread + 1)
    coeffs[-1] = unit = 1
    valuation = 0
    for k in range(1, d // 2 + 1):
        num, den = (d - 2 * k + 2) * (d - 2 * k + 1), k * (d - k)
        while num % p == 0:
            num, valuation = num // p, valuation + 1
        while den % p == 0:
            den, valuation = den // p, valuation - 1
        unit = -unit * num * pow(den, -1, p) % p
        if not valuation:
            coeffs[(d - 2 * k) * spread] = unit
    return Poly.from_ints(ctx, coeffs)


def realize(m, curve=None) -> RatMap:
    """Concrete rational map over the smallest sufficient field context;
    ScaleExceeded when its degree passes the polynomial degree cap."""
    if isinstance(m, PowerMap):
        check_poly_scale(abs(m.d))
        ctx = field_make(m.p)
        if m.d > 0:
            return poly_map(Poly.x_power(ctx, m.d))
        return rat_map(ctx, [1], [0] * (-m.d) + [1])

    if isinstance(m, ChebyshevMap):
        check_poly_scale(m.d)
        return poly_map(chebyshev_poly(field_make(m.p), m.d))

    if isinstance(m, AdditiveMap):
        body = realize_additive(m.sigma)
        shift = Poly.from_elems(m.sigma.ctx, [m.translation])
        return poly_map(body + shift)

    if isinstance(m, SubadditiveMap):
        return poly_map(_subadditive_realize(m))

    if isinstance(m, LattesGenericJ) and curve is not None:
        from .elliptic import lattes_realize
        return lattes_realize(curve, abs(m.s))

    raise NotRealizable(f"no concrete realization for {type(m).__name__}"
                        + ("" if curve is None else " on this curve"))


def _subadditive_realize(m: SubadditiveMap) -> Poly:
    """f with f(x^d) = psi(x)^d: psi(x) = x h(x^d), every exponent of psi
    being 1 mod d, so f(y) = y h(y)^d, with no product past deg psi."""
    psi = realize_additive(m.sigma)
    if np.count_nonzero(psi.reps) != np.count_nonzero(psi.reps[1::m.d]):
        raise SubadditiveConditionViolated(
            "psi is not x times a polynomial in x^d (internal)")
    return (Poly(psi.ctx, psi.reps[1::m.d]) ** m.d).shift(1)
