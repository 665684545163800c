"""Dynamically affine map families and their closed-form periodic counts.

Every family is counted through the same template

    #Per_n = boundary + (1/|Gamma|) * sum over gamma of #ker(sigma^n - gamma)

with a family-specific kernel-size rule:

* multiplicative families: #ker(x^M) = |M| / p^(v_p(|M|));
* additive families: #ker(sigma^n - w) = (deg sigma)^n / p^(v_phi(sigma^n - w));
* quotients of elliptic curves: norm(sigma^n - gamma) divided by p to the
  relevant inseparability valuation (p-adic for integer multipliers, the
  split-prime valuation in the ordinary case, v_p(norm) in the
  supersingular case).

Boundary constants: a positive power map fixes 0 and infinity (boundary 2),
a negative one swaps them (2 for even iterates, 0 for odd), the degree-d
quotient families fix only infinity (boundary 1), and elliptic quotients
cover the whole projective line (boundary 0).

For multipliers of an elliptic curve with End = Z there are two candidate
numerator conventions for the kernel size: the norm (squared) form
(s^n - gamma)^2 / p^(v_p(s^n - gamma)) and an un-squared absolute-value
form.  Both are implemented; VARIANT_NORM is the default, pinned by the
acceptance suite's torsion-enumeration oracle.
"""

import math
from dataclasses import InitVar, dataclass, field as dc_field

from .errors import (InvalidCombination, NonIntegerOrbitCount, NotRealizable,
                     SpecError, SubadditiveConditionViolated)
from .field import Poly, check_poly_scale, embed, extend_field, field_make
from .dynmap import RatMap, poly_map, rat_map
from .intarith import check_prime, v_p
from .limits import enum_cap
from .orders import (PrimeContext, QuadElem, QuadRing, QuatElem, units,
                     v_frak_p)
from .twisted import TwistedPoly, realize_additive, v_phi, v_phi_pow_minus

VARIANT_NORM = "norm"
VARIANT_ABSOLUTE = "absolute"
# Default numerator convention for integer elliptic multipliers.  The
# acceptance suite compares both variants against torsion enumeration on
# concrete ordinary curves and pins this value.
DEFAULT_LATTES_VARIANT = VARIANT_NORM


@dataclass(frozen=True)
class PowerMap:
    p: int
    d: int

    def __post_init__(self):
        check_prime(self.p)
        if abs(self.d) < 2:
            raise SpecError("power maps need |d| >= 2")


@dataclass(frozen=True)
class ChebyshevMap:
    p: int
    d: int

    def __post_init__(self):
        check_prime(self.p)
        if self.d < 2:
            raise SpecError("Chebyshev maps need d >= 2")


@dataclass(frozen=True)
class AdditiveMap:
    sigma: TwistedPoly
    translation: object = None

    def __post_init__(self):
        if self.sigma.is_zero() or self.sigma.top_index < 1:
            raise SpecError("additive maps need degree at least p")
        if self.translation is None:
            object.__setattr__(self, "translation", self.sigma.ctx.zero())

    @property
    def p(self):
        return self.sigma.ctx.p


@dataclass(frozen=True)
class SubadditiveMap:
    sigma: TwistedPoly
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise SpecError("subadditive quotient needs d >= 2")
        p = self.sigma.ctx.p
        if math.gcd(p, self.d) != 1:
            raise SpecError("quotient order must be prime to p")
        if self.sigma.is_zero() or self.sigma.top_index < 1:
            raise SpecError("subadditive maps need degree at least p")
        for i, c in enumerate(self.sigma.coeffs):
            if not c.is_zero() and (p ** i - 1) % self.d != 0:
                raise SubadditiveConditionViolated(
                    "every monomial degree of the additive map must be 1 mod d")

    @property
    def p(self):
        return self.sigma.ctx.p


@dataclass(frozen=True)
class LattesGenericJ:
    """Integer multiplier on a curve with End = Z; quotient by negation."""

    p: int
    s: int
    variant: str = DEFAULT_LATTES_VARIANT

    def __post_init__(self):
        check_prime(self.p)
        if abs(self.s) < 2:
            raise SpecError("multiplier needs |s| >= 2")
        if self.variant not in (VARIANT_NORM, VARIANT_ABSOLUTE):
            raise SpecError(f"unknown count variant {self.variant!r}")


@dataclass(frozen=True)
class LattesOrdinary:
    prime_ctx: PrimeContext
    sigma: QuadElem
    gamma_order: int
    gammas: tuple = dc_field(init=False)

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

    def valuation(self, x) -> int:
        """The p-power exponent of #ker x: v at the oriented split prime."""
        return v_frak_p(x, self.prime_ctx)


@dataclass(frozen=True)
class LattesSupersingular:
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

    def valuation(self, x) -> int:
        """The p-power exponent of #ker x: v_p of the reduced norm."""
        return v_p(x.norm(), self.p)


DynAffineMap = (PowerMap, ChebyshevMap, AdditiveMap, SubadditiveMap,
                LattesGenericJ, LattesOrdinary, LattesSupersingular)


# -- the counting template -------------------------------------------------------------


def per_n_template(boundary: int, gammas, kernel_size, n: int) -> int:
    """boundary + (1/|Gamma|) sum of kernel sizes; integrality asserted."""
    total = 0
    for g in gammas:
        total += kernel_size(g, n)
    if total % len(gammas):
        raise NonIntegerOrbitCount(
            f"orbit sum {total} not divisible by group order {len(gammas)}")
    return boundary + total // len(gammas)


def _gm_kernel(M: int, p: int) -> int:
    """#ker(x^M) on the multiplicative group: |M| / p^(v_p(|M|))."""
    M = abs(M)
    return M // p ** v_p(M, p)


def map_degree(m) -> int:
    if isinstance(m, PowerMap):
        return abs(m.d)
    if isinstance(m, ChebyshevMap):
        return m.d
    if isinstance(m, (AdditiveMap, SubadditiveMap)):
        return m.sigma.map_degree()
    if isinstance(m, LattesGenericJ):
        return m.s * m.s
    if isinstance(m, (LattesOrdinary, LattesSupersingular)):
        return m.sigma.norm()
    raise SpecError(f"not a dynamically affine map: {m!r}")


def classify_separability(m) -> str:
    if isinstance(m, PowerMap):
        insep = m.d % m.p == 0
    elif isinstance(m, ChebyshevMap):
        insep = m.d % m.p == 0
    elif isinstance(m, (AdditiveMap, SubadditiveMap)):
        insep = v_phi(m.sigma) != 0
    elif isinstance(m, LattesGenericJ):
        insep = m.s % m.p == 0
    elif isinstance(m, (LattesOrdinary, LattesSupersingular)):
        insep = m.valuation(m.sigma) != 0
    else:
        raise SpecError(f"not a dynamically affine map: {m!r}")
    return "inseparable" if insep else "separable"


def per_n_closed(m, n: int) -> int:
    """Exact #Per_n from the family's closed form (big integers)."""
    if n < 1:
        raise SpecError("periods start at n = 1")
    if classify_separability(m) == "inseparable":
        # Inseparable iterates have squarefree fixed-point divisors, so the
        # count is always degree^n + 1.
        return map_degree(m) ** n + 1

    if isinstance(m, PowerMap):
        boundary = 2 if m.d > 0 or n % 2 == 0 else 0
        return per_n_template(boundary, (1,),
                              lambda _g, k: _gm_kernel(m.d ** k - 1, m.p), n)

    if isinstance(m, ChebyshevMap):
        return per_n_template(
            1, (1, -1), lambda g, k: _gm_kernel(m.d ** k - g, m.p), n)

    if isinstance(m, (AdditiveMap, SubadditiveMap)):
        sigma, roots = (_subadditive_roots(m) if isinstance(m, SubadditiveMap)
                        else (m.sigma, (m.sigma.ctx.one(),)))

        def kernel(w, k):
            v = v_phi_pow_minus(sigma, k, w)
            return sigma.ctx.p ** (sigma.top_index * k - v)

        return per_n_template(1, roots, kernel, n)

    if isinstance(m, LattesGenericJ):
        def kernel(g, k):
            M = m.s ** k - g
            if m.variant == VARIANT_NORM:
                return M * M // m.p ** v_p(abs(M), m.p)
            return abs(M) // m.p ** v_p(abs(M), m.p)

        return per_n_template(0, (1, -1), kernel, n)

    if isinstance(m, (LattesOrdinary, LattesSupersingular)):
        def kernel(g, k):
            x = m.sigma ** k - g
            return x.norm() // m.p ** m.valuation(x)

        return per_n_template(0, m.gammas, kernel, n)

    raise SpecError(f"not a dynamically affine map: {m!r}")


def _subadditive_roots(m: SubadditiveMap):
    """sigma lifted to a field containing mu_d, plus the d roots of unity."""
    ctx = m.sigma.ctx
    if ctx.flavor != "finite":
        # Transcendental coefficients keep all the roots of unity in the
        # constants; separability analysis never needs them explicitly.
        raise SpecError("explicit roots of unity need finite coefficients")
    q = ctx.order
    e = 1
    while (q ** e - 1) % m.d != 0:
        e += 1
        if e > 24:
            raise SpecError("root-of-unity field out of reach")
    if e == 1:
        ext = ctx
        sigma = m.sigma
    else:
        if q ** e > enum_cap():
            raise SpecError("root-of-unity field exceeds the enumeration cap")
        ext = extend_field(ctx, e)
        sigma = TwistedPoly.from_elems(ext, [embed(c, ext) for c in m.sigma.coeffs])
    roots = []
    for z in ext.elements():
        if not z.is_zero() and (z ** m.d).is_one():
            roots.append(z)
            if len(roots) == m.d:
                break
    if len(roots) != m.d:
        raise SpecError("failed to enumerate the roots of unity (internal)")
    return sigma, tuple(roots)


# -- realizations ------------------------------------------------------------------------


def chebyshev_poly(ctx, d: int) -> Poly:
    """T_d normalized by T_d(x + 1/x) = x^d + x^(-d).

    Built by doubling along the bits of d, keeping (T_n, T_(n+1)):
    T_2n = T_n^2 - 2 and T_(2n+1) = T_n T_(n+1) - x.
    """
    x = Poly.x_power(ctx, 1)
    two = Poly.from_ints(ctx, [2])
    low, high = two, x
    for bit in bin(d)[2:]:
        if bit == "1":
            low, high = low * high - x, high * high - two
        else:
            low, high = low * low - two, low * high - x
    return low


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
    """Solve f(x^d) = psi(x)^d for the quotient polynomial f."""
    psi = realize_additive(m.sigma)
    power = Poly.one(psi.ctx)
    for _ in range(m.d):
        power = power * psi
    if any(c for e, c in enumerate(power.reps) if e % m.d):
        raise SubadditiveConditionViolated(
            "psi^d is not a polynomial in x^d (internal)")
    return Poly(psi.ctx, power.reps[::m.d])
