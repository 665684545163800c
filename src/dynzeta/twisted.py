"""The ring of additive polynomials under composition, in operator form.

An element is stored by its coefficient vector (c_0, ..., c_m) and stands
for the additive map x -> sum c_i x^(p^i).  Writing F for the p-power
operator, multiplication is composition and obeys F c = c^p F, so the
coefficient of F^(i+j) in a product picks up a p^i-power twist on the
right factor.  The degree of a nonzero element as a polynomial map is
p^m; only the exponent m is stored, and p^m is materialized lazily as a
big integer where needed.

Coefficients live in F_p or in F_p(u), and an element over any other
field is refused when it is made.  The latter supports exactly the
arithmetic, Frobenius and zero-testing that the transcendental
linear-coefficient analysis needs.  A constant coefficient is then in
F_p and commutes with F, so v_phi(sigma^n - omega) has a closed form
(``v_phi_pow_minus``) and no power is formed to count.
"""

from dataclasses import dataclass

from .errors import (HypothesisViolated, InseparableSigma, Mismatch,
                     SpecError, ZeroElement)
from .field import Poly, check_poly_scale
from .intarith import multiplicative_order, power, v_p
from .sentinels import INFINITY, TRANSCENDENTAL

_DIRECT_CHECK_COEFF_CAP = 4096


@dataclass(frozen=True)
class TwistedPoly:
    ctx: object
    coeffs: tuple  # FieldElem entries, index i belongs to F^i, trimmed

    def __post_init__(self):
        # a rep of F_(p^k), k >= 2, is a base-p digit string, not an
        # integer mod p, and a constant there need not commute with F
        if self.ctx.flavor == "finite" and not self.ctx.is_prime_field:
            raise SpecError(f"twisted polynomials need coefficients in F_p "
                            f"or F_p(u), not {self.ctx!r}")

    @classmethod
    def from_elems(cls, ctx, elems):
        elems = list(elems)
        while elems and elems[-1].is_zero():
            elems.pop()
        return cls(ctx, tuple(elems))

    @classmethod
    def from_ints(cls, ctx, ints):
        return cls.from_elems(ctx, [ctx.elem(c) for c in ints])

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls.from_ints(ctx, [1])

    def is_zero(self):
        return not self.coeffs

    @property
    def top_index(self):
        """m such that the map degree is p^m; -1 for the zero element."""
        return len(self.coeffs) - 1

    def map_degree(self) -> int:
        if self.is_zero():
            raise ZeroElement("zero additive map has no degree")
        return self.ctx.p ** self.top_index

    def constant_coeff(self):
        return self.coeffs[0] if self.coeffs else self.ctx.zero()

    def __repr__(self):
        return f"TwistedPoly({len(self.coeffs)} coeffs over {self.ctx!r})"


def tw_add(a: TwistedPoly, b: TwistedPoly) -> TwistedPoly:
    _check(a, b)
    xs, ys = a.coeffs, b.coeffs
    if len(xs) < len(ys):
        xs, ys = ys, xs
    out = list(xs)
    for i, c in enumerate(ys):
        out[i] = out[i] + c
    return TwistedPoly.from_elems(a.ctx, out)


def tw_neg(a: TwistedPoly) -> TwistedPoly:
    return TwistedPoly.from_elems(a.ctx, [-c for c in a.coeffs])


def tw_sub(a: TwistedPoly, b: TwistedPoly) -> TwistedPoly:
    return tw_add(a, tw_neg(b))


def tw_mul(a: TwistedPoly, b: TwistedPoly) -> TwistedPoly:
    """Composition product with the twist rule F c = c^p F."""
    _check(a, b)
    if a.is_zero() or b.is_zero():
        return TwistedPoly.zero(a.ctx)
    out = [a.ctx.zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
    # nonzero (index, coefficient) pairs of b, twisted once per step in i
    twisted = [(j, c) for j, c in enumerate(b.coeffs) if not c.is_zero()]
    for i, ca in enumerate(a.coeffs):
        if i > 0:
            twisted = [(j, c.frobenius()) for j, c in twisted]
        if ca.is_zero():
            continue
        for j, cb in twisted:
            out[i + j] = out[i + j] + ca * cb
    return TwistedPoly.from_elems(a.ctx, out)


def tw_pow(a: TwistedPoly, n: int) -> TwistedPoly:
    """a^n by repeated squaring."""
    if n < 0:
        raise SpecError("negative twisted powers are not defined")
    return power(tw_mul, TwistedPoly.one(a.ctx), a, n)


def tw_sub_scalar(a: TwistedPoly, omega) -> TwistedPoly:
    """Subtract the linear map x -> omega*x, i.e. omega from c_0."""
    omega = a.ctx.elem(omega)
    coeffs = list(a.coeffs) if a.coeffs else [a.ctx.zero()]
    coeffs[0] = coeffs[0] - omega
    return TwistedPoly.from_elems(a.ctx, coeffs)


def v_phi(a: TwistedPoly):
    """Index of the least nonzero coefficient; INFINITY for the zero map."""
    for i, c in enumerate(a.coeffs):
        if not c.is_zero():
            return i
    return INFINITY


def kernel_size_ga(sigma: TwistedPoly) -> int:
    """Number of closure roots of the additive map: deg / p^(v_phi)."""
    if sigma.is_zero():
        raise ZeroElement("kernel of the zero map is everything")
    return sigma.ctx.p ** (sigma.top_index - v_phi(sigma))


def lte_ga(x: TwistedPoly, n: int):
    """v_phi(x^n - 1) = v_phi(x - 1) * p^(v_p(n)), for x congruent to 1
    mod F, read off ``v_phi_pow_minus``; cross-checked against the direct
    expansion whenever the coefficient count stays small.  The degenerate
    x = 1 gives INFINITY.
    """
    ctx = x.ctx
    one = TwistedPoly.one(ctx)
    if v_phi(tw_sub(x, one)) < 1:
        raise HypothesisViolated("x - 1 is not divisible by the p-power operator")
    value = v_phi_pow_minus(x, n, 1)
    if (x.top_index + 1) * n <= _DIRECT_CHECK_COEFF_CAP and ctx.flavor == "finite":
        direct = v_phi(tw_sub(tw_pow(x, n), one))
        if direct != value:
            raise Mismatch(f"twisted exponent lift: formula {value} != direct {direct}")
    return value


def constant_order(sigma: TwistedPoly):
    """Multiplicative order of the linear coefficient, or TRANSCENDENTAL."""
    ctx = sigma.ctx
    c0 = sigma.constant_coeff()
    if c0.is_zero():
        raise InseparableSigma("separability requires a nonzero linear coefficient")
    if not c0.is_constant():
        return TRANSCENDENTAL
    return multiplicative_order(
        c0.constant_value() if ctx.flavor == "ratfunc" else c0.rep, ctx.p)


def realize_additive(sigma: TwistedPoly) -> Poly:
    """The additive polynomial sum c_i x^(p^i) as a dense Poly."""
    ctx = sigma.ctx
    if ctx.flavor != "finite":
        raise SpecError("realization needs finite coefficients")
    if sigma.is_zero():
        return Poly.zero(ctx)
    degree = ctx.p ** sigma.top_index
    check_poly_scale(degree)
    reps = [0] * (degree + 1)
    for i, c in enumerate(sigma.coeffs):
        reps[ctx.p ** i] = c.rep
    return Poly.from_reps(ctx, reps)


def v_phi_pow_minus(sigma: TwistedPoly, n: int, omega):
    """v_phi(sigma^n - omega) for n >= 1, with no power formed.

    The F^0 coefficient of sigma^n - omega is c_0^n - omega, so the
    valuation is 0 unless c_0 is constant and c_0^n = omega.  Then c_0 is
    in F_p and commutes with F, and with tau = sigma - c_0 the binomial
    theorem gives sigma^n - c_0^n = sum over j >= 1 of
    C(n, j) c_0^(n - j) tau^j, whose term j has valuation j v_phi(tau).
    The least j with a nonzero term is p^(v_p(n)) (Lucas), or n when
    c_0 = 0.  A constant sigma = c_0 gives INFINITY, never scaled.
    """
    ctx = sigma.ctx
    c0 = sigma.constant_coeff()
    if not c0.is_constant() or c0 ** n != ctx.elem(omega):
        return 0
    v = v_phi(tw_sub_scalar(sigma, c0))
    if v is INFINITY:
        return v
    return v * (n if c0.is_zero() else ctx.p ** v_p(n, ctx.p))


def _check(a, b):
    if a.ctx != b.ctx:
        raise SpecError("mixed-context twisted arithmetic")
