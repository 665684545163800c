"""The ring of additive polynomials under composition, in operator form.

An element is stored by its coefficient vector (c_0, ..., c_m) and stands
for the additive map x -> sum c_i x^(p^i).  Writing F for the p-power
operator, multiplication is composition and obeys F c = c^p F, so the
coefficient of F^(i+j) in a product picks up a p^i-power twist on the
right factor.  The degree of a nonzero element as a polynomial map is
p^m; only the exponent m is stored, and p^m is materialized lazily as a
big integer where needed.

Coefficients live in a finite FieldCtx or in F_p(u); the latter supports
exactly the arithmetic, Frobenius and zero-testing that the transcendental
linear-coefficient analysis needs.

Products and powers can be truncated to the coefficients of F^0, ...,
F^(K-1).  This is exact: F^K c = c^(p^K) F^K gives F^K R = R F^K, so the
multiples of F^K form a two-sided ideal, and reducing mod F^K commutes
with every product.  Concretely, the coefficient of F^k in a product only
involves coefficients of index <= k of either factor, so a power built
from truncated products has exactly the first K coefficients of the full
power.  v_phi(sigma^n - omega) is read off such low coefficients, with K
doubled until one of them is nonzero; the valuation is usually far below
the top * n + 1 coefficients of the full power.
"""

from dataclasses import dataclass

from .errors import (HypothesisViolated, InseparableSigma, Mismatch,
                     ScaleExceeded, SpecError, ZeroElement)
from .field import Poly, check_poly_scale
from .intarith import multiplicative_order, power, v_p
from .limits import TWISTED_POWER_COEFF_CAP
from .sentinels import INFINITY, TRANSCENDENTAL

_DIRECT_CHECK_COEFF_CAP = 4096


@dataclass(frozen=True)
class TwistedPoly:
    ctx: object
    coeffs: tuple  # FieldElem entries, index i belongs to F^i, trimmed

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


def tw_mul(a: TwistedPoly, b: TwistedPoly, trunc=None) -> TwistedPoly:
    """Composition product with the twist rule F c = c^p F.

    With ``trunc = K`` only the coefficients of F^0, ..., F^(K-1) are
    formed; they equal those of the full product.
    """
    _check(a, b)
    if a.is_zero() or b.is_zero():
        return TwistedPoly.zero(a.ctx)
    size = len(a.coeffs) + len(b.coeffs) - 1
    if trunc is not None:
        size = min(size, trunc)
    out = [a.ctx.zero()] * size
    # nonzero (index, coefficient) pairs of b, twisted once per step in i
    twisted = [(j, c) for j, c in enumerate(b.coeffs[:size]) if not c.is_zero()]
    for i, ca in enumerate(a.coeffs[:size]):
        if i > 0:
            twisted = [(j, c.frobenius()) for j, c in twisted if i + j < size]
        if ca.is_zero():
            continue
        for j, cb in twisted:
            out[i + j] = out[i + j] + ca * cb
    return TwistedPoly.from_elems(a.ctx, out)


def tw_pow(a: TwistedPoly, n: int, trunc=None) -> TwistedPoly:
    """a^n by repeated squaring; ``trunc`` as in :func:`tw_mul`."""
    if n < 0:
        raise SpecError("negative twisted powers are not defined")
    return power(lambda x, y: tw_mul(x, y, trunc), TwistedPoly.one(a.ctx), a, n)


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
    """v_phi(x^n - 1) from v_phi(x - 1), for x congruent to 1 mod F.

    Returns v_phi(x - 1) * p^(v_p(n)); cross-checked against the direct
    expansion whenever the coefficient count stays small.  The degenerate
    x = 1 returns INFINITY itself, before the base is scaled, so the
    valuation of zero is never multiplied.
    """
    ctx = x.ctx
    one = TwistedPoly.one(ctx)
    base = v_phi(tw_sub(x, one))
    if base is INFINITY:
        return INFINITY
    if base < 1:
        raise HypothesisViolated("x - 1 is not divisible by the p-power operator")
    value = base * ctx.p ** v_p(n, ctx.p)
    if (x.top_index + 1) * n <= _DIRECT_CHECK_COEFF_CAP and ctx.flavor == "finite":
        direct = v_phi(tw_sub(tw_pow(x, n), one))
        if direct != value:
            raise Mismatch(f"twisted exponent lift: formula {value} != direct {direct}")
    return value


def constant_order(sigma: TwistedPoly):
    """Multiplicative order of the linear coefficient, or TRANSCENDENTAL,
    for a sigma over F_p or F_p(u), as the additive families hold.  A
    sigma over a larger finite field is refused: its reps are not
    integers mod p."""
    ctx = sigma.ctx
    if ctx.flavor == "finite" and not ctx.is_prime_field:
        raise SpecError(f"the linear-coefficient order needs coefficients "
                        f"in F_p or F_p(u), not {ctx!r}")
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
    """v_phi(sigma^n - omega) without forming sigma^n when avoidable.

    The linear coefficient of sigma^n is c_0^n; when it differs from the
    root of unity omega the valuation is zero.  Equality needs an algebraic
    c_0: a constant in F_p(u), where F_p is algebraically closed, so no
    power of a non-constant c_0 is formed.  Then sigma^n is formed modulo
    F^K for K = 2, 4, 8, ... until a coefficient of index below K is
    nonzero, or K covers all top * n + 1 coefficients of sigma^n.  A K
    past the coefficient cap is refused rather than formed.
    """
    return truncated_valuation(sigma, n, omega)[0]


def truncated_valuation(sigma: TwistedPoly, n: int, omega, trunc=2,
                        power=None):
    """(v, K, sigma^n mod F^K) with v = v_phi(sigma^n - omega), by the
    doubling of v_phi_pow_minus from K = trunc.

    power, when given, is sigma^n mod F^trunc, and is read before any
    power is formed; it comes back unchanged (None when none was given)
    when c_0^n differs from omega, and formed afresh at every doubled K.
    """
    omega = sigma.ctx.elem(omega)
    c0 = sigma.constant_coeff()
    if not c0.is_constant() or c0 ** n != omega:
        return 0, trunc, power
    full = sigma.top_index * n + 1
    while True:
        if power is None:
            if min(trunc, full) > TWISTED_POWER_COEFF_CAP:
                raise ScaleExceeded("twisted power too large for direct valuation")
            power = tw_pow(sigma, n, trunc)
        v = v_phi(tw_sub_scalar(power, omega))
        if v is not INFINITY or trunc >= full:
            return v, trunc, power
        trunc, power = 2 * trunc, None


def _check(a, b):
    if a.ctx != b.ctx:
        raise SpecError("mixed-context twisted arithmetic")
