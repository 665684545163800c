"""Rational self-maps of the projective line and the periodic-point oracle.

A RatMap is a reduced fraction N/D of polynomials over a finite field
context, with the denominator monic.  Composition and iteration are exact;
the oracle counts n-periodic points over the algebraic closure by counting
distinct roots of N(x) - x*D(x) and checking the point at infinity by
degree comparison, never by projective coordinate arithmetic.
"""

from dataclasses import dataclass

from .errors import InfinitePeriodicPoints, ScaleExceeded, SpecError
from .field import Poly, distinct_root_count, embed, extend_field
from .intarith import power
from .limits import ENUM_CAP, POLY_DEGREE_CAP


@dataclass(frozen=True)
class RatMap:
    num: Poly
    den: Poly

    def __post_init__(self):
        if self.num.ctx != self.den.ctx:
            raise SpecError("numerator and denominator over different fields")
        if self.den.is_zero():
            raise SpecError("zero denominator")
        if max(self.num.degree, self.den.degree) < 1:
            raise SpecError("constant maps are not dynamical systems here")

    @property
    def ctx(self):
        return self.num.ctx

    @property
    def degree(self):
        return max(self.num.degree, self.den.degree)

    def __repr__(self):
        return f"RatMap(deg {self.degree} over {self.ctx!r})"


def rat_map(ctx, num_coeffs, den_coeffs=(1,)) -> RatMap:
    """Build a reduced RatMap from coefficient lists (ints or elements)."""
    return reduced_map(Poly.from_elems(ctx, num_coeffs),
                       Poly.from_elems(ctx, den_coeffs))


def reduced_map(num: Poly, den: Poly) -> RatMap:
    """The RatMap num/den with their gcd cancelled and den made monic."""
    if den.is_zero():
        raise SpecError("zero denominator")
    g = num.gcd(den)
    if g.degree > 0:
        num, den = num // g, den // g
    inv = den.leading.inverse()
    return RatMap(num.scale(inv), den.scale(inv))


def poly_map(poly: Poly) -> RatMap:
    return RatMap(poly, Poly.one(poly.ctx))


def compose(f: RatMap, g: RatMap) -> RatMap:
    """Reduced composition f(g(x)); degrees multiply."""
    if f.ctx != g.ctx:
        raise SpecError("composition across different fields")
    out_deg = f.degree * g.degree
    if out_deg > POLY_DEGREE_CAP:
        raise ScaleExceeded(f"composition degree {out_deg} exceeds cap")
    m = f.degree
    qpow = [Poly.one(f.ctx)]
    for _ in range(m):
        qpow.append(qpow[-1] * g.den)

    def substitute(coeffs):
        # sum coeffs[i] * P^i * Q^(m-i), Horner in P
        acc = Poly.zero(f.ctx)
        for i in range(m, -1, -1):
            c = coeffs[i] if i < len(coeffs) else f.ctx.zero()
            term = qpow[m - i].scale(c)
            acc = acc * g.num + term if i < m else term
        return acc

    num = substitute(f.num.coeffs)
    den = substitute(f.den.coeffs)
    # Reduced inputs compose to a reduced fraction; only renormalize.
    inv = den.leading.inverse()
    out = RatMap(num.scale(inv), den.scale(inv))
    if out.degree != out_deg:
        raise SpecError("internal error: composition degree law violated")
    return out


def iterate(f: RatMap, n: int) -> RatMap:
    """n-fold composition of f with itself (n >= 1)."""
    if n < 1:
        raise SpecError("iterate needs n >= 1")
    # from n = POLY_DEGREE_CAP.bit_length() on, 2^n already passes the cap
    if f.degree ** min(n, POLY_DEGREE_CAP.bit_length()) > POLY_DEGREE_CAP:
        raise ScaleExceeded(f"deg(f)^{n} exceeds the polynomial cap")
    if f.degree == 1:
        # the cap bounds no n at degree 1; above it, squaring an iterate
        # costs more than composing onto f
        return power(compose, poly_map(Poly.x_power(f.ctx, 1)), f, n)
    out = f
    for _ in range(n - 1):
        out = compose(f, out)
    return out


def is_separable(f: RatMap) -> bool:
    """False exactly when f is a rational function of x^p."""
    wronskian = f.num.derivative() * f.den - f.num * f.den.derivative()
    return not wronskian.is_zero()


def per_n_oracle(f: RatMap, n: int) -> int:
    """Exact #Per_n(f) over the algebraic closure, by brute force.

    Counts distinct roots of N - x*D for the reduced iterate N/D, plus one
    when infinity is fixed (deg N > deg D).  Raises InfinitePeriodicPoints
    when the iterate is the identity map.
    """
    g = iterate(f, n)
    h = g.num - g.den.shift(1)
    if h.is_zero():
        raise InfinitePeriodicPoints(f"f^{n} is the identity map")
    count = distinct_root_count(h)
    if g.num.degree > g.den.degree:
        count += 1
    return count


def cycle_census(f: RatMap, max_k: int, max_n: int):
    """Cycle-length histogram of f on P^1(F_{q^max_k}).

    Enumerates the functional graph of f on the q^max_k + 1 points of the
    projective line over the degree-max_k extension and returns a sorted
    list of (cycle length, number of cycles) pairs for lengths <= max_n.
    Only points on cycles are counted; tails are discarded, so every
    counted point is genuinely periodic.
    """
    ctx = f.ctx
    if ctx.flavor != "finite":
        raise SpecError("census needs a finite base field")
    size = ctx.order ** max_k
    if size > ENUM_CAP:
        raise ScaleExceeded(f"census over {size} points exceeds cap")
    ext = extend_field(ctx, max_k)
    num = Poly.from_elems(ext, [embed(c, ext) for c in f.num.coeffs])
    den = Poly.from_elems(ext, [embed(c, ext) for c in f.den.coeffs])

    infinity = size  # index sentinel for the point at infinity
    if f.num.degree > f.den.degree:
        inf_image = infinity
    elif f.num.degree == f.den.degree:
        inf_image = (num.leading / den.leading).rep
    else:
        inf_image = ext.zero().rep

    successor = [0] * (size + 1)
    successor[infinity] = inf_image
    for i in range(size):
        z = ext.elem_at(i)
        dv = den.eval(z)
        if dv.is_zero():
            successor[i] = infinity
        else:
            successor[i] = (num.eval(z) / dv).rep

    # Locate cycles in the functional graph by path walking with colors.
    state = [0] * (size + 1)  # 0 unseen, 1 on current path, 2 done
    cycle_lengths = {}
    for start in range(size + 1):
        if state[start]:
            continue
        path = []
        node = start
        while state[node] == 0:
            state[node] = 1
            path.append(node)
            node = successor[node]
        if state[node] == 1:
            # Found a new cycle: everything from `node` onward in path.
            idx = path.index(node)
            length = len(path) - idx
            cycle_lengths[length] = cycle_lengths.get(length, 0) + 1
        for v in path:
            state[v] = 2
    return sorted((length, cnt) for length, cnt in cycle_lengths.items()
                  if length <= max_n)
