"""Rational self-maps of the projective line, the periodic-point oracle
and the cycle census.

A RatMap is a reduced fraction N/D of polynomials over F_p, with the
denominator monic.  Composition and iteration are exact.  A composition
evaluates f at g by the Frobenius split of f's terms by their exponents
mod p, so that an additive map's p-polynomial composes with no
polynomial product and a sparse f pays per nonzero class of exponents;
the oracle counts n-periodic points over the algebraic closure by counting
distinct roots of N(x) - x*D(x) and checking the point at infinity by
degree comparison, never by projective coordinate arithmetic.  The census
walks P^1 over one finite extension instead: it maps every point at once
on arrays of field reps and reads the cycles off the successor array.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfinitePeriodicPoints, ScaleExceeded, SpecError
from .field import Poly, distinct_root_count, field_make
from .intarith import power
from .limits import ENUM_CAP, POLY_DEGREE_CAP
from .modpoly import trim_array


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
    """Reduced composition f(g(x)); degrees multiply.

    For m = deg f and g = N/D, f(g) = D^m f.num(N/D) / D^m f.den(N/D), and
    ``_homogenised`` evaluates numerator and denominator alike.
    """
    if f.ctx != g.ctx:
        raise SpecError("composition across different fields")
    out_deg = f.degree * g.degree
    if out_deg > POLY_DEGREE_CAP:
        raise ScaleExceeded(f"composition degree {out_deg} exceeds cap")
    m = f.degree
    # D^0, D^1, ... as far as some level of the split asks; a polynomial g
    # (D = 1) needs none
    powers = None if g.den.degree == 0 else [Poly.one(f.ctx)]
    num = _homogenised(f.num, m, g, powers)
    den = _homogenised(f.den, m, g, powers)
    # Reduced inputs compose to a reduced fraction; only renormalize.
    inv = den.leading.inverse()
    out = RatMap(num.scale(inv), den.scale(inv))
    if out.degree != out_deg:
        raise SpecError("internal error: composition degree law violated")
    return out


def _homogenised(poly: Poly, m: int, g: RatMap, powers) -> Poly:
    """D^m poly(N/D) for g = N/D and deg poly <= m, by the Frobenius split.

    Over F_p, poly(y) = sum_(r<p) y^r F_r(y)^p with F_r(y) = sum_i
    c_(ip+r) y^i, since c^p = c, and h(x)^p = h(x^p) (Lidl-Niederreiter,
    *Finite Fields*, 3.4), a strided copy of h's coefficients.  So

        D^m poly(N/D) = sum_r N^r D^(e_r) (D^(M_r) F_r(N/D))^p,

    with M_r = (m - r) // p and e_r = (m - r) % p < p, and the bracket is
    this function again at degree M_r: the powers of D follow the base-p
    digits of m, and ``powers`` holds D^e for the digits met so far.
    Horner in N runs from the largest r with F_r nonzero, so a p-polynomial
    makes no product, and below p every F_r is one coefficient.
    """
    ctx, p, reps = poly.ctx, poly.ctx.p, poly.reps
    acc = None
    for r in range(min(len(reps), p) - 1, -1, -1):
        if acc is not None:
            acc = _times(acc, g.num)
        part = trim_array(reps[r::p])
        if not len(part):
            continue
        sub_m = (m - r) // p
        if len(part) == 1 and (sub_m == 0 or powers is None):
            term = Poly(ctx, part)  # the bracket's p-th power is c_r
        else:
            term = _frobenius(_homogenised(Poly(ctx, part), sub_m, g, powers))
        if powers is not None:
            e = (m - r) % p
            while len(powers) <= e:
                powers.append(_times(powers[-1], g.den))
            term = _times(powers[e], term)
        acc = term if acc is None else acc + term
    return Poly.zero(ctx) if acc is None else acc


def _frobenius(h: Poly) -> Poly:
    """h^p = h(x^p) for a nonzero h: its coefficients at x^(ip)."""
    p, reps = h.ctx.p, h.reps
    out = np.zeros(p * (len(reps) - 1) + 1, reps.dtype)
    out[::p] = reps
    return Poly(h.ctx, out)


def _times(a: Poly, b: Poly) -> Poly:
    """a * b, by Poly.scale when a factor is a nonzero constant."""
    if a.degree == 0:
        return b.scale(a.leading)
    if b.degree == 0:
        return a.scale(b.leading)
    return a * b


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
    """Cycle-length histogram of f on P^1(F_{p^max_k}).

    Returns a sorted list of (cycle length, number of cycles) pairs for
    lengths <= max_n.  The p^max_k + 1 points of the projective line over
    the degree-max_k extension are the reps 0 .. p^max_k - 1 and the index
    p^max_k for infinity; num and den are evaluated at all of them at once
    (``FieldCtx.arrays``), giving the successor array of f, whose cycles
    ``_cycle_histogram`` counts.  Tails are never counted.  The reps of
    f's F_p coefficients, and of the ratio of its leading terms, are the
    same constants' reps in the extension, so f is read as it is.
    """
    size = f.ctx.order ** max_k
    if size > ENUM_CAP:
        raise ScaleExceeded(f"census over {size} points exceeds cap")
    ext = field_make(f.ctx.p, max_k)

    infinity = size  # index of the point at infinity
    succ = np.empty(size + 1, dtype=np.int64)
    if f.num.degree > f.den.degree:
        succ[infinity] = infinity
    elif f.num.degree == f.den.degree:
        succ[infinity] = (f.num.leading / f.den.leading).rep
    else:
        succ[infinity] = ext.zero_rep
    arith = ext.arrays()
    xs = np.arange(size)
    dv = arith.eval(f.den.reps.tolist(), xs)
    succ[:size] = np.where(dv == 0, infinity,
                           arith.div(arith.eval(f.num.reps.tolist(), xs), dv))
    del xs, dv  # freed before the histogram's arrays, which set the peak memory
    cycles = _cycle_histogram(succ)[1:max_n + 1]
    return [(length, int(c)) for length, c in enumerate(cycles, 1) if c]


def _cycle_histogram(succ):
    """Number of cycles of each length (index) of the map v -> succ[v].

    Both steps are pointer doubling that stops as soon as a round changes
    nothing.  First the images f^(2^j)(points) shrink, each the image of
    the last under f^(2^j); when one round keeps the size, f^(2^j)
    permutes that image, which is then the set of periodic points.  Then,
    with ``step`` = f^(2^j) on those points, ``low[v]`` is the least of v,
    f(v), ..., f^(2^j - 1)(v); when a round changes no ``low``, ``low`` is
    constant on the orbits of ``step``, whose windows cover each cycle,
    so it names every cycle by its least point.
    """
    jump, live = succ.copy(), np.arange(len(succ))
    while True:
        image = np.zeros(len(succ), dtype=bool)
        image[jump[live]] = True
        shrunk = np.flatnonzero(image)
        if len(shrunk) == len(live):
            break
        jump[shrunk] = jump[jump[shrunk]]
        live = shrunk
    del jump, image, shrunk  # freed before the second step's arrays: peak memory
    local = np.empty(len(succ), dtype=np.int64)
    local[live] = np.arange(len(live))
    step, low = local[succ[live]], np.arange(len(live))
    while True:
        merged = np.minimum(low, low[step])
        if np.array_equal(merged, low):
            break
        low, step = merged, step[step]
    return np.bincount(np.bincount(low))
