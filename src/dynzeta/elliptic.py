"""Small elliptic curves over finite fields, used as a brute-force oracle.

Curves are short Weierstrass y^2 = x^3 + Ax + B over F_p with p >= 5, so
neither the chord-tangent law nor the division polynomials need
characteristic-2/3 special cases.  A and B are F_p reps, which name the
same constants in every extension of F_p, so E(F_(p^k)) is walked on E
itself.  Torsion counts are obtained by honest point enumeration over
growing extensions.  The structural size of the N-torsion (read off the
trace of Frobenius) only decides when an enumeration is complete; a
count is never taken from it, so counts stay independent of the
closed-form counts they are used to check.

Enumerations run on arrays of field reps (``FieldCtx.arrays``): one walk
over every x finds the affine points, with square tests and roots read
off the discrete logarithm.  [N]P = O is then decided for all of them at
once by the value at P of the N-th division polynomial, which vanishes
exactly on the affine N-torsion; the values come from the doubling
recurrence (``_division_recurrence``) that also builds the polynomials of
``lattes_realize``, so a count forms no point multiple.  The masked
chord-tangent law (``_multiples``) is the independent group-law check of
``lattes_realize``.  ``CurvePoint``, ``add`` and ``mul_by_m`` are the
boxed point API, for single points of an F_p curve over any extension.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteEnumeration, ScaleExceeded, SpecError
from .field import FieldElem, Poly, field_make
from .dynmap import RatMap, reduced_map
from .intarith import power, v_p
from .limits import ENUM_CAP, TORSION_INDEX_CAP


@dataclass(frozen=True)
class EllipticCurve:
    ctx: object
    A: object
    B: object

    def __post_init__(self):
        if not self.ctx.is_prime_field:
            raise SpecError(f"curves need coefficients in F_p, not {self.ctx!r}")
        if self.ctx.p < 5:
            raise SpecError("short Weierstrass curves require p >= 5")
        disc = self.ctx.from_int(4) * self.A ** 3 + self.ctx.from_int(27) * self.B ** 2
        if disc.is_zero():
            raise SpecError("singular curve")

    def j_invariant(self):
        c = self.ctx
        four_a3 = c.from_int(4) * self.A ** 3
        return c.from_int(1728) * four_a3 / (four_a3 + c.from_int(27) * self.B ** 2)

    def rhs(self, x):
        """x^3 + Ax + B at an x of any extension of F_p."""
        return x ** 3 + x * self.A.rep + self.B.rep

    def contains(self, x, y):
        return y * y == self.rhs(x)


@dataclass(frozen=True)
class CurvePoint:
    curve: EllipticCurve
    x: object = None
    y: object = None

    def __post_init__(self):
        if self.x is not None and not self.curve.contains(self.x, self.y):
            raise SpecError("point is not on the curve")

    @property
    def is_identity(self):
        return self.x is None


def identity(curve):
    return CurvePoint(curve)


def negate(P: CurvePoint) -> CurvePoint:
    if P.is_identity:
        return P
    return CurvePoint(P.curve, P.x, -P.y)


def add(P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    if P.curve != Q.curve:
        raise SpecError("points on different curves")
    if P.is_identity:
        return Q
    if Q.is_identity:
        return P
    if P.x == Q.x:
        if P.y != Q.y or P.y.is_zero():
            return identity(P.curve)
        slope = (3 * P.x * P.x + P.curve.A.rep) / (2 * P.y)
    else:
        slope = (Q.y - P.y) / (Q.x - P.x)
    x3 = slope * slope - P.x - Q.x
    y3 = slope * (P.x - x3) - P.y
    return CurvePoint(P.curve, x3, y3)


def mul_by_m(P: CurvePoint, m: int) -> CurvePoint:
    """[m]P by double-and-add (``intarith.power`` on the group law)."""
    if m < 0:
        return mul_by_m(negate(P), -m)
    return power(add, identity(P.curve), P, m)


def point_count(E: EllipticCurve, k: int = 1) -> int:
    """#E(F_{q^k}): the identity and the affine points of ``_affine_points``."""
    return 1 + len(_affine_points(E, k)[2])


def trace_of_frobenius(E: EllipticCurve) -> int:
    return E.ctx.order + 1 - point_count(E)


def point_orders_by_trace(E: EllipticCurve, k_max: int):
    """{k: #E(F_{q^k})} from the base trace via the Frobenius recurrence."""
    q = E.ctx.order
    t = trace_of_frobenius(E)
    out = {}
    t_prev, t_cur = 2, t
    for k in range(1, k_max + 1):
        out[k] = q ** k + 1 - t_cur
        t_prev, t_cur = t_cur, t * t_cur - q * t_prev
    return out


def is_supersingular(E: EllipticCurve) -> bool:
    return trace_of_frobenius(E) % E.ctx.p == 0


def _affine_points(E: EllipticCurve, k: int):
    """(E, arrays, xs, ys): the affine points of E(F_(p^k)) as rep arrays.

    ``arrays`` is the ``RepArrays`` of F_(p^k): E.ctx's at k = 1, whose
    tables live as long as E, and ``field_make(p, k)``'s above it, in
    which E's coefficient reps are the same constants.  All x are walked
    at once: x^3 + Ax + B is 0 (one point, y = 0), a nonzero square (the
    points y and -y, y from the halved log) or neither.  Points come by
    ascending x, each root before its negative, and every root is checked
    to square back to its value.  A walk past ``limits.ENUM_CAP`` points
    is refused before its field is made.
    """
    size = E.ctx.order ** k
    if size > ENUM_CAP:
        raise ScaleExceeded(f"enumeration over {size} elements exceeds cap")
    arith = (E.ctx if k == 1 else field_make(E.ctx.p, k)).arrays()
    xs = np.arange(size)
    rhs = _rhs(E, arith, xs)
    roots = arith.sqrt(rhs)
    square = arith.is_square(rhs)
    if np.any(arith.mul(roots, roots)[square] != rhs[square]):
        raise SpecError("square root failure (internal)")
    per_x = np.where(rhs == 0, 1, np.where(square, 2, 0))
    ends = np.cumsum(per_x)
    ys = np.repeat(roots, per_x)
    second = ends[per_x == 2] - 1
    ys[second] = arith.neg(ys[second])
    return E, arith, np.repeat(xs, per_x), ys


def _rhs(curve, arith, xs):
    return arith.add(arith.mul(arith.add(arith.mul(xs, xs), curve.A.rep), xs),
                     curve.B.rep)


def points_over(E: EllipticCurve, k: int):
    """All points of E(F_{p^k}): the identity, then ``_affine_points``,
    with coordinates in ``field_make(p, k)``."""
    _, _, xs, ys = _affine_points(E, k)
    ctx = field_make(E.ctx.p, k)
    return [identity(E)] + [
        CurvePoint(E, FieldElem(ctx, x), FieldElem(ctx, y))
        for x, y in zip(xs.tolist(), ys.tolist())]


def _chord_tangent(curve, arith, P, Q):
    """P + Q lane by lane for points (xs, ys, at_identity) of rep arrays.

    The masked form of ``add``: identity lanes pass the other point
    through, x1 = x2 with y1 = -y2 gives the identity, and the remaining
    lanes take the tangent or chord slope.  Every new point is checked
    to lie on the curve, as ``CurvePoint`` checks a boxed one.
    """
    (x1, y1, o1), (x2, y2, o2) = P, Q
    same_x = x1 == x2
    tangent = same_x & (y1 == y2) & (y1 != 0)
    live = ~(o1 | o2 | (same_x & ~tangent))
    num = np.where(tangent,
                   arith.add(arith.mul(3, arith.mul(x1, x1)), curve.A.rep),
                   arith.sub(y2, y1))
    den = np.where(tangent, arith.mul(2, y1), arith.sub(x2, x1))
    slope = arith.div(num, np.where(live, den, 1))
    x3 = arith.sub(arith.sub(arith.mul(slope, slope), x1), x2)
    y3 = arith.sub(arith.mul(slope, arith.sub(x1, x3)), y1)
    if np.any((arith.mul(y3, y3) != _rhs(curve, arith, x3))[live]):
        raise SpecError("point is not on the curve")
    xs = np.where(o1, x2, np.where(o2, x1, x3))
    ys = np.where(o1, y2, np.where(o2, y1, y3))
    return xs, ys, np.where(o1, o2, np.where(o2, o1, ~live))


def _multiples(curve, arith, xs, ys, m: int):
    """(xs, ys, at_identity): [m]P for every point P = (xs, ys) of the
    curve, by double-and-add (``intarith.power``) on ``_chord_tangent``."""
    points = (xs, ys, np.zeros(len(xs), dtype=bool))
    origin = (xs, ys, np.ones(len(xs), dtype=bool))
    law = functools.partial(_chord_tangent, curve, arith)
    return power(law, origin, points, m)


def torsion_count(E: EllipticCurve, N: int, k_max: int):
    """(count, complete): N-torsion points found over extensions up to k_max.

    Each extension that can hold the full N-torsion is walked once, and
    its N-torsion is read off division-polynomial values: an affine point
    P has [N]P = O exactly when psi_N(P) = 0 (``_division_lanes``), so no
    point multiple is formed.  Two facts stand in for a check of each
    point: the walk finds the group order that the trace of Frobenius
    gives, and the count divides it.

    Over the closure the N-torsion has u^2 * p^a points (N = p^a * u) when
    the p-part survives and u^2 points when it collapses, and nothing in
    between.  Completeness is therefore declared when the count reaches
    the full ceiling u^2 * p^a (sound: it cannot be exceeded), or when the
    count sits exactly at the collapsed value u^2 and a nested pair of
    extensions F_(q^k) < F_(q^2k) both realize it.  A plateau at any other
    value proves nothing - division fields can lie beyond the enumeration
    cap - and leaves the flag unset.
    """
    if N < 1 or N > TORSION_INDEX_CAP:
        raise SpecError(f"torsion index outside [1, {TORSION_INDEX_CAP}]")
    if N == 1:
        return 1, True
    p = E.ctx.p
    a = v_p(N, p)
    u = N // p ** a
    # The closure torsion is (Z/u)^2 times a p-part that is either Z/p^a
    # or trivial; which shape applies is read off the trace of Frobenius,
    # q + 1 - #E(F_q), the recurrence's k = 1 order (taken even when
    # k_max is 0).  Plateau heuristics certified wrong values on concrete
    # curves (division fields can lie past the cap), so only the
    # structural target is accepted.
    group_orders = point_orders_by_trace(E, max(k_max, 1))
    ordinary = (E.ctx.order + 1 - group_orders[1]) % p != 0
    target = u * u * (p ** a if ordinary else 1)
    best = 0
    for k in range(1, k_max + 1):
        if E.ctx.order ** k > ENUM_CAP:
            break
        # A field whose group order the target does not divide, or that
        # lacks the u-th roots of unity, cannot hold the full subgroup;
        # skip its enumeration (the order recurrence is exact arithmetic).
        if group_orders[k] % target != 0:
            continue
        if u > 1 and (E.ctx.order ** k - 1) % u != 0:
            continue
        _, arith, xs, ys = _affine_points(E, k)
        if len(xs) + 1 != group_orders[k]:
            raise SpecError("enumeration misses the Frobenius group order (internal)")
        cnt = 1 + int(np.count_nonzero(_division_lanes(E, arith, xs, ys, N)))
        if group_orders[k] % cnt:
            raise SpecError("torsion count does not divide the group order (internal)")
        best = max(best, cnt)
        if cnt == target:
            return cnt, True
    return best, False


def lattes_oracle(E: EllipticCurve, m: int, n: int, k_max: int = 5) -> int:
    """Quotient-by-negation periodic count: (#E[m^n - 1] + #E[m^n + 1]) / 2.

    Both torsion counts must certify completeness; otherwise the result
    would silently undercount and the error IncompleteEnumeration is
    raised instead.
    """
    if m < 2:
        raise SpecError("multiplier must be at least 2")
    # m^n >= 2^n passes the cap from n = TORSION_INDEX_CAP.bit_length() on
    if m ** min(n, TORSION_INDEX_CAP.bit_length()) + 1 > TORSION_INDEX_CAP:
        raise ScaleExceeded(f"torsion index {m}^{n} + 1 beyond the oracle range")
    total = 0
    for M in (m ** n - 1, m ** n + 1):
        cnt, ok = torsion_count(E, max(M, 1), k_max)
        if not ok:
            raise IncompleteEnumeration(f"E[{M}] did not stabilize at this scale")
        total += cnt
    if total % 2:
        raise SpecError("odd torsion total; quotient count impossible")
    return total // 2


# -- multiplication-by-m on the x-line ----------------------------------------------


def _division_recurrence(E: EllipticCurve, value, F2, mul, sub, halve):
    """m -> t_m: the division polynomials of E, with a factor y removed
    from the even-index ones, in a caller's arithmetic.

    psi_m = t_m for odd m and y * t_m for even m, so every t_m is a pure
    polynomial in x once y^2 is replaced by the curve cubic F.  ``value``
    turns a coefficient list (elements of E.ctx, lowest degree first) into
    a value, ``F2`` is the value of F^2, and ``mul``, ``sub`` and
    ``halve`` are the arithmetic of values.  t_0 = 0, t_1 = 1, t_2 = 2, t_3
    and t_4 are seeds; the doubling recurrences give the rest, memoised,
    so t_m forms only the O(log m) indices that it reaches.
    """
    ctx, A, B = E.ctx, E.A, E.B
    n = ctx.from_int
    seeds = {
        0: [], 1: [n(1)], 2: [n(2)],
        3: [-(A * A), n(12) * B, n(6) * A, n(0), n(3)],
        4: [n(-4) * (n(8) * B * B + A * A * A), n(-16) * A * B,
            n(-20) * A * A, n(80) * B, n(20) * A, n(0), n(4)]}
    t = {}

    def get(m):
        if m in t:
            return t[m]
        if m in seeds:
            val = value(seeds[m])
        else:
            j, r = divmod(m, 2)
            if r:
                a, b = get(j), get(j + 1)
                left = mul(get(j + 2), mul(a, mul(a, a)))
                right = mul(get(j - 1), mul(b, mul(b, b)))
                if j % 2 == 0:
                    left = mul(F2, left)
                else:
                    right = mul(F2, right)
                val = sub(left, right)
            else:
                inner = sub(mul(get(j + 2), mul(get(j - 1), get(j - 1))),
                            mul(get(j - 2), mul(get(j + 1), get(j + 1))))
                val = halve(mul(get(j), inner))
        t[m] = val
        return val

    return get


def _division_lanes(E, arith, xs, ys, N):
    """Whether [N]P = O, lane by lane, for the affine points (xs, ys).

    psi_N(P) = 0 decides it (Washington, *Elliptic Curves*, 2nd ed.,
    section 3.2): t_N(x) = 0 for odd N, and y = 0 or t_N(x) = 0 for even
    N.  The t_m are evaluated lane by lane with ``RepArrays`` products and
    differences, F^2 at a point being y^4.  The seeds and 1/2 are formed
    over F_p, whose reps name the same constants in the walked field.
    """
    y2 = arith.mul(ys, ys)
    half = E.ctx.from_int(2).inverse().rep
    t = _division_recurrence(
        E, lambda coeffs: arith.eval([c.rep for c in coeffs], xs),
        arith.mul(y2, y2), arith.mul, arith.sub, lambda v: arith.mul(v, half))
    zero = t(N) == 0
    return zero if N % 2 else zero | (ys == 0)


def _division_t_sequence(E: EllipticCurve):
    """(t, F): ``_division_recurrence`` on Polys over E's field, and the
    curve cubic F = x^3 + Ax + B."""
    ctx = E.ctx
    F = Poly.from_elems(ctx, [E.B, E.A, ctx.zero(), ctx.one()])
    half = ctx.from_int(2).inverse()
    t = _division_recurrence(E, functools.partial(Poly.from_elems, ctx), F * F,
                             operator.mul, operator.sub, lambda v: v.scale(half))
    return t, F


def lattes_realize(E: EllipticCurve, m: int) -> RatMap:
    """The degree-m^2 rational map f with f(x(P)) = x([m]P), m <= 5.

    Built from division polynomials and verified pointwise against the
    group law on every affine point of E over the base field.
    """
    if not 2 <= m <= 5:
        raise SpecError("realization implemented for 2 <= m <= 5")
    if m % E.ctx.p == 0:
        raise SpecError("inseparable multiplication map not realized")
    ctx = E.ctx
    t, F = _division_t_sequence(E)
    xpoly = Poly.x_power(ctx, 1)
    if m % 2:
        num = xpoly * t(m) * t(m) - F * t(m + 1) * t(m - 1)
        den = t(m) * t(m)
    else:
        num = xpoly * F * t(m) * t(m) - t(m + 1) * t(m - 1)
        den = F * t(m) * t(m)
    f = reduced_map(num, den)
    if f.degree != m * m:
        raise SpecError("internal error: realized map has wrong degree")
    _verify_realization(E, m, f)
    return f


def _verify_realization(E, m, f):
    _, arith, xs, ys = _affine_points(E, 1)
    image_xs, _, at_identity = _multiples(E, arith, xs, ys, m)
    dv = arith.eval(f.den.reps.tolist(), xs)
    if np.any(at_identity & (dv != 0)):
        raise SpecError("realization misses a pole")
    hit = ~at_identity
    values = arith.div(arith.eval(f.num.reps.tolist(), xs), dv)
    if np.any(dv[hit] == 0) or np.any(values[hit] != image_xs[hit]):
        raise SpecError("realization disagrees with the group law")
