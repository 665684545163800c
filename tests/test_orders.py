import ast
import pathlib
import random

import numpy as np
import pytest

from dynzeta.errors import (HypothesisViolated, InvalidCombination,
                            SpecError, ZeroInput)
from dynzeta.families import LattesOrdinary
from dynzeta import orders
from dynzeta.orders import (B3_ORDER, HURWITZ, QuadRing, QuatElem,
                            _norm_recurrence, _quadratic_roots_mod_p,
                            lte_int, lte_quad,
                            lte_quat, norm_sequence, prime_context, units,
                            v_I, v_frak_p)
from dynzeta.intarith import is_prime, v_p, v_p_strict
from dynzeta.zeta import _ordinary_step

ZI = QuadRing(0, 1)       # Z[i]
ZW = QuadRing(-1, 1)      # Z[w], w^2 = -w - 1


class TestIntegerValuation:
    def test_examples(self):
        assert v_p_strict(63, 3) == 2
        assert v_p_strict(3 ** 2 - 1, 2) == 3
        assert v_p_strict(7, 5) == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            v_p_strict(0, 3)


class TestIntegerLift:
    def test_hypothesis_needed(self):
        with pytest.raises(HypothesisViolated):
            lte_int(2, 1, 3, 4)

    def test_direct_example(self):
        assert lte_int(4, 1, 3, 3) == 2
        assert v_p_strict(4 ** 3 - 1, 3) == 2

    def test_powers_of_four(self):
        for n in (1, 2, 3, 9):
            assert lte_int(4, 1, 3, n) == 1 + v_p_strict(n, 3) if n % 3 == 0 \
                else lte_int(4, 1, 3, n) == 1

    def test_random_agreement(self):
        rng = random.Random(41)
        for p in (3, 5, 7):
            done = 0
            while done < 40:
                y = rng.randint(1, 40)
                if y % p == 0:
                    continue
                x = y + p * rng.randint(1, 30)
                if x % p == 0:
                    continue
                n = rng.randint(1, 30)
                v = lte_int(x, y, p, n)
                assert v == v_p_strict(x ** n - y ** n, p)
                done += 1

    def test_p2_guard(self):
        with pytest.raises(HypothesisViolated):
            lte_int(3, 1, 2, 2)   # v_2(2) = 1 < 2
        assert lte_int(5, 1, 2, 2) == 3


class TestQuadArithmetic:
    def test_gaussian_norms(self):
        assert ZI.elem(1, 1).norm() == 2
        sq = ZI.elem(1, 1) * ZI.elem(1, 1)
        assert (sq.a, sq.b) == (0, 2)
        assert ZI.elem(-1, 2).norm() == 5

    def test_conj_involution(self):
        rng = random.Random(4)
        for ring in (ZI, ZW, QuadRing(-3, 5)):
            for _ in range(20):
                x = ring.elem(rng.randint(-9, 9), rng.randint(-9, 9))
                assert x.conj().conj() == x
                assert x.conj().norm() == x.norm()
                assert (x * x.conj()).a == x.norm()

    def test_norm_multiplicative(self):
        rng = random.Random(11)
        for ring in (ZI, ZW):
            for _ in range(30):
                x = ring.elem(rng.randint(-9, 9), rng.randint(-9, 9))
                y = ring.elem(rng.randint(-9, 9), rng.randint(-9, 9))
                assert (x * y).norm() == x.norm() * y.norm()

    def test_cayley_hamilton(self):
        rng = random.Random(12)
        for ring in (ZI, ZW, QuadRing(-3, 5)):
            for _ in range(20):
                x = ring.elem(rng.randint(-9, 9), rng.randint(-9, 9))
                val = x * x - ring.elem(x.trace(), 0) * x + ring.elem(x.norm(), 0)
                assert val.is_zero()


def _split_rings(primes):
    """(p, ring) for each imaginary Z[tau] with |T| <= 6, N in [1, 12] or
    N = p, and a simple unit root mod p."""
    for p in primes:
        for T in range(-6, 7):
            for N in sorted(set(range(1, 13)) | {p}):
                if T * T < 4 * N and _simple_unit_roots(QuadRing(T, N), p):
                    yield p, QuadRing(T, N)


def _simple_unit_roots(ring, p):
    return [r for r in _quadratic_roots_mod_p(ring.trace, ring.norm, p)
            if r % p and (2 * r - ring.trace) % p]


def _hensel_root(ring, p, r, k):
    """The root of x^2 - T x + N mod p^k that is r mod p (r simple)."""
    modulus = p
    while modulus < p ** k:
        modulus = min(modulus * modulus, p ** k)
        f = r * r - ring.trace * r + ring.norm
        r = (r - f * pow(2 * r - ring.trace, -1, modulus)) % modulus
    return r


def _reference_v_frak(x, ctx):
    """v_p(N(x)) minus v_p(a + b u), u the unit root lifted to precision
    v_p(N(x)) + 1, past the conjugate prime's valuation."""
    nv = v_p_strict(x.norm(), ctx.p)
    u = _hensel_root(ctx.ring, ctx.p, ctx.unit_root, nv + 1)
    residue = (x.a + x.b * u) % ctx.p ** (nv + 1)
    assert residue != 0
    return nv - v_p(residue, ctx.p)


class TestSplitPrimeValuation:
    def test_orientation_example(self):
        ctx = prime_context(ZI, 5)
        a = v_frak_p(ZI.elem(1, 2), ctx)
        b = v_frak_p(ZI.elem(1, -2), ctx)
        assert sorted((a, b)) == [0, 1]
        assert a + b == v_p_strict(ZI.elem(1, 2).norm(), 5)

    def test_rational_prime_has_valuation_one(self):
        ctx = prime_context(ZI, 5)
        assert v_frak_p(ZI.elem(5, 0), ctx) == 1

    def test_unit_norm_gives_zero(self):
        ctx = prime_context(ZI, 5)
        assert v_frak_p(ZI.elem(1, 1), ctx) == 0   # norm 2, prime to 5

    def test_conjugate_split(self):
        ctx = prime_context(ZW, 7)   # 7 = 1 mod 3 splits in Z[w]
        rng = random.Random(19)
        for _ in range(40):
            x = ZW.elem(rng.randint(-9, 9), rng.randint(-9, 9))
            if x.is_zero():
                continue
            v1 = v_frak_p(x, ctx)
            v2 = v_frak_p(x.conj(), ctx)
            assert v1 + v2 == v_p_strict(x.norm(), 7)

    def test_matches_the_hensel_lifted_reference(self):
        rng = random.Random(45)
        checked = 0
        for p, ring in _split_rings((2, 3, 5, 7, 11, 13, 1009)):
            for r in _simple_unit_roots(ring, p):
                ctx = prime_context(ring, p, unit_root=r)
                pi = ring.elem(-r, 1)          # tau - r, in the conjugate prime
                xs = [ring.elem(rng.randint(-50, 50), rng.randint(-50, 50))
                      * p ** rng.randint(0, 2) for _ in range(12)]
                e = ring.elem(rng.randint(-9, 9), rng.randint(1, 9))
                xs += [q ** k * e for q in (pi, pi.conj()) for k in (33, 70, 130)]
                for x in xs:
                    if not x.is_zero():
                        assert v_frak_p(x, ctx) == _reference_v_frak(x, ctx), (
                            p, ring, r, x)
                        checked += 1
        assert checked > 9_000

    def test_ordinary_step_matches_the_lifted_coroot(self):
        # the step is the order of a + b r mod 4 at p = 2 (mod p at p = 3),
        # r the root of x^2 - T x + N that the prime holds, lifted far
        for p, ring in _split_rings((2, 3)):
            modulus = 4 if p == 2 else p
            for u in _simple_unit_roots(ring, p):
                ctx = prime_context(ring, p, unit_root=u)
                r = ring.trace - _hensel_root(ring, p, u, 8)
                for a in range(-4, 5):
                    for b in range(-4, 5):
                        sigma = ring.elem(a, b)
                        if (sigma.is_zero() or sigma.norm() < 2
                                or v_frak_p(sigma, ctx) != 0):
                            continue
                        z = (a + b * r) % modulus
                        order = next(k for k in range(1, modulus)
                                     if pow(z, k, modulus) == 1)
                        step = _ordinary_step(LattesOrdinary(ctx, sigma, 2))
                        assert step == order, (ring, u, sigma)

    def test_an_element_of_another_ring_is_refused(self):
        # 5 is inert in Z[w], so no valuation of a Z[w] element is read
        # under a Z[i] context
        ctx = prime_context(ZI, 5)
        with pytest.raises(SpecError, match="outside the context ring"):
            v_frak_p(ZW.elem(5, 10), ctx)
        with pytest.raises(SpecError, match="outside the context ring"):
            lte_quad(ZW.elem(1, 1), ZW.elem(6, 1), ctx, 2)

    def test_unit_root_is_keyword_only(self):
        # an old positional precision is refused, not read as an orientation
        with pytest.raises(TypeError):
            prime_context(ZI, 5, 32)
        assert prime_context(ZI, 5, unit_root=7).unit_root == 2

    def test_inert_prime_rejected(self):
        with pytest.raises(InvalidCombination):
            prime_context(ZI, 7)   # 7 = 3 mod 4 is inert in Z[i]

    def test_orientation_parameter(self):
        lo = prime_context(ZI, 5, unit_root=2)
        hi = prime_context(ZI, 5, unit_root=3)
        x = ZI.elem(1, 2)
        assert v_frak_p(x, lo) != v_frak_p(x, hi)

    def test_roots_mod_p_match_enumeration(self):
        # one square-root path for every odd p, enumeration only at p = 2;
        # the grid holds double roots (T^2 = 4N) and a reducible case
        grid = [(T, N) for T in range(-3, 4) for N in range(-3, 4)]
        grid += [(10 ** 6 + 3, 10 ** 9 + 7), (-999, 1001)]
        for p in filter(is_prime, range(2, 1000)):
            r = np.arange(p, dtype=np.int64)
            for T, N in grid:
                brute = np.flatnonzero((r * r - (T % p) * r + N % p) % p == 0)
                assert _quadratic_roots_mod_p(T, N, p) == brute.tolist(), (
                    p, T, N)


class TestQuadLift:
    def test_order_step_then_lift(self):
        ctx = prime_context(ZI, 5)
        sigma = ZI.elem(1, 1)
        m = 1
        while v_frak_p(sigma ** m - ZI.one(), ctx) < 1:
            m += 1
        base = v_frak_p(sigma ** m - ZI.one(), ctx)
        for n in (1, 2, 5, 10, 25):
            bump = v_p_strict(n, 5) if n % 5 == 0 else 0
            assert lte_quad(sigma ** m, ZI.one(), ctx, n) == base + bump

    def test_random_agreement(self):
        ctx = prime_context(ZI, 5)
        rng = random.Random(23)
        done = 0
        while done < 40:
            x = ZI.elem(rng.randint(-6, 6), rng.randint(-6, 6))
            y = ZI.elem(rng.randint(-6, 6), rng.randint(-6, 6))
            if x.is_zero() or y.is_zero() or (x - y).is_zero():
                continue
            if v_frak_p(x, ctx) != 0 or v_frak_p(y, ctx) != 0:
                continue
            if v_frak_p(x - y, ctx) < 1:
                continue
            n = rng.randint(1, 25)
            assert lte_quad(x, y, ctx, n) == v_frak_p(x ** n - y ** n, ctx)
            done += 1


class TestQuaternionOrders:
    def test_basic_norms(self):
        assert HURWITZ.elem(0, 1, 0, 0).norm() == 1
        assert HURWITZ.elem(1, 1, 0, 0).norm() == 2
        assert QuatElem(HURWITZ, 1, 1, 1, 1).norm() == 1
        assert QuatElem(B3_ORDER, 1, 0, 1, 0).norm() == 1

    def test_unit_groups(self):
        hw = units(HURWITZ)
        assert len(hw) == 24 and all(u.norm() == 1 for u in hw)
        # +-1, +-i, +-j, +-k and the 16 elements (+-1 +-i +-j +-k)/2
        assert set(hw) == ({HURWITZ.elem(*co) for s in (1, -1)
                            for co in ((s, 0, 0, 0), (0, s, 0, 0),
                                       (0, 0, s, 0), (0, 0, 0, s))}
                           | {QuatElem(HURWITZ, a, b, c, d) for a in (1, -1)
                              for b in (1, -1) for c in (1, -1)
                              for d in (1, -1)})
        b3 = units(B3_ORDER)
        assert len(b3) == 12 and all(u.norm() == 1 for u in b3)
        # +-1, +-i, (+-1 +-j)/2 and (+-i +-k)/2
        assert set(b3) == ({B3_ORDER.elem(s, 0, 0, 0) for s in (1, -1)}
                           | {B3_ORDER.elem(0, s, 0, 0) for s in (1, -1)}
                           | {QuatElem(B3_ORDER, a, 0, c, 0) for a in (1, -1)
                              for c in (1, -1)}
                           | {QuatElem(B3_ORDER, 0, b, 0, d) for b in (1, -1)
                              for d in (1, -1)})

    def test_norm_multiplicative(self):
        rng = random.Random(31)
        for order in (HURWITZ, B3_ORDER):
            for _ in range(30):
                x = _random_quat(order, rng)
                y = _random_quat(order, rng)
                assert (x * y).norm() == x.norm() * y.norm()

    def test_cayley_hamilton(self):
        rng = random.Random(37)
        for order in (HURWITZ, B3_ORDER):
            one = order.one()
            for _ in range(30):
                x = _random_quat(order, rng)
                t, n = x.trace(), x.norm()
                acc = x * x - QuatElem(order, 2 * t, 0, 0, 0) * x
                acc = acc + QuatElem(order, 2 * n, 0, 0, 0)
                assert acc.is_zero()

    def test_ideal_valuation(self):
        assert v_I(HURWITZ.elem(2, 0, 0, 0)) == 2
        assert v_I(QuatElem(HURWITZ, 1, 1, 1, 1)) == 0
        assert v_I(HURWITZ.elem(1, 1, 0, 0)) == 1
        assert v_I(B3_ORDER.elem(3, 0, 0, 0)) == 2


def _random_quat(order, rng):
    while True:
        if order.p == 2:
            parity = rng.randint(0, 1)
            coords = [2 * rng.randint(-3, 3) + parity for _ in range(4)]
        else:
            a = rng.randint(-6, 6)
            b = rng.randint(-6, 6)
            coords = [a, b, a - 2 * rng.randint(-3, 3), b - 2 * rng.randint(-3, 3)]
        el = QuatElem(order, *coords)
        if not el.is_zero():
            return el


class TestQuatLift:
    def test_coprime_keeps_valuation(self):
        x = QuatElem(HURWITZ, 3, 1, 1, 1)   # norm 3, unit at the ideal
        m = 1
        while v_I(x ** m - HURWITZ.one()) < 3:
            m += 1
        base = v_I(x ** m - HURWITZ.one())
        assert lte_quat(x ** m, HURWITZ.one(), 3) == base

    def test_lift_doubles(self):
        # Commuting pairs: y is drawn from the subring generated by x.
        rng = random.Random(43)
        for order, p, guard in ((HURWITZ, 2, 3), (B3_ORDER, 3, 2)):
            done = 0
            while done < 15:
                x = _random_quat(order, rng)
                scalar = order.elem(rng.randint(-4, 4), 0, 0, 0)
                mult = order.elem(rng.randint(-2, 2), 0, 0, 0)
                y = scalar + mult * x
                if (x - y).is_zero() or y.is_zero():
                    continue
                if x.norm() % p == 0 or y.norm() % p == 0:
                    continue
                if v_I(x - y) < guard:
                    continue
                n = rng.randint(1, 25)
                expected = v_I(x - y) + 2 * v_p_strict(n, p) if n % p == 0 else v_I(x - y)
                assert lte_quat(x, y, n) == expected
                assert expected == v_I(x ** n - y ** n)
                done += 1

    def test_noncommuting_pair_rejected(self):
        x = QuatElem(B3_ORDER, 3, 2, -3, 2)
        y = QuatElem(B3_ORDER, 0, -4, 6, -10)
        assert v_I(x - y) == 2
        # v_I(x^3 - y^3) is 3, not 2 + 2; the identity needs commuting inputs
        assert v_I(x ** 3 - y ** 3) == 3
        with pytest.raises(HypothesisViolated):
            lte_quat(x, y, 3)

    def test_guard_enforced(self):
        # x - 1 = 2i has ideal valuation 2 < 3, so the p = 2 lift refuses.
        x = HURWITZ.one() + HURWITZ.elem(0, 2, 0, 0)
        assert v_I(x - HURWITZ.one()) == 2
        with pytest.raises(HypothesisViolated):
            lte_quat(x, HURWITZ.one(), 2)

    def test_difference_outside_ideal_rejected(self):
        x = HURWITZ.one() + HURWITZ.elem(1, 1, 1, 0)   # norm(x - 1) = 3, odd
        with pytest.raises(HypothesisViolated):
            lte_quat(x, HURWITZ.one(), 2)


class TestAutGroupTable:
    """The automorphism groups Gamma, derived by units() from the orders."""

    def test_hurwitz_valuations(self):
        one = HURWITZ.one()
        dist = {}
        for g in units(HURWITZ):
            v = 0 if g == one else v_I(one - g)
            dist[v] = dist.get(v, 0) + 1
        assert dist == {0: 17, 1: 6, 2: 1}

    def test_b3_valuations(self):
        one = B3_ORDER.one()
        dist = {}
        for g in units(B3_ORDER):
            v = 0 if g == one else v_I(one - g)
            dist[v] = dist.get(v, 0) + 1
        assert dist == {0: 10, 1: 2}

    @staticmethod
    def _orders(ring):
        """{k: elements of multiplicative order k} over the ring's units."""
        found = {}
        for u in units(ring):
            k = next(k for k in range(1, 13) if u ** k == ring.one())
            found.setdefault(k, []).append(u)
        return found

    def test_roots_of_unity_detected(self):
        assert set(self._orders(ZI)) == {1, 2, 4}
        assert set(self._orders(ZW)) == {1, 2, 3, 6}
        assert set(self._orders(QuadRing(-3, 5))) == {1, 2}

    def test_quadratic_groups(self):
        # the norms of 1 - gamma over the order-4 and order-6 groups
        assert sorted((ZI.one() - g).norm() for g in units(ZI)) == [0, 2, 2, 4]
        # order-6 group: two primitive sixth roots (norm 1), two cube
        # roots (norm 3), and -1 (norm 4)
        assert sorted((ZW.one() - g).norm()
                      for g in units(ZW)) == [0, 1, 1, 3, 3, 4]
        # the cyclic groups Gamma: the k with exactly k k-th roots of unity
        for ring, groups in ((ZI, {2, 4}), (ZW, {2, 3, 6})):
            assert {k for k in (2, 3, 4, 6)
                    if sum(u ** k == ring.one() for u in units(ring)) == k
                    } == groups

    def test_shifted_rings(self):
        # tau = 3 + i and tau = w + 2: units with |a| > 2 in the basis 1, tau
        assert len(units(QuadRing(6, 10))) == 4
        assert len(units(QuadRing(3, 3))) == 6
        assert QuadRing(6, 10).elem(-3, 1) in units(QuadRing(6, 10))

    def test_units_agree_with_a_full_search(self):
        # every norm-1 element with coordinates in a wide box, for
        # -6 <= T <= 6 and 1 <= N < 20
        for T in range(-6, 7):
            for N in range(1, 20):
                if T * T >= 4 * N:
                    continue
                ring = QuadRing(T, N)
                wide = {ring.elem(a, b) for a in range(-10, 11)
                        for b in range(-10, 11)
                        if ring.elem(a, b).norm() == 1}
                assert set(units(ring)) == wide

    def test_invalid_combo(self):
        # a degenerate ring has no finite unit group, and (trace, norm)
        # multipliers have no explicit unit group to quotient by
        with pytest.raises(SpecError):
            units(QuadRing(4, 4))
        from dynzeta.families import LattesSupersingular
        with pytest.raises(InvalidCombination):
            LattesSupersingular(5, sigma_trace=0, sigma_norm=3, gamma="units")


class TestDegenerateRing:
    # T^2 = 4N: tau = T/2 + eps with eps^2 = 0, norm (a + b T/2)^2
    def test_norm_is_multiplicative(self):
        rng = random.Random(47)
        for T, N in ((4, 4), (-2, 1), (6, 9), (0, 0)):
            ring = QuadRing(T, N)
            for _ in range(30):
                x = ring.elem(rng.randint(-9, 9), rng.randint(-9, 9))
                y = ring.elem(rng.randint(-9, 9), rng.randint(-9, 9))
                assert (x * y).norm() == x.norm() * y.norm()
                assert x.norm() == (2 * x.a + x.b * T) ** 2 // 4

    def test_indefinite_ring_refused(self):
        with pytest.raises(SpecError):
            QuadRing(5, 6)

    def test_no_split_prime_context(self):
        # x^2 - 4x + 4 has the double root 2 mod every p
        for p in (5, 7, 11):
            with pytest.raises(InvalidCombination):
                prime_context(QuadRing(4, 4), p)


def _convolve_mod(a, b, ell):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % ell for c in out]


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13, 101, 1009, 2 ** 31 - 1,
                                 2 ** 61 - 1])
def test_norm_recurrence_is_the_written_out_quartic(ell):
    # (x - 1)(x - N)(x^2 - Tx + N), against a product of the two quadratics
    for T in range(-8, 9):
        for N in [*range(-3, 30), ell, 2 * ell, ell * ell + 1, 10 ** 30 + 7]:
            char, rec = _norm_recurrence(T, N, ell)
            assert char == _convolve_mod([N, -(1 + N), 1], [N, -T, 1], ell)
            assert rec == [-c % ell for c in char[:4]]


def test_orders_imports_only_integer_code():
    # from .m import ... names m; from . import m names m
    imported = set()
    for node in ast.walk(ast.parse(pathlib.Path(orders.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {a.name for a in node.names}
    assert imported <= {"errors", "intarith"}, imported


class TestNormSequence:
    def test_gaussian_example(self):
        rep = norm_sequence(ZI.elem(1, 1), ZI.one(), 5, 24)
        # a_1 = norm(i) = 1, a_2 = norm(2i - 1) = 5 = 0 mod 5
        assert rep.terms[1] == 1 and rep.terms[2] == 0
        assert (5 - 1) * (5 * 5 - 1) * 5 ** rep.bound_exponent % rep.least_period == 0

    def test_geometric_when_gamma_zero(self):
        rep = norm_sequence(ZI.elem(1, 1), ZI.zero(), 7, 24)
        assert list(rep.terms[:4]) == [1, 2, 4, 1]   # powers of norm 2 mod 7

    def test_constant_when_sigma_gamma_one(self):
        rep = norm_sequence(ZI.one(), ZI.one(), 5, 24)
        assert set(rep.terms) == {0} and rep.least_period == 1

    def test_trace_recurrence_cross_check(self):
        # c_2 = T c_1 - N c_0 for sigma = 1 + i, gammahat = 1
        sigma = ZI.elem(1, 1)
        c = [(sigma ** n).trace() for n in range(4)]
        T, N = sigma.trace(), sigma.norm()
        assert c[2] == T * c[1] - N * c[0]
        assert c[3] == T * c[2] - N * c[1]

    def test_random_rings_and_orders(self):
        rng = random.Random(53)
        for _ in range(25):
            ring = random.Random(rng.random()).choice([ZI, ZW])
            sigma = ring.elem(rng.randint(-5, 5), rng.randint(-5, 5))
            gamma = ring.elem(rng.randint(-3, 3), rng.randint(-3, 3))
            if sigma.is_zero():
                continue
            rep = norm_sequence(sigma, gamma, 11, 40)
            assert rep.bound_exponent <= 4
        for order in (HURWITZ, B3_ORDER):
            for _ in range(8):
                sigma = _random_quat(order, rng)
                gamma = _random_quat(order, rng)
                rep = norm_sequence(sigma, gamma, 13, 40)
                assert rep.bound_exponent <= 4
