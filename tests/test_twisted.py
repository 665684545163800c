import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynzeta.dynmap import compose, poly_map
from dynzeta.errors import HypothesisViolated, InseparableSigma, SpecError
from dynzeta.field import distinct_root_count, field_make, ratfunc_field
from dynzeta.sentinels import INFINITY, TRANSCENDENTAL
from dynzeta.twisted import (TwistedPoly, constant_order, kernel_size_ga,
                             lte_ga, realize_additive, tw_mul, tw_pow,
                             tw_sub, tw_sub_scalar, v_phi, v_phi_pow_minus)


def tw(ctx, *ints):
    return TwistedPoly.from_ints(ctx, list(ints))


class TestTwistRule:
    def test_operator_past_constant(self, F3):
        phi = tw(F3, 0, 1)
        c = tw(F3, 2)
        assert [e.rep for e in tw_mul(phi, c).coeffs] == [0, 2]

    def test_square_of_phi_minus_one(self, F3):
        sq = tw_pow(tw(F3, -1, 1), 2)
        assert [e.rep for e in sq.coeffs] == [1, 1, 1]

    def test_unit(self, F3):
        a = tw(F3, 2, 1, 2)
        assert tw_mul(a, TwistedPoly.one(F3)) == a
        assert tw_mul(TwistedPoly.one(F3), a) == a

    def test_sub_scalar(self, F3):
        sq = tw_pow(tw(F3, -1, 1), 2)
        shifted = tw_sub_scalar(sq, 1)
        assert [e.rep for e in shifted.coeffs] == [0, 1, 1]
        sigma = tw(F3, -1, 1)
        assert tw_sub_scalar(sigma, 0) == sigma

    def test_associativity_random(self, F3):
        rng = random.Random(9)
        for _ in range(30):
            a = tw(F3, *[rng.randrange(3) for _ in range(rng.randint(1, 4))])
            b = tw(F3, *[rng.randrange(3) for _ in range(rng.randint(1, 4))])
            c = tw(F3, *[rng.randrange(3) for _ in range(rng.randint(1, 4))])
            assert tw_mul(tw_mul(a, b), c) == tw_mul(a, tw_mul(b, c))


class TestVPhi:
    def test_examples(self, F3):
        assert v_phi(tw(F3, 0, 1, 1)) == 1
        assert v_phi(tw(F3, -1, 1)) == 0
        assert v_phi(TwistedPoly.zero(F3)) is INFINITY

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=5),
           st.lists(st.integers(0, 2), min_size=1, max_size=5))
    def test_multiplicative(self, a_ints, b_ints):
        F3 = field_make(3)
        a, b = tw(F3, *a_ints), tw(F3, *b_ints)
        if a.is_zero() or b.is_zero():
            return
        assert v_phi(tw_mul(a, b)) == v_phi(a) + v_phi(b)


class TestKernelSize:
    def test_examples(self, F3):
        assert kernel_size_ga(tw(F3, 0, 1, 1)) == 3
        assert kernel_size_ga(tw(F3, 0, 1)) == 1
        assert kernel_size_ga(tw(F3, -1, 1)) == 3

    def test_matches_distinct_roots(self, F3):
        rng = random.Random(17)
        for _ in range(25):
            a = tw(F3, *[rng.randrange(3) for _ in range(rng.randint(2, 5))])
            if a.is_zero() or a.top_index < 1 or a.top_index > 7:
                continue
            assert kernel_size_ga(a) == distinct_root_count(realize_additive(a))


class TestRealizationConsistency:
    def test_ring_homomorphism(self, F3):
        rng = random.Random(21)
        for _ in range(15):
            a = tw(F3, *[rng.randrange(3) for _ in range(rng.randint(2, 3))])
            b = tw(F3, *[rng.randrange(3) for _ in range(rng.randint(2, 3))])
            if a.is_zero() or b.is_zero() or a.top_index + b.top_index > 6:
                continue
            if a.top_index < 1 or b.top_index < 1:
                continue
            lhs = realize_additive(tw_mul(a, b))
            rhs = compose(poly_map(realize_additive(a)),
                          poly_map(realize_additive(b)))
            assert poly_map(lhs) == rhs


class TestExponentLift:
    def test_f2_example(self, F2):
        x = tw(F2, 1, 1)
        assert lte_ga(x, 2) == 2
        sq = tw_sub(tw_pow(x, 2), TwistedPoly.one(F2))
        assert v_phi(sq) == 2

    def test_coprime_exponent_keeps_valuation(self, F3):
        x = tw(F3, 1, 2, 1)
        base = v_phi(tw_sub(x, TwistedPoly.one(F3)))
        assert lte_ga(x, 2) == base
        assert lte_ga(x, 4) == base

    def test_degenerate_identity(self, F2):
        assert lte_ga(TwistedPoly.one(F2), 5) is INFINITY

    def test_hypothesis_checked(self, F3):
        with pytest.raises(HypothesisViolated):
            lte_ga(tw(F3, 2, 1), 3)  # x - 1 has unit constant term

    def test_random_against_direct(self):
        rng = random.Random(63)
        for p in (2, 3):
            F = field_make(p)
            done = 0
            while done < 40:
                tail = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
                x = TwistedPoly.from_elems(
                    F, [F.one()] + [F.from_int(c) for c in tail])
                if v_phi(tw_sub(x, TwistedPoly.one(F))) is INFINITY:
                    continue
                n = rng.randint(1, 20)
                direct = v_phi(tw_sub(tw_pow(x, n), TwistedPoly.one(F)))
                assert lte_ga(x, n) == direct
                done += 1


class TestConstantOrder:
    def test_order_of_minus_one(self, F3):
        assert constant_order(tw(F3, -1, 1)) == 2

    def test_order_of_one(self, F2):
        assert constant_order(tw(F2, 1, 1)) == 1

    def test_transcendental_marker(self, F3u):
        sigma = TwistedPoly.from_elems(F3u, [F3u.u(), F3u.one()])
        assert constant_order(sigma) is TRANSCENDENTAL

    def test_inseparable_rejected(self, F3):
        with pytest.raises(InseparableSigma):
            constant_order(tw(F3, 0, 1))

    @pytest.mark.parametrize("p", [2, 3, 13, 101])
    def test_every_unit_against_brute_force(self, p):
        F = field_make(p)
        for c in F.elements():
            if c.is_zero():
                continue
            assert constant_order(TwistedPoly.from_elems(F, [c, F.one()])) == _order(c)

    def test_every_unit_of_an_extension_refused(self):
        # a rep of F_9 is a base-3 digit string, not an integer mod 3, so
        # no sigma over F_9 is made
        F9 = field_make(3, 2)
        units = [c for c in F9.elements() if not c.is_zero()]
        assert len(units) == 8
        for c in units:
            with pytest.raises(SpecError, match="F_p or F_p"):
                constant_order(TwistedPoly.from_elems(F9, [c, F9.one()]))


class TestConstantTermShortcut:
    def test_transcendental_powers_never_vanish(self, F3u):
        sigma = TwistedPoly.from_elems(F3u, [F3u.u(), F3u.one()])
        for n in (1, 2, 5, 20):
            assert v_phi_pow_minus(sigma, n, F3u.one()) == 0

    def test_transcendental_power_not_formed(self, F3u):
        # (u + 1)^(10^5) would be a degree-10^5 fraction in F_3(u)
        sigma = TwistedPoly.from_elems(F3u, [F3u.u() + F3u.one(), F3u.one()])
        start = time.perf_counter()
        assert v_phi_pow_minus(sigma, 10 ** 5, F3u.one()) == 0
        assert time.perf_counter() - start < 1.0

    def test_algebraic_fallback_matches_direct(self, F3):
        sigma = tw(F3, -1, 1)
        for n in (1, 2, 3, 4, 6):
            direct = v_phi(tw_sub_scalar(tw_pow(sigma, n), F3.one()))
            assert v_phi_pow_minus(sigma, n, F3.one()) == direct


def _order(c):
    """The multiplicative order of a nonzero field element, by its powers."""
    order, power = 1, c
    while not power.is_one():
        order, power = order + 1, power * c
    return order


class TestClosedFormValuation:
    """v_phi_pow_minus against the valuation of the full power."""

    @staticmethod
    def _sigmas(F, units, pool, rng):
        out = [TwistedPoly.from_elems(F, [rng.choice(units)])]  # top 0
        for top in (1, 2, 3):
            # c + c' F^top: (sigma^(p^j) - c^(p^j)) has valuation top * p^j,
            # its top index
            out.append(TwistedPoly.from_elems(
                F, [rng.choice(units)] + [F.zero()] * (top - 1)
                + [rng.choice(units)]))
            for c0 in (rng.choice(units), rng.choice(units), F.zero()):
                mid = [rng.choice(pool) for _ in range(top - 1)]
                out.append(TwistedPoly.from_elems(
                    F, [c0] + mid + [rng.choice(units)]))
        return out

    @staticmethod
    def _check(F, sigmas, omegas, max_top_n):
        # every omega against every sigma: 0 unless omega = c0^n, and
        # otherwise the valuation of the full power sigma^n - omega
        hits = 0
        for sigma in sigmas:
            p, c0 = F.p, sigma.constant_coeff()
            exps = {1, 2, 3, p, p * p, 2 * p}
            if c0.is_constant() and not c0.is_zero():
                m = _order(c0)
                exps |= {m * t for t in (1, p, p * p, 3)}
            for n in sorted(exps):
                if sigma.top_index * n > max_top_n:
                    continue
                power = tw_pow(sigma, n)
                for omega in omegas:
                    direct = v_phi(tw_sub_scalar(power, omega))
                    assert v_phi_pow_minus(sigma, n, omega) == direct, (
                        sigma, n, omega)
                    hits += direct != 0
        return hits

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_full_power_over_f_p(self, p):
        F = field_make(p)
        rng = random.Random(300 * p)
        units = [z for z in F.elements() if not z.is_zero()]
        # every unit is a root of unity, so omega covers mu_d for each
        # d | p - 1, the roots a subadditive map uses; omega = 0 meets
        # the c0 = 0 sigmas
        sigmas = self._sigmas(F, units, list(F.elements()), rng)
        assert self._check(F, sigmas, list(F.elements()), 400) > 20

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_full_power_over_f_p_u(self, p):
        F = ratfunc_field(p)
        u = F.u()
        rng = random.Random(400 * p)
        constants = [F.from_int(a) for a in range(1, p)]
        units = constants + [u, u + 1, u * u - 1]
        sigmas = self._sigmas(F, units, [F.zero()] + units, rng)
        assert self._check(F, sigmas, [F.zero()] + constants, 12) > 10

    def test_extension_coefficients_refused(self):
        # F_8 and F_9 hold no sigma: its reps are not integers mod p
        for F in (field_make(2, 3), field_make(3, 2)):
            with pytest.raises(SpecError, match="F_p or F_p"):
                TwistedPoly.from_elems(F, [F.one(), F.one()])

    def test_power_of_two_at_once(self, F2):
        # (1 + F)^(2^20) - 1 = F^(2^20), a power of 2^20 + 1 coefficients
        start = time.perf_counter()
        assert v_phi_pow_minus(tw(F2, 1, 1), 2 ** 20, 1) == 2 ** 20
        assert time.perf_counter() - start < 1.0

    def test_additive_one_plus_frobenius(self, F2):
        # (1 + F)^(2^j) = 1 + F^(2^j) over F_2
        sigma = tw(F2, 1, 1)
        for j in range(8):
            assert v_phi_pow_minus(sigma, 2 ** j, 1) == 2 ** j

    def test_commuting_sigma_past_the_old_cap(self, F5):
        # 2 + F commutes over F_5, so (2 + F)^n - 1 has valuation
        # 5^(v_5(n)), the first index whose binomial C(n, j) is a unit
        sigma = tw(F5, 2, 1)
        assert v_phi_pow_minus(sigma, 100, 1) == 25
        assert v_phi_pow_minus(sigma, 16000, 1) == 125
        assert v_phi_pow_minus(sigma, 16400, 1) == 25

    def test_constant_sigma(self, F5):
        sigma = tw(F5, 2)
        assert v_phi_pow_minus(sigma, 4, 1) is INFINITY
        assert v_phi_pow_minus(sigma, 2, 1) == 0
