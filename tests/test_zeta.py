import random
from fractions import Fraction

import pytest

from dynzeta.dynmap import cycle_census, per_n_oracle, rat_map
from dynzeta.errors import NonIntegerCoefficient
from dynzeta.families import (AdditiveMap, ChebyshevMap, LattesGenericJ,
                              LattesOrdinary, LattesSupersingular, PowerMap,
                              SubadditiveMap, per_n_closed)
from dynzeta.field import field_make, ratfunc_field
from dynzeta.intarith import multiplicative_order, v_p
from dynzeta.orders import B3_ORDER, QuadRing, QuatElem, prime_context
from dynzeta.twisted import TwistedPoly
from dynzeta.zeta import (certificate_build, rationality_guess,
                          series_of_rational, verdict, zeta_from_counts,
                          zeta_from_cycles)


class TestSeries:
    def test_inseparable_closed_form(self):
        for d in (2, 3, 5):
            counts = [d ** n + 1 for n in range(1, 31)]
            series = zeta_from_counts(counts)
            assert list(series.coeffs) == series_of_rational(
                [1], [1, -(d + 1), d], 31)

    def test_all_ones(self):
        assert zeta_from_counts([1] * 12).coeffs == tuple([1] * 13)

    def test_non_realizable_counts_rejected(self):
        with pytest.raises(NonIntegerCoefficient):
            zeta_from_counts([2, 1, 1, 1])

    def test_matches_fraction_reference(self):
        def reference(counts):
            coeffs = [Fraction(1)]
            for j in range(1, len(counts) + 1):
                acc = sum(counts[i - 1] * coeffs[j - i] for i in range(1, j + 1))
                coeffs.append(Fraction(acc) / j)
                if coeffs[-1].denominator != 1:
                    return f"coefficient {coeffs[-1]} is not an integer"
            return tuple(int(c) for c in coeffs)

        rng = random.Random(3)
        raised = 0
        for trial in range(300):
            length = rng.randint(0, 40)
            if trial % 2:
                # Counts of a permutation with cycles[L] cycles of length L
                # always give integer coefficients.
                cycles = [rng.randint(0, 5) for _ in range(length)]
                counts = [sum(L * cycles[L - 1] for L in range(1, n + 1)
                              if n % L == 0) for n in range(1, length + 1)]
            else:
                counts = [rng.randint(0, 10 ** rng.randint(1, 12))
                          for _ in range(length)]
            expected = reference(counts)
            if isinstance(expected, str):
                raised += 1
                with pytest.raises(NonIntegerCoefficient) as info:
                    zeta_from_counts(counts)
                assert str(info.value) == expected
            else:
                assert zeta_from_counts(counts).coeffs == expected
        assert 50 < raised < 150

    def test_product_formula_agreement(self, F3):
        f = rat_map(F3, [0, 0, 1])
        census = cycle_census(f, 6, 3)
        counts = [per_n_oracle(f, n) for n in range(1, 4)]
        exp_side = zeta_from_counts(counts)
        prod_side = zeta_from_cycles(census, 3)
        assert exp_side.coeffs[:4] == prod_side.coeffs[:4]
        assert prod_side.provenance == "product-formula"

    def test_integer_coefficients_across_families(self, F3):
        fams = [PowerMap(3, 2), PowerMap(5, -3), ChebyshevMap(7, 4),
                AdditiveMap(TwistedPoly.from_ints(F3, [-1, 1])),
                LattesGenericJ(3, 2)]
        for fam in fams:
            counts = [per_n_closed(fam, n) for n in range(1, 25)]
            series = zeta_from_counts(counts)
            assert all(isinstance(c, int) for c in series.coeffs)


class TestRationalityGuess:
    def test_two_geometric_terms(self):
        guess = rationality_guess([1 + 3 ** n for n in range(1, 25)])
        assert guess.order == 2
        assert guess.numerator == (1,) and guess.denominator == (1, -4, 3)

    def test_separable_power_map_has_no_small_recurrence(self):
        counts = [per_n_closed(PowerMap(3, 2), n) for n in range(1, 31)]
        assert rationality_guess(counts) is None

    def test_signed_multiplicities(self):
        # counts = 3*4^n - 2^n gives zeta = (1 - 2t) / (1 - 4t)^3
        counts = [3 * 4 ** n - 2 ** n for n in range(1, 25)]
        guess = rationality_guess(counts)
        assert guess is not None and guess.numerator is not None
        expansion = series_of_rational(list(guess.numerator),
                                       list(guess.denominator), 25)
        assert expansion == list(zeta_from_counts(counts).coeffs)

    def test_short_prefix_gives_none(self):
        assert rationality_guess([1, 2]) is None


class TestVerdicts:
    def test_inseparable_rational(self):
        v = verdict(PowerMap(3, 3))
        assert v.outcome == "rational" and v.reason == "inseparable"
        assert v.closed_form == ((1,), (1, -4, 3))
        assert v.series_terms_checked >= 30

    def test_transcendental_coefficient_rational(self):
        F3u = ratfunc_field(3)
        fam = AdditiveMap(TwistedPoly.from_elems(F3u, [F3u.u(), F3u.one()]))
        v = verdict(fam)
        assert v.outcome == "rational"
        assert v.reason == "transcendental-linear-coefficient"
        assert v.closed_form == ((1,), (1, -4, 3))

    def test_separable_power_evidence(self):
        v = verdict(PowerMap(3, 2))
        assert v.outcome == "transcendental-evidence"
        assert v.reason == "separable-multiplicative-or-lattes"
        assert v.certificate.consistent()

    def test_separable_additive_evidence(self, F3):
        v = verdict(AdditiveMap(TwistedPoly.from_ints(F3, [-1, 1])))
        assert v.outcome == "transcendental-evidence"
        assert v.reason == "separable-additive-algebraic"
        assert v.certificate.consistent()


class TestCertificates:
    def test_power_map_selections(self):
        cert = certificate_build(PowerMap(3, 2))
        assert (cert.m, cert.ell) == (2, 5)
        assert cert.alpha == 4 and cert.beta == 1
        assert cert.crosscheck_terms >= 1
        assert cert.consistent()

    def test_chebyshev_char2_selections(self):
        cert = certificate_build(ChebyshevMap(2, 3))
        assert (cert.m, cert.ell) == (2, 7)
        assert cert.beta == 2
        assert cert.consistent()

    def test_additive_bound_and_prime(self, F3):
        cert = certificate_build(AdditiveMap(TwistedPoly.from_ints(F3, [-1, 1])))
        assert cert.shape == "tower"
        assert (cert.m, cert.ell) == (2, 29)
        assert cert.tower_multiplier == 1 and not cert.heuristic_bound
        assert cert.consistent()

    def test_subadditive_prime(self, F3):
        cert = certificate_build(SubadditiveMap(TwistedPoly.from_ints(F3, [-1, 1]), 2))
        assert cert.ell == 29
        assert cert.consistent()

    def test_values_follow_the_valuation_formula(self, F3):
        ring = QuadRing(-3, 5)
        geometric = [
            PowerMap(3, 2), PowerMap(11, -3), ChebyshevMap(2, 3),
            ChebyshevMap(5, 4), LattesGenericJ(3, 2), LattesGenericJ(5, -3),
            LattesOrdinary(prime_context(ring, 5), ring.elem(2, 0), 2),
            LattesSupersingular(7, sigma_trace=4, sigma_norm=4),
            LattesSupersingular(3, sigma_quat=QuatElem(B3_ORDER, 2, 2, 0, 0),
                                gamma="units")]
        for fam in geometric:
            cert = certificate_build(fam)
            assert cert.shape == "geometric" and len(cert.values) == 2000
            p, ell = cert.p, cert.ell
            assert all(cert.values[i] == pow(cert.ratio,
                                             v_p(cert.alpha * i + cert.beta, p),
                                             ell)
                       for i in range(2000)), fam
        for fam in (AdditiveMap(TwistedPoly.from_ints(F3, [-1, 1])),
                    SubadditiveMap(TwistedPoly.from_ints(F3, [-1, 1]), 2)):
            cert = certificate_build(fam)
            assert cert.shape == "tower" and len(cert.values) == 2000
            p, ell, a1 = cert.p, cert.ell, cert.tower_multiplier
            ordp = multiplicative_order(p, ell)
            # index 0 takes the generic valuation 0
            vs = [v_p(i, p) if i else 0 for i in range(2000)]
            assert all(cert.values[i] == pow(p, a1 * pow(p, v, ordp) % ordp, ell)
                       for i, v in enumerate(vs)), fam

    def test_tower_values_match_module_sequence(self, F3):
        from dynzeta.automata import vp_tower_sequence
        cert = certificate_build(AdditiveMap(TwistedPoly.from_ints(F3, [-1, 1])))
        seq = vp_tower_sequence(cert.tower_multiplier, cert.p, cert.ell,
                                len(cert.values) - 1)
        assert cert.values[1:] == seq.values

    def test_geometric_values_match_module_sequence(self):
        from dynzeta.automata import vp_geometric_sequence
        cert = certificate_build(PowerMap(3, 2))
        seq = vp_geometric_sequence(cert.ratio, cert.p, cert.ell, cert.alpha,
                                    cert.beta, len(cert.values))
        assert cert.values == seq.values

    def test_char2_additive_large_prime(self, F2):
        # The exponent-tower bound forces ell > 2^(2*2^2) = 256 here, and
        # the deep value profile pushes the positive control onto the
        # saturated valuation classes.
        cert = certificate_build(AdditiveMap(TwistedPoly.from_ints(F2, [1, 1])))
        assert cert.ell == 263 and cert.tower_multiplier == 2
        assert not cert.heuristic_bound
        assert cert.control == "valuation-classes"
        assert cert.consistent()

    def test_lattes_supersingular_certificates(self):
        from dynzeta.families import LattesSupersingular
        from dynzeta.orders import B3_ORDER, QuatElem
        cert = certificate_build(LattesSupersingular(7, sigma_trace=4,
                                                     sigma_norm=4))
        assert cert.ratio == 49 % cert.ell and cert.consistent()
        cert3 = certificate_build(
            LattesSupersingular(3, sigma_quat=QuatElem(B3_ORDER, 2, 2, 0, 0),
                                gamma="units"))
        assert cert3.beta == 3 and cert3.consistent()
