import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynzeta import cli, twisted, zeta
from dynzeta.automata import _driving_sieve, kernel_explore, residue_sequence
from dynzeta.errors import (Mismatch, NonIntegerCoefficient, ScaleExceeded,
                            SpecError)
from dynzeta.families import (AdditiveMap, ChebyshevMap, LattesGenericJ,
                              LattesOrdinary, LattesSupersingular, PowerMap,
                              SubadditiveMap, classify_separability,
                              per_n_closed, per_n_counts)
from dynzeta.field import field_make, ratfunc_field
from dynzeta.intarith import divisors, multiplicative_order, v_p
from dynzeta.orders import (B3_ORDER, HURWITZ, QuadElem, QuadRing, QuatElem,
                            norm_sequence, prime_context)
from dynzeta.twisted import TwistedPoly
from dynzeta.zeta import (RationalGuess, _integer_roots,
                          _supersingular_step, certificate_build,
                          rationality_guess, series_of_rational, verdict,
                          zeta_from_counts)
from test_evidence_memo import POOL


class TestSeries:
    def test_rational_expansion_matches_the_product(self):
        # den * series agrees with num up to the prefix length
        length = 12
        for num in itertools.product(range(-2, 3), repeat=3):
            for a, b in itertools.product(range(-3, 4), repeat=2):
                den = [1, a, b]
                out = series_of_rational(num, den, length)
                assert all(type(c) is int for c in out)
                product = [sum(den[j] * out[i - j]
                               for j in range(min(i, 2) + 1))
                           for i in range(length)]
                assert product == list(num) + [0] * (length - 3)

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

    def test_integer_coefficients_across_families(self, F3):
        fams = [PowerMap(3, 2), PowerMap(5, -3), ChebyshevMap(7, 4),
                AdditiveMap(TwistedPoly.from_ints(F3, [-1, 1])),
                LattesGenericJ(3, 2)]
        for fam in fams:
            counts = [per_n_closed(fam, n) for n in range(1, 25)]
            series = zeta_from_counts(counts)
            assert all(isinstance(c, int) for c in series.coeffs)


# zeta_from_counts divides out 1/((1 - t)(1 - D t)), D = counts_1 - 1, and
# expands the rest on the stride of the defect counts_n - D^n - 1: the
# stride changes the cost, never a coefficient or a refusal.


def _fraction_zeta(counts):
    """(first non-integral index or None, coefficients or refusal message)
    of exp(sum counts_n t^n / n), in Fractions by the plain recurrence."""
    coeffs = [Fraction(1)]
    for j in range(1, len(counts) + 1):
        acc = sum(counts[i - 1] * coeffs[j - i] for i in range(1, j + 1))
        coeffs.append(Fraction(acc) / j)
        if coeffs[-1].denominator != 1:
            return j, f"coefficient {coeffs[-1]} is not an integer"
    return None, tuple(int(c) for c in coeffs)


def _zeta_or_refusal(counts):
    try:
        return zeta_from_counts(counts).coeffs
    except NonIntegerCoefficient as exc:
        return str(exc)


@st.composite
def _counts(draw):
    """A pooled verdict map's counts, or random or permutation counts."""
    length = draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["family", "random", "permutation"]))
    if kind == "family":
        fam = cli.build_family(draw(st.sampled_from(POOL)))
        return list(islice(per_n_counts(fam, 1), length))
    if kind == "random":
        return draw(st.lists(st.integers(0, 10 ** 12), min_size=length,
                             max_size=length))
    # a permutation with cycles[L] cycles of length L: integral zeta
    cycles = draw(st.lists(st.integers(0, 5), min_size=length,
                           max_size=length))
    return [sum(L * cycles[L - 1] for L in divisors(n))
            for n in range(1, length + 1)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_counts())
def test_matches_the_fraction_reference_on_drawn_counts(counts):
    assert _zeta_or_refusal(counts) == _fraction_zeta(counts)[1]


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("g", [2, 3, 4, 6])
def test_planted_sparse_defects_match_the_fraction_reference(g, degree):
    """Counts D^n + 1 + r_n with r_n nonzero only where g | n: a defect of
    signed permutation counts on cycles of lengths divisible by g
    (integral), or a random one (mostly not).  A refusal comes at a
    multiple of g, with the reference's message."""
    rng = random.Random(100 * g + degree)
    fewest = -2 if degree > 1 else 0  # cycles of a length: counts stay >= 0
    refused = whole = 0
    for trial in range(60):
        length = rng.randint(g, 48)
        if trial % 2:
            cycles = {L: rng.randint(fewest, 3)
                      for L in range(g, length + 1, g)}
            defect = [sum(L * cycles.get(L, 0) for L in divisors(n))
                      for n in range(1, length + 1)]
        else:
            defect = [rng.randint(-degree ** n - 1, 3) if n % g == 0
                      else 0 for n in range(1, length + 1)]
        counts = [degree ** n + 1 + r for n, r in enumerate(defect, 1)]
        index, expected = _fraction_zeta(counts)
        assert _zeta_or_refusal(counts) == expected
        if index is None:
            whole += 1
        else:
            assert index % g == 0
            refused += 1
    assert refused >= 10 and whole >= 10


@pytest.mark.parametrize("degree", [-1, 0, 1, 2, 5])
def test_an_all_zero_defect_is_the_rational_part(degree):
    counts = [degree ** n + 1 for n in range(1, 41)]
    expected = tuple(series_of_rational([1], [1, -(degree + 1), degree], 41))
    assert zeta_from_counts(counts).coeffs == expected
    assert zeta_from_counts([]).coeffs == (1,)


# References for rationality_guess and _integer_roots: a fresh exact
# linear solve for every order 1..max_order, a Vandermonde solve for the
# multiplicities and a search of the constant term's divisors for the roots.
MAX_ORDERS = [0, 1, 3, 8, 12]


def _reference_solve_linear(rows, rhs):
    """Exact Gaussian elimination; any solution of rows*x = rhs or None."""
    m = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][col]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][ncols]
    return x


def _reference_integer_roots(poly):
    denom = math.lcm(*[c.denominator for c in poly]) if poly else 1
    coeffs = [int(c * denom) for c in poly]
    roots = []
    while len(coeffs) > 1:
        if coeffs[0] == 0:
            return None
        found = next((root for cand in divisors(abs(coeffs[0]))
                      for root in (cand, -cand)
                      if sum(c * root ** i for i, c in enumerate(coeffs)) == 0),
                     None)
        if found is None:
            return None
        out = [0] * (len(coeffs) - 1)
        acc = 0
        for i in range(len(coeffs) - 1, 0, -1):
            acc = coeffs[i] + acc * found
            out[i - 1] = acc
        coeffs = out
        roots.append(found)
    if len(set(roots)) != len(roots):
        return None
    return roots


def _reference_guess(counts, max_order):
    """(order, numerator, denominator) of the least fitting order, or None."""
    counts = list(counts)
    for r in range(1, max_order + 1):
        if len(counts) < 2 * r + 4:
            break
        rows = [counts[j:j + r][::-1] for j in range(len(counts) - r)]
        rhs = [counts[j + r] for j in range(len(counts) - r)]
        q = _reference_solve_linear(rows, rhs)
        if q is None:
            continue
        char = [-qi for qi in reversed(q)] + [Fraction(1)]
        roots = _reference_integer_roots(char)
        if roots is None:
            return r, None, None
        vand = [[Fraction(a ** n) for a in roots] for n in range(1, r + 1)]
        mult = _reference_solve_linear(vand, counts[:r])
        if mult is None or any(e.denominator != 1 for e in mult):
            return r, None, None
        es = [int(e) for e in mult]
        if any(sum(e * a ** n for e, a in zip(es, roots)) != counts[n - 1]
               for n in range(1, len(counts) + 1)):
            return r, None, None
        num, den = [1], [1]
        for a, e in zip(roots, es):
            for _ in range(abs(e)):
                target = den if e > 0 else num
                updated = [0] * (len(target) + 1)
                for i, c in enumerate(target):
                    updated[i] += c
                    updated[i + 1] -= c * a
                if e > 0:
                    den = updated
                else:
                    num = updated
        expansion = series_of_rational(num, den, len(counts) + 1)
        if expansion != list(zeta_from_counts(counts).coeffs):
            return r, None, None
        return r, tuple(num), tuple(den)
    return None


def _outcome(guess, counts, max_order):
    """The guess as (order, numerator, denominator), or the exception type."""
    try:
        result = guess(counts, max_order)
    except Exception as exc:
        return type(exc)
    if result is None or isinstance(result, tuple):
        return result
    return result.order, result.numerator, result.denominator


def _root_set(roots):
    return None if roots is None else set(roots)


@st.composite
def _geometric_prefixes(draw):
    """sum e_i a_i^n over distinct a_i in [-9, 9] - {0} and e_i in
    +-{1, 2, 3}, for n = 1..length, sometimes with one term perturbed."""
    roots = draw(st.lists(st.integers(-9, 9).filter(bool), max_size=9,
                          unique=True))
    mults = [draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for _ in roots]
    length = draw(st.integers(0, 40) | st.integers(24, 40))
    counts = [sum(e * a ** n for e, a in zip(mults, roots))
              for n in range(1, length + 1)]
    if length and draw(st.booleans()):
        counts[draw(st.integers(0, length - 1))] += draw(
            st.sampled_from([-2, -1, 1, 2]))
    return counts


@st.composite
def _split_polys(draw):
    """lead/scale * prod (x - r) with repeated and zero roots allowed."""
    poly = [Fraction(draw(st.sampled_from([-6, -2, -1, 1, 3, 5])),
                     draw(st.integers(1, 12)))]
    for r in draw(st.lists(st.integers(-30, 30), min_size=1, max_size=8)):
        poly = [a - r * b for a, b in zip([0] + poly, poly + [0])]
    return poly


@st.composite
def _zeta_prefixes(draw):
    """Nonnegative counts 3*100^n + sum e_i a_i^n over distinct a_i in
    [-9, 9] - {0} and e_i in +-{1, 2, 3}: the zeta function is
    prod (1 - a t)^(-e), so its series has integer coefficients."""
    roots = draw(st.lists(st.integers(-9, 9).filter(bool), max_size=6,
                          unique=True))
    mults = [draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for _ in roots]
    length = draw(st.integers(0, 40))
    return [3 * 100 ** n + sum(e * a ** n for e, a in zip(mults, roots))
            for n in range(1, length + 1)]


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

    def test_large_prime_root_found_fast(self):
        # 1 + D^n with D prime: the root D is reached by Newton steps, not
        # by a scan of every integer up to it
        D = 10 ** 12 + 39
        start = time.perf_counter()
        guess = rationality_guess([1 + D ** n for n in range(1, 25)])
        assert time.perf_counter() - start < 5.0
        assert guess.numerator == (1,) and guess.denominator == (1, -(D + 1), D)

    @pytest.mark.parametrize("max_order", MAX_ORDERS)
    def test_all_zero_prefixes_match_the_per_order_search(self, max_order):
        for length in range(41):
            counts = [0] * length
            assert (_outcome(rationality_guess, counts, max_order)
                    == _outcome(_reference_guess, counts, max_order))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_geometric_prefixes(), st.sampled_from(MAX_ORDERS))
    def test_matches_the_per_order_search(self, counts, max_order):
        assert (_outcome(rationality_guess, counts, max_order)
                == _outcome(_reference_guess, counts, max_order))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_zeta_prefixes(), st.sampled_from(MAX_ORDERS))
    def test_zeta_prefixes_match_the_per_order_search(self, counts, max_order):
        assert (_outcome(rationality_guess, counts, max_order)
                == _outcome(_reference_guess, counts, max_order))

    @pytest.mark.parametrize("index", [0, 1, 2, 3, 4])
    def test_a_disagreeing_closed_form_yields_no_closed_form(
            self, index, monkeypatch):
        # the certificate stays live: one coefficient of the closed form
        # off, and the recurrence is reported without a closed form
        counts = [1 + 3 ** n for n in range(1, 25)]
        assert rationality_guess(counts).numerator == (1,)
        holds = zeta._closed_form_holds

        def off_by_one(counts, num, den):
            # index 0 is the numerator's one coefficient, 1-3 the
            # denominator's, 4 a new numerator term
            num, den = list(num), list(den)
            if index == 0:
                num[0] += 1
            elif index < 4:
                den[index - 1] += 1
            else:
                num.append(1)
            return holds(counts, num, den)

        monkeypatch.setattr(zeta, "_closed_form_holds", off_by_one)
        guess = rationality_guess(counts)
        assert guess.order == 2
        assert guess.numerator is None and guess.denominator is None

    @pytest.mark.parametrize("max_order", [1, 3, 8])
    def test_negative_counts_that_fit_are_refused(self, max_order):
        # [-3] * 6 fits (1 - t)^3; like the exponential formula,
        # the closed form's certificate refuses the negative counts
        with pytest.raises(SpecError):
            rationality_guess([-3] * 6, max_order)
        assert (_outcome(rationality_guess, [-3] * 6, max_order)
                == _outcome(_reference_guess, [-3] * 6, max_order)
                == SpecError)
        if max_order >= 2:
            # (1 - 3t) / (1 - 2t) fits at order 2
            counts = [2 ** n - 3 ** n for n in range(1, 25)]
            with pytest.raises(SpecError):
                rationality_guess(counts, max_order)

    def test_repeated_and_zero_roots_do_not_split(self):
        # (x - 2)^2 (x + 3) and x (x - 3); then (x - 2)(x + 3)
        assert _integer_roots([Fraction(c) for c in (12, -8, -1, 1)]) is None
        assert _integer_roots([Fraction(c) for c in (0, -3, 1)]) is None
        roots = _integer_roots([Fraction(c) for c in (-6, 1, 1)])
        assert sorted(roots) == [-3, 2]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_split_polys())
    def test_split_roots_match_the_divisor_search(self, poly):
        assert _root_set(_integer_roots(poly)) == _root_set(
            _reference_integer_roots(poly))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.builds(Fraction, st.integers(-60, 60),
                              st.integers(1, 8)), min_size=1, max_size=9)
           .filter(lambda poly: poly[-1] != 0))
    def test_rational_roots_match_the_divisor_search(self, poly):
        assert _root_set(_integer_roots(poly)) == _root_set(
            _reference_integer_roots(poly))


def _zeta_command(counts, max_order):
    """(exit code, printed zeta coefficients or None) of the zeta command
    on a map whose periodic-point counts are counts."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["zeta", "--family", "power", "--p", "3", "--d", "2",
            "--terms", str(len(counts)), "--max-order", str(max_order)]
    with mock.patch.object(cli, "per_n_counts",
                           lambda fam, first: iter(counts)), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv, out=out)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    if not records:
        return code, None
    record = next(r for r in records if r["record"] == "zeta")
    assert record["provenance"] == "exp-formula"
    return code, [int(c) for c in record["coefficients"]]


def _exp_formula(counts):
    """The zeta command's expected (exit code, coefficients), from the
    exponential formula alone."""
    try:
        return 0, list(zeta_from_counts(counts).coeffs)
    except SpecError:
        return 2, None
    except NonIntegerCoefficient:
        return 4, None


class TestZetaRoutes:
    """The zeta command prints the exponential formula's coefficients on
    every prefix, and a rational zeta's are the expansion of the closed
    form its rationality record prints."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_geometric_prefixes(), st.sampled_from(MAX_ORDERS))
    def test_geometric_prefixes_print_the_exponential_formula(
            self, counts, max_order):
        assert _zeta_command(counts, max_order) == _exp_formula(counts)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_zeta_prefixes(), st.sampled_from(MAX_ORDERS))
    def test_zeta_prefixes_print_the_exponential_formula(
            self, counts, max_order):
        assert _zeta_command(counts, max_order) == _exp_formula(counts)

    @pytest.mark.parametrize("spec", [
        "--family power --p 3 --d 3",
        "--family power --p 5 --d -5",
        "--family chebyshev --p 5 --d 5",
        "--family lattes-generic --p 7 --s 7",
        "--family lattes-ordinary --p 11 --tau 3,11 --sigma 0,1",
        "--family additive --ratfunc --p 3 --sigma u,1"])
    def test_a_rational_zeta_prints_its_closed_form_expansion(self, spec):
        out = io.StringIO()
        assert cli.main(["zeta", *spec.split(), "--terms", "400"],
                        out=out) == 0
        *_, zeta_record, rationality = map(json.loads,
                                           out.getvalue().splitlines())
        num, den = ([int(c) for c in rationality[side]]
                    for side in ("numerator", "denominator"))
        assert ([int(c) for c in zeta_record["coefficients"]]
                == series_of_rational(num, den, 401))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_zeta_prefixes().filter(lambda counts: len(counts) >= 30),
           st.data())
    def test_the_certificate_rejects_one_coefficient_off(self, counts, data):
        guess = rationality_guess(counts, 12)
        num, den = list(guess.numerator), list(guess.denominator)
        assert zeta._closed_form_holds(counts, num, den)
        side = data.draw(st.sampled_from([num, den]))
        side[data.draw(st.integers(0, len(side) - 1))] += data.draw(
            st.sampled_from([-1, 1]))
        assert not zeta._closed_form_holds(counts, num, den)

    @pytest.mark.parametrize("fam", [PowerMap(3, 3), PowerMap(5, 2),
                                     ChebyshevMap(5, 5), ChebyshevMap(3, 2)])
    def test_family_guesses_match_the_per_order_search(self, fam):
        counts = [per_n_closed(fam, n) for n in range(1, 41)]
        assert (_outcome(rationality_guess, counts, 8)
                == _outcome(_reference_guess, counts, 8))

    @pytest.mark.parametrize("count", [lambda n: -3, lambda n: 2 ** n - 3 ** n,
                                       lambda n: -n * n])
    def test_negative_counts_exit_2_with_empty_stdout(self, count,
                                                      monkeypatch, capsys):
        # the first two fit a closed form; the last fits a recurrence with
        # a repeated root, so no closed form, and reaches the exponential
        monkeypatch.setattr(cli, "per_n_counts",
                            lambda fam, first: map(count, itertools.count(first)))
        out = io.StringIO()
        code = cli.main(["zeta", "--family", "power", "--p", "3", "--d", "2",
                         "--terms", "30"], out=out)
        assert (code, out.getvalue()) == (2, "")
        assert "counts cannot be negative" in capsys.readouterr().err


def test_negative_counts_are_refused_only_with_a_closed_form():
    # 2^n - 3^n fits (1 - 3t)/(1 - 2t): refused once the certificate holds
    with pytest.raises(SpecError, match="counts cannot be negative"):
        rationality_guess([2 ** n - 3 ** n for n in range(1, 31)])
    # (2^n - 4^n)/2 has the residues 1/2 and -1/2: no closed form, so the
    # guess stands
    guess = rationality_guess([(2 ** n - 4 ** n) // 2 for n in range(1, 31)])
    assert guess == RationalGuess(2, None, None)


def _fraction_berlekamp_massey(counts, bound):
    """The Berlekamp-Massey pass over Fractions that the fraction-free
    one replaced: (L, C) with C[0] = 1, or None once L passes bound."""
    conn, prev = [Fraction(1)], [Fraction(1)]
    order, shift, prev_gap = 0, 1, Fraction(1)
    for n in range(len(counts)):
        gap = sum(c * counts[n - i] for i, c in enumerate(conn))
        if gap == 0:
            shift += 1
            continue
        updated = conn + [0] * (len(prev) + shift - len(conn))
        for i, c in enumerate(prev):
            updated[i + shift] -= gap / prev_gap * c
        if 2 * order > n:
            shift += 1
        else:
            order, prev, prev_gap, shift = n + 1 - order, conn, gap, 1
            if order > bound:
                return None
        conn = updated
    return order, conn


@st.composite
def _recurrence_prefixes(draw):
    """Random integer prefixes (few distinct values, so that long runs
    of zero discrepancies occur) or terms of a random integer
    recurrence, sometimes with one term perturbed."""
    length = draw(st.integers(0, 60))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-3, 3), min_size=length,
                             max_size=length))
    taps = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
    counts = draw(st.lists(st.integers(-5, 5), min_size=len(taps),
                           max_size=len(taps)))
    while len(counts) < length:
        counts.append(sum(t * c for t, c in zip(taps, counts[::-1])))
    counts = counts[:length]
    if length and draw(st.booleans()):
        counts[draw(st.integers(0, length - 1))] += 1
    return counts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_recurrence_prefixes() | _geometric_prefixes() | _zeta_prefixes(),
       st.sampled_from([0, 1, 3, 8, 30]))
def test_fraction_free_pass_matches_the_fraction_pass(counts, bound):
    # the same order and connection polynomial, list length included
    assert (zeta._berlekamp_massey(counts, bound)
            == _fraction_berlekamp_massey(counts, bound))


@pytest.mark.parametrize("fam", [PowerMap(3, 2), PowerMap(5, 3),
                                 ChebyshevMap(5, 5), ChebyshevMap(3, 2)])
def test_fraction_free_pass_matches_on_family_counts(fam):
    counts = [per_n_closed(fam, n) for n in range(1, 61)]
    assert (zeta._berlekamp_massey(counts, 28)
            == _fraction_berlekamp_massey(counts, 28))


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

    def test_a_disagreeing_count_fails_the_rational_verdict(self,
                                                            monkeypatch):
        # the closed form is checked by its certificate on SERIES_TERMS
        # counts; one count off is a Mismatch, and so are negative counts,
        # which are refused only once a closed form fits them
        closed = zeta.per_n_counts
        monkeypatch.setattr(zeta, "per_n_counts", lambda fam, first: (
            count + (n == zeta.SERIES_TERMS)
            for n, count in enumerate(closed(fam, first), first)))
        with pytest.raises(Mismatch,
                           match="closed form disagrees with the count series"):
            verdict(PowerMap(3, 3))
        monkeypatch.setattr(zeta, "per_n_counts",
                            lambda fam, first: itertools.repeat(-1))
        with pytest.raises(Mismatch,
                           match="closed form disagrees with the count series"):
            verdict(PowerMap(3, 3))

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

    @pytest.mark.parametrize("fam", [
        PowerMap(101, 2), LattesSupersingular(47, sigma_trace=0, sigma_norm=3)])
    def test_inconsistent_certificate_is_inconclusive(self, fam):
        # the base-p kernel does not close within budget at these primes
        v = verdict(fam)
        assert not v.certificate.consistent()
        assert v.outcome == "inconclusive"
        assert v.reason == "separable-multiplicative-or-lattes"


class TestCountRuns:
    def test_a_capped_run_forms_no_power_past_its_first_count(self,
                                                             monkeypatch):
        # m = 10200 at p = 101: the second count index passes the
        # crosscheck cap, so no count forms sigma^(m alpha) or a product
        # wider than sigma^m
        fam = LattesSupersingular(101, sigma_trace=1, sigma_norm=3)
        first = fam.sigma ** 10200
        widest = max(abs(first.a), abs(first.b)).bit_length()
        sizes, counting = [], []
        mul, counts = QuadElem.__mul__, zeta.per_n_counts

        def recording(x, y):
            out = mul(x, y)
            if counting:
                sizes.append(max(abs(out.a), abs(out.b)).bit_length())
            return out

        def counted(*args):
            run = counts(*args)
            while True:
                counting.append(True)
                try:
                    count = next(run)
                except StopIteration:
                    return
                finally:
                    counting.pop()
                yield count

        monkeypatch.setattr(QuadElem, "__mul__", recording)
        monkeypatch.setattr(zeta, "per_n_counts", counted)
        cert = certificate_build(fam)
        assert (cert.m, cert.crosscheck_terms) == (10200, 1)
        assert sizes and max(sizes) <= widest

    def test_split_pair_fails_before_any_kernel(self, monkeypatch):
        calls = []
        monkeypatch.setattr(zeta, "kernel_explore",
                            lambda *args, **kwargs: calls.append(args))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["verdict", "--family", "lattes-supersingular",
                             "--p", "5", "--sigma-tn", "2,12"], out=out)
        assert (code, out.getvalue(), calls) == (4, "", [])
        assert "fails count re-derivation at n=0" in err.getvalue()


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
        assert cert.tower_multiplier == 1
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
            LattesSupersingular(3, sigma_quat=QuatElem(B3_ORDER, 4, 0, 0, 0),
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

    # sha256 of repr(certificate) for the verdict pool's additive and
    # d = 2 subadditive maps at p = 3, by (family, m = ord(c0))
    TOWER_DIGESTS = {
        ("additive", 1): "bf15369259ba566eb00999b51bcaa8cfc2d2797342cfd9ab1e45c75c92fdc191",
        ("additive", 2): "e0e1715053d8880441510f0757d130343fb40cf1584a3cc2e49bcf723a49aa78",
        ("subadditive", 1): "cdff4f31ba10a60008e4f0caa4f3086b8dab01914c097a0223cbb23b25293445",
        ("subadditive", 2): "4992b570b66add7cb153cad50f8384a10ab4a422bcff5b2c094dc1b4cf83a077"}

    @pytest.mark.parametrize("sigma", [[1, 1], [-1, 1], [1, 1, 1], [1, -1, 1],
                                       [1, 2, 1]], ids=str)
    def test_tower_certificate_forms_no_twisted_power(self, F3, sigma,
                                                      monkeypatch):
        # v0 is read off sigma in closed form (twisted.v_phi_pow_minus),
        # and the certificates are the ones the twisted power gave
        def refuse(*args):
            raise AssertionError("twisted power formed")

        monkeypatch.setattr(twisted, "tw_pow", refuse)
        monkeypatch.setattr(twisted, "tw_mul", refuse)
        sig = TwistedPoly.from_ints(F3, sigma)
        for fam in (AdditiveMap(sig), SubadditiveMap(sig, 2)):
            cert = certificate_build(fam)
            digest = hashlib.sha256(repr(cert).encode()).hexdigest()
            assert digest == self.TOWER_DIGESTS[fam.name, cert.m]

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
        assert cert.control == "valuation-classes"
        assert cert.consistent()

    @pytest.mark.parametrize("fam", [
        PowerMap(5, 2), PowerMap(11, 3), ChebyshevMap(5, 3), LattesGenericJ(5, 2),
        LattesSupersingular(11, sigma_trace=0, sigma_norm=3)])
    def test_one_prefix_as_long_as_its_longest_reader(self, fam, monkeypatch):
        # the control is chosen before the prefix is formed, so the value
        # kernel's horizon is not formed when that kernel does not run
        lengths, reads = [], []
        sequence, explore = zeta.residue_sequence, zeta.kernel_explore

        def recorded_sequence(*args):
            lengths.append(args[-1])
            return sequence(*args)

        def recorded_explore(seq, base, depth, prefix_len, budget):
            reads.append(base ** depth * prefix_len)
            return explore(seq, base, depth, prefix_len, budget=budget)

        monkeypatch.setattr(zeta, "residue_sequence", recorded_sequence)
        monkeypatch.setattr(zeta, "kernel_explore", recorded_explore)
        cert = certificate_build(fam)
        assert cert.control == "valuation-classes"
        assert lengths == [max([zeta.PERIOD_TERMS] + reads)]

    def test_ell_past_the_kernel_budget_refused_before_counting(self, F3):
        # ell > 3^18 is past the prime search cap, so the certificate is
        # refused; the first re-derived count, about 3^(2 m ell), must not
        # be formed before that refusal
        start = time.perf_counter()
        with pytest.raises(ScaleExceeded, match="past the prime search cap"):
            certificate_build(AdditiveMap(TwistedPoly.from_ints(F3, [1, 0, 1])))
        assert time.perf_counter() - start < 5.0

    def test_additive_top_two_certifies(self):
        # (top + 1) * m * (ell - 1) = 3 * 4 * 3136 passes the old whole-power
        # guard, but its count reads the valuation off sigma
        cert = certificate_build(AdditiveMap(
            TwistedPoly.from_ints(field_make(5), [2, 2, 1])))
        assert (cert.m, cert.ell) == (4, 3137)
        assert cert.crosscheck_terms == 1 and cert.consistent()

    def test_supersingular_ell_is_prime_to_the_degree(self):
        # deg sigma = nrd(sigma) = N; the residue sequence needs ell prime
        # to it (13 divides N here but not N + 1)
        cert = certificate_build(LattesSupersingular(11, sigma_trace=2,
                                                     sigma_norm=13))
        assert 13 % cert.ell != 0
        assert cert.ell == 79 and cert.consistent()

    def test_lattes_supersingular_certificates(self):
        from dynzeta.families import LattesSupersingular
        from dynzeta.orders import B3_ORDER, QuatElem
        cert = certificate_build(LattesSupersingular(7, sigma_trace=4,
                                                     sigma_norm=4))
        assert cert.ratio == 49 % cert.ell and cert.consistent()
        cert3 = certificate_build(
            LattesSupersingular(3, sigma_quat=QuatElem(B3_ORDER, 4, 0, 0, 0),
                                gamma="units"))
        assert cert3.beta == 3 and cert3.consistent()


# Verdicts outside the pool, one per base-p control branch no pooled job
# takes: values with p | alpha, tower classes at p = 2, tower values.
CONTROL_SPECS = [{"family": "power", "p": 2, "d": 3},
                 {"family": "additive", "p": 2, "sigma": [1, 1]},
                 {"family": "additive", "p": 3, "sigma": [2, 1]}]


def _certified_maps():
    """The separable maps of the verdict pool and CONTROL_SPECS."""
    maps = [cli.build_family(params) for params in POOL + CONTROL_SPECS]
    return [fam for fam in maps if classify_separability(fam) == "separable"
            and verdict(fam).certificate is not None]


def _array_control(cert):
    """(control, report) of the base-p control by kernel_explore on the
    materialised arrays: the value prefix when its kernel closes, else
    the saturated valuation classes."""
    p, ell, a1 = cert.p, cert.ell, cert.tower_multiplier
    budget = 4 * zeta.KERNEL_BUDGET
    depth = zeta._fit_depth(p, zeta.KERNEL_PREFIX, zeta.KERNEL_BUDGET,
                            zeta.MAX_P_DEPTH)
    if zeta._control_period(cert.shape, cert.ratio, a1, p, ell) + 2 <= depth:
        values = residue_sequence(cert.shape, cert.ratio, a1, cert.alpha,
                                  cert.beta, p, ell,
                                  p ** depth * zeta.KERNEL_PREFIX)
        report = kernel_explore(values, p, depth, zeta.KERNEL_PREFIX, budget)
        if report.closed:
            return "values", report
    depth = zeta._fit_depth(p, zeta.CLASS_PREFIX, zeta.KERNEL_BUDGET,
                            zeta.MAX_P_DEPTH)
    sat = max(2, min(6, depth - 3))
    classes = _driving_sieve(cert.shape, cert.alpha, cert.beta, p,
                             p ** depth * zeta.CLASS_PREFIX,
                             lambda v: min(v, sat), np.min_scalar_type(sat))
    return "valuation-classes", kernel_explore(classes, p, depth,
                                               zeta.CLASS_PREFIX, budget)


class TestProgressionControl:
    def test_controls_match_the_materialised_arrays(self):
        controls = set()
        for fam in _certified_maps():
            zeta._evidence.cache_clear()
            cert = certificate_build(fam)
            assert (cert.control, cert.p_kernel) == _array_control(cert), fam
            controls.add((cert.shape, cert.control))
        assert len(controls) == 4

    def test_cold_build_forms_only_the_ell_kernel_horizon(self, monkeypatch):
        # the control reads no term, so the one prefix is as long as the
        # period scan's first window or the base-ell kernel; a longer one
        # is formed only for a scan window past it
        events = []
        sequence, detect = zeta.residue_sequence, zeta.eventual_period_detect

        def recorded_sequence(*args):
            events.append(("sequence", args[-1]))
            return sequence(*args)

        def recorded_detect(prefix):
            events.append(("scan", len(prefix)))
            return detect(prefix)

        monkeypatch.setattr(zeta, "residue_sequence", recorded_sequence)
        monkeypatch.setattr(zeta, "eventual_period_detect", recorded_detect)
        for fam in _certified_maps():
            zeta._evidence.cache_clear()
            events.clear()
            cert = certificate_build(fam)
            kernel = cert.ell_kernel
            horizon = max(zeta.PERIOD_TERMS,
                          cert.ell ** kernel.depth * kernel.prefix_len)
            assert events[0] == ("sequence", horizon), fam
            for i, (kind, length) in enumerate(events[1:], 1):
                if kind == "sequence":
                    assert length > horizon, fam
                    assert events[i + 1] == ("scan", length), fam

    def test_norm_sequences_mod_ell_match_the_exact_powers(self):
        # every ring multiplier of the pool, and a supersingular step
        # m = 10200 whose exact powers run to hundreds of thousands of bits
        specs = [params for params in POOL if params["family"] in
                 ("lattes-ordinary", "lattes-supersingular")]
        specs.append({"family": "lattes-supersingular", "p": 101,
                      "sigma_tn": [1, 3]})
        checked = 0
        for params in specs:
            fam = cli.build_family(params)
            if classify_separability(fam) == "inseparable":
                continue
            cert = certificate_build(fam)
            sig_m = fam.sigma ** cert.m
            for g in fam.gammas:
                exact, power = [], sig_m ** 0
                for _ in range(16):
                    exact.append((power - g).norm() % cert.ell)
                    power = power * sig_m
                assert norm_sequence(sig_m, g, cert.ell, 16).terms == tuple(
                    exact), params
                checked += 1
        assert cert.m == 10200 and checked > 40


class TestSupersingularStep:
    def test_least_step_by_scan(self):
        # the divisor search returns the least k >= 1 of all
        for p in (5, 7, 11, 13):
            for T, N in ((0, 2), (1, 2), (0, 3), (2, 3), (1, 3), (4, 4), (3, 5)):
                fam = LattesSupersingular(p, sigma_trace=T, sigma_norm=N)
                m = _supersingular_step(fam)
                assert (p * p - 1) % m == 0
                assert m == next(k for k in range(1, p * p)
                                 if v_p((fam.sigma ** k - 1).norm(), p) >= 1)

    def test_quaternion_guard(self):
        fam = LattesSupersingular(2, sigma_quat=QuatElem(HURWITZ, 3, 1, 1, 1))
        m = _supersingular_step(fam)
        assert 3 * 16 % m == 0 and v_p((fam.sigma ** m - 1).norm(), 2) >= 3
        assert all(v_p((fam.sigma ** k - 1).norm(), 2) < 3 for k in range(1, m))

    def test_steps_past_two_thousand(self):
        # these orders of sigma in F_(p^2)^* exceed the old scan bound 2000
        for p, T, N, m in ((59, 1, 2, 3480), (61, 1, 2, 3720),
                           (101, 1, 3, 10200), (101, 1, 2, 3400)):
            fam = LattesSupersingular(p, sigma_trace=T, sigma_norm=N)
            assert _supersingular_step(fam) == m

    def test_step_past_the_index_cap_refused(self):
        # step 22200 (the order of sigma in F_(149^2)^*); T^2 - 4N = -11 is
        # a non-square mod 149, so p is inert in Q(sigma)
        fam = LattesSupersingular(149, sigma_trace=1, sigma_norm=3)
        with pytest.raises(ScaleExceeded, match="crosscheck index cap"):
            certificate_build(fam)
