import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynzeta import automata, modpoly
from dynzeta.automata import (Dfao, KernelReport, _driving_sieve,
                              check_kernel_budget, christol_series,
                              eventual_period_detect, frobenius_horner,
                              kernel_cost, kernel_explore, progression_kernel,
                              vp_geometric_sequence, vp_tower_sequence)
from dynzeta.errors import (HypothesisViolated, NotARoot, ScaleExceeded,
                            SingularRoot, SpecError)
from dynzeta.intarith import check_prime

PARITY = Dfao(2, ((0, 1), (1, 0)), (0, 1))

# LSD-first indicator of powers of two: states track "seen exactly one 1
# so far" / "nothing yet" / "dead".
PO2 = Dfao(2, ((0, 1), (1, 2), (2, 2)), (0, 1, 0))


def po2(n):
    return 1 if n > 0 and n & (n - 1) == 0 else 0


class TestDfao:
    def test_parity(self):
        assert [PARITY.eval(n) for n in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_powers_of_two_indicator(self):
        for n in range(512):
            assert PO2.eval(n) == po2(n)

    def test_zero_reads_empty_word(self):
        assert PO2.eval(0) == 0 and PARITY.eval(0) == 0

    def test_trailing_zero_invariant_enforced(self):
        with pytest.raises(SpecError):
            Dfao(2, ((1, 0), (0, 1)), (0, 1))   # 0-transition flips output

    def test_trailing_zero_exhaustive(self):
        # appending zero digits (multiplying by powers of the base after
        # the significant digits) never changes the value
        for auto in (PARITY, PO2):
            for n in range(2 ** 12):
                state = auto.initial
                digits = []
                m = n
                while m:
                    digits.append(m % auto.base)
                    m //= auto.base
                for d in digits:
                    state = auto.transitions[state][d]
                padded = state
                for _ in range(4):
                    padded = auto.transitions[padded][0]
                    assert auto.outputs[padded] == auto.outputs[state]


class TestChristol:
    def test_powers_of_two_fixture(self):
        coeffs = christol_series([[0, 1], [1], [1]], 2, [0, 1], 4096)
        assert coeffs == [po2(n) for n in range(4096)]

    def test_geometric_series(self):
        assert christol_series([[-1], [1, -1]], 5, [1], 16) == [1] * 16

    def test_linear(self):
        assert christol_series([[0, -1], [1]], 3, [0], 6) == [0, 1, 0, 0, 0, 0]

    def test_thue_morse_equation(self):
        # (1+t)^3 y^2 + (1+t)^2 y + t = 0 over F_2, expanded coefficients
        seq = christol_series([[0, 1], [1, 0, 1], [1, 1, 1, 1]], 2, [0, 1], 256)
        assert seq == [bin(n).count("1") % 2 for n in range(256)]

    def test_bad_prefix_rejected(self):
        with pytest.raises(NotARoot):
            christol_series([[0, 1], [1], [1]], 2, [1, 0], 16)

    def test_second_root_reachable(self):
        # y^2 + y + t has two series roots; [1, 1] pins the other one.
        first = christol_series([[0, 1], [1], [1]], 2, [0, 1], 64)
        second = christol_series([[0, 1], [1], [1]], 2, [1, 1], 64)
        assert second[0] == 1
        assert [(a + b) % 2 for a, b in zip(first, second)] == [1] + [0] * 63

    def test_singular_without_depth(self):
        # y^2 - t has derivative 2y = 0 identically over F_2
        with pytest.raises((SingularRoot, NotARoot)):
            christol_series([[0, -1], [], [1]], 2, [0], 16)

    def test_negative_length_refused(self):
        # a negative length once cut |length| terms off the prefix
        with pytest.raises(SpecError, match="must not be negative"):
            christol_series([[0, 1], [1], [1]], 2, [0, 1, 1, 0, 1, 0], -4)

    def test_dfao_against_christol(self):
        coeffs = christol_series([[0, 1], [1], [1]], 2, [0, 1], 512)
        for n in range(512):
            assert PO2.eval(n) == coeffs[n]


# -- full-precision reference for christol_series ---------------------------------
#
# Every Newton step below evaluates P and P' and inverts the unit at the
# full working length.  The root with val(y - r) > v is unique, so the
# precision-doubling loop in the library must return the same list, or
# raise the same exception with the same message.  The one exception is
# a P(y0) that vanishes past the reference's probe without passing the
# Hensel gate, which the library refuses and the reference does not
# (test_christol_gate_decided_past_the_probe).
#
# The references compute on lists of Python ints with the helpers below,
# so they share no code with the library's numpy series.


def _trim(a):
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


def _add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    return _trim([(x + y) % p for x, y in zip(a, b)] + a[len(b):])


def _neg(a, p):
    return [(-c) % p for c in a]


def _sub(a, b, p):
    return _add(a, _neg(b, p), p)


def _mul(a, b, p):
    """The trimmed product of two lists of residues, by one product of
    Python ints with a w-byte slot per coefficient."""
    if not a or not b:
        return []
    w = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8

    def pack(c):
        return int.from_bytes(b"".join(x.to_bytes(w, "little") for x in c), "little")
    n = len(a) + len(b) - 1
    data = (pack(a) * pack(b)).to_bytes(n * w, "little")
    return _trim([int.from_bytes(data[i:i + w], "little") % p
                  for i in range(0, n * w, w)])


def _ref_series_mul(a, b, p, n):
    return _mul(a[:n], b[:n], p)[:n]


def _ref_series_inv(a, p, n):
    if not a or a[0] == 0:
        raise SpecError("series inversion needs a unit constant term")
    inv = [pow(a[0], p - 2, p)]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        t = _ref_series_mul(a[:prec], inv, p, prec)
        two_minus = [(-c) % p for c in t] + [0] * (prec - len(t))
        two_minus[0] = (two_minus[0] + 2) % p
        inv = _ref_series_mul(inv, two_minus, p, prec)
        inv += [0] * (prec - len(inv))
    return inv[:n]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from((2, 3, 7, 13)), st.integers(1, 300),
       st.integers(1, 300), st.data())
def test_warm_series_inverse_equals_a_cold_one(p, n, valid, data):
    # a start valid mod t^valid for a unit b = a mod t^valid, as the
    # inverse of P'(y)/t^v at the last Newton step is for the next one
    a = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=n)
                  .filter(lambda a: a[0]))
    b = data.draw(st.lists(st.integers(0, p - 1), max_size=n))
    b = a[:valid] + [0] * (valid - len(a)) + b
    start = automata._series_inv(modpoly.residues(b, p), p, valid)
    warm = automata._series_inv(modpoly.residues(a, p), p, n, start,
                                valid).tolist()
    cold = automata._series_inv(modpoly.residues(a, p), p, n).tolist()
    assert _trim(warm) == _trim(cold)
    assert _trim(cold) == _trim(_ref_series_inv(a, p, n))


def _ref_series_val(a):
    for i, c in enumerate(a):
        if c:
            return i
    return None


def _ref_christol(poly_y, p, prefix, length):
    check_prime(p)
    poly_y = [list(c) for c in poly_y]
    if len(poly_y) < 2:
        raise SpecError("equation must involve y")
    work = length + 8
    d_poly_y = [[c * j for c in coeff] for j, coeff in enumerate(poly_y)][1:]

    def horner(coeffs, y, n):
        acc = []
        for coeff in reversed(coeffs):
            acc = _add(_ref_series_mul(acc, y, p, n),
                              [c % p for c in coeff[:n]], p)
        return acc[:n]

    y = [c % p for c in prefix]
    probe = max(work + 8, 2 * len(y) + 8)
    value = horner(poly_y, y, probe)
    s = _ref_series_val(value)
    if s is not None and s < len(y):
        raise NotARoot("prefix does not annihilate the equation to its length")
    deriv = horner(d_poly_y, y, work)
    v = _ref_series_val(deriv)
    if v is None or (s is not None and s <= 2 * v):
        raise SingularRoot("prefix too shallow for the derivative's t-valuation")

    steps = 0
    while True:
        value = horner(poly_y, y, length + v + 1)
        val_v = _ref_series_val(value)
        if val_v is None or val_v >= length + v:
            break
        deriv = horner(d_poly_y, y, work)
        if _ref_series_val(deriv) != v:
            raise SingularRoot("derivative valuation drifted (internal)")
        unit = deriv[v:] + [0] * v
        correction = _ref_series_mul(value[v:] + [0] * v,
                                     _ref_series_inv(unit, p, work), p, work)
        y = _sub(y, correction, p)
        y = [c % p for c in y[:work]]
        steps += 1
        if steps > length.bit_length() + 8:
            raise SingularRoot("Newton iteration failed to converge")
    out = (y + [0] * length)[:length]
    check = horner(poly_y, out, length)
    if _ref_series_val(check) is not None and _ref_series_val(check) < length:
        raise NotARoot("resulting series fails re-substitution (internal)")
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:        # compared by class and message
        return type(exc), str(exc)


def _eval_mod(poly_y, y, p, n):
    """P(t, y) mod t^n by schoolbook products, independent of modpoly."""
    acc = [0] * n
    for coeff in reversed(poly_y):
        prod = [0] * n
        for i, a in enumerate(acc):
            if a:
                for j, b in enumerate(y[:n - i]):
                    prod[i + j] += a * b
        for i, c in enumerate(coeff[:n]):
            prod[i] += c
        acc = [c % p for c in prod]
    return acc


@st.composite
def _christol_case(draw, primes=(2, 3, 5, 7)):
    """A random equation of y-degree 1-4 over F_p, p in primes, with
    a 1-5 term prefix; half the draws shift P's constant term so that the
    prefix is a root to its length, and half give P's y-coefficient a
    t-power factor, so that the derivative can have positive valuation."""
    p = draw(st.sampled_from(primes))
    rnd = draw(st.randoms(use_true_random=False))
    poly_y = [[rnd.randrange(p) for _ in range(rnd.randint(0, 5))]
              for _ in range(rnd.randint(1, 4) + 1)]
    if draw(st.booleans()):
        poly_y[1] = [0] * rnd.randint(1, 3) + poly_y[1]
    prefix = [rnd.randrange(p) for _ in range(rnd.randint(1, 5))]
    if draw(st.booleans()):
        poly_y[0] = _sub(poly_y[0], _eval_mod(poly_y, prefix, p, len(prefix)), p)
    return poly_y, p, prefix, draw(st.integers(0, 300))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_christol_case())
def test_christol_matches_full_precision_reference(case):
    assert _outcome(christol_series, *case) == _outcome(_ref_christol, *case)


HENSEL_CASES = [
    # y^2 = t^2 (1 + t) over F_3 from y0 = t: v = 1, s = 3
    ([[0, 0, -1, -1], [], [1]], 3, [0, 1]),
    # y^2 = t^4 (1 + t) over F_5 from y0 = t^2: v = 2, s = 5
    ([[0, 0, 0, 0, -1, -1], [], [1]], 5, [0, 0, 1]),
]


@pytest.mark.parametrize("length", [0, 1, 2, 3, 17, 300])
@pytest.mark.parametrize("poly_y, p, prefix", HENSEL_CASES)
def test_christol_positive_derivative_valuation(poly_y, p, prefix, length):
    out = christol_series(poly_y, p, prefix, length)
    assert len(out) == length
    assert not any(_eval_mod(poly_y, out, p, length))
    assert out == _ref_christol(poly_y, p, prefix, length)


def test_christol_gate_decided_past_the_probe():
    # y^2 + t^17 y + t^29 over F_5 has no power-series root: its
    # discriminant t^29 (t^5 - 4) has odd valuation.  From y0 = 0, v = 17
    # and s = 29 <= 2v fail the Hensel gate, though P(0) vanishes to the
    # 26 terms that length + 16 alone would read.
    with pytest.raises(SingularRoot, match="prefix too shallow"):
        christol_series([[0] * 29 + [1], [0] * 17 + [1], [1]], 5, [0], 10)


@pytest.mark.parametrize("length", [0, 1, 5, 8])
def test_christol_prefix_longer_than_terms(length):
    eqn = [[0, 1], [1], [1]]
    prefix = christol_series(eqn, 2, [0, 1], 20)
    out = christol_series(eqn, 2, prefix, length)
    assert out == prefix[:length] == _ref_christol(eqn, 2, prefix, length)


@pytest.mark.parametrize("length", [0, 1])
def test_christol_shortest_lengths(length):
    for eqn, p, prefix in [([[0, 1], [1], [1]], 2, [0, 1]),
                           ([[-1], [1, -1]], 5, [1]),
                           ([[0, 1], [1, 0, 1], [1, 1, 1, 1]], 2, [0, 1])]:
        out = christol_series(eqn, p, prefix, length)
        assert out == _ref_christol(eqn, p, prefix, length)
        assert len(out) == length and not any(_eval_mod(eqn, out, p, length))


@st.composite
def _frobenius_case(draw, primes=(2, 3, 5, 7)):
    """P of y-degree up to min(2p, 15) + 1 over F_p, p in primes, whose
    t-coefficient lists may be empty, and a y that may hold fewer than
    ceil(n/p) terms."""
    p = draw(st.sampled_from(primes))
    rnd = draw(st.randoms(use_true_random=False))
    coeffs = [[rnd.randrange(p) for _ in range(rnd.choice((0, 0, 1, 3, 9)))]
              for _ in range(rnd.randint(0, min(2 * p + 2, 16)))]
    n = draw(st.integers(0, 80))
    y = [rnd.randrange(p) for _ in range(rnd.randint(0, n + 3))]
    return coeffs, y, p, n


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_frobenius_case())
def test_frobenius_horner_matches_plain_horner(case):
    coeffs, y, p, n = case
    out = frobenius_horner([modpoly.residues(c, p) for c in coeffs],
                           modpoly.residues(y, p), p, n).tolist()
    assert len(out) <= n
    assert out + [0] * (n - len(out)) == _eval_mod(coeffs, y, p, n)


# -- the array helpers against the list code they replaced ---------------------------
#
# christol_series keeps every series as a numpy array; these are the list
# helpers it used before, kept as references.

def _list_series_mul(a, b, p, n):
    a, b = a[:n], b[:n]
    if len(a) > len(b):
        a, b = b, a
    if len(a) > 1:
        return _mul(a, b, p)[:n]
    c = a[0] if a else 0
    return [c * x % p for x in b] if c else []


def _list_series_inv(a, p, n, start=None, valid=0):
    if not a or a[0] == 0:
        raise SpecError("series inversion needs a unit constant term")
    a = _trim(a[:n])
    if start is None:
        inv, prec = [pow(a[0], p - 2, p)], 1
    else:
        prec = min(valid, n)
        inv = start[:prec]
    while prec < n and len(a) > 1:
        half, prec = prec, min(2 * prec, n)
        e = _list_series_mul(a, inv, p, prec)[half:]
        inv = (inv + [0] * (half - len(inv))
               + _neg(_list_series_mul(inv, e, p, prec - half), p))
    return inv


def _list_frobenius_horner(coeffs, y, p, n):
    y = y[:n]
    m = min(len(y), -(-n // p))
    frob = [0] * (p * m - p + 1) if m else []
    frob[::p] = y[:m]
    acc = []
    for q in range((len(coeffs) - 1) // p * p, -1, -p):
        inner = []
        for coeff in reversed(coeffs[q:q + p]):
            inner = _add(_list_series_mul(inner, y, p, n), coeff[:n], p)
        acc = _add(_list_series_mul(acc, frob, p, n), inner, p)
    return acc


LARGE_PRIMES = (2 ** 31 - 1,        # the last prime on int64 arrays
                2 ** 31 + 11,       # the next prime: object arrays
                2 ** 61 - 1)


@st.composite
def _helper_case(draw):
    """Operands for the series helpers: random, all p - 1, with a tail of
    zeros or empty; P of up to 16 such y-coefficients; a y that may hold
    fewer than ceil(n/p) terms; and a start valid mod t^valid for a warm
    inverse."""
    p = draw(st.sampled_from((2, 3, 5, 7) + LARGE_PRIMES))
    rnd = draw(st.randoms(use_true_random=False))

    def operand(size):
        kind = rnd.choice(("random", "top", "zero-tail", "empty"))
        if kind == "empty":
            return []
        if kind == "top":
            return [p - 1] * rnd.randint(1, size)
        out = [rnd.randrange(p) for _ in range(rnd.randint(1, size))]
        return out + [0] * rnd.randint(1, 9) if kind == "zero-tail" else out
    n = draw(st.integers(0, 90))
    a, b = operand(100), operand(100)
    coeffs = [operand(12) for _ in range(rnd.randint(0, min(2 * p + 2, 16)))]
    y = operand(rnd.choice((3, n // p + 1, n + 3)))
    valid = draw(st.integers(1, 60))
    return p, n, a, b, coeffs, y, valid


def _same_series(array, listed):
    out = array.tolist()
    assert all(type(v) is int for v in out)
    assert _trim(out) == _trim(listed)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_helper_case())
def test_array_helpers_match_the_list_helpers(case):
    p, n, a, b, coeffs, y, valid = case

    def res(c):
        return modpoly.residues(c, p)
    _same_series(automata._series_mul(res(a), res(b), p, n),
                 _list_series_mul(a, b, p, n))
    _same_series(automata.frobenius_horner([res(c) for c in coeffs], res(y),
                                           p, n),
                 _list_frobenius_horner(coeffs, y, p, n))
    unit = [1 + (a[0] if a else 0) % (p - 1)] + a[1:]
    n = max(n, 1)       # christol_series inverts mod t^(n - s), n > s
    _same_series(automata._series_inv(res(unit), p, n),
                 _list_series_inv(unit, p, n))
    # a warm start: an inverse mod t^valid of a series that agrees with
    # unit mod t^valid
    near = unit[:valid] + [0] * (valid - len(unit)) + b
    start = automata._series_inv(res(near), p, valid)
    list_start = _list_series_inv(near, p, valid)
    _same_series(start, list_start)
    _same_series(automata._series_inv(res(unit), p, n, start, valid),
                 _list_series_inv(unit, p, n, list_start, valid))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_frobenius_case(LARGE_PRIMES))
def test_frobenius_horner_at_large_primes(case):
    coeffs, y, p, n = case
    out = frobenius_horner([modpoly.residues(c, p) for c in coeffs],
                           modpoly.residues(y, p), p, n).tolist()
    assert all(type(v) is int for v in out)
    assert out + [0] * (n - len(out)) == _eval_mod(coeffs, y, p, n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_christol_case(LARGE_PRIMES))
def test_christol_at_large_primes(case):
    out = _outcome(christol_series, *case)
    assert out == _outcome(_ref_christol, *case)
    if isinstance(out, list):
        assert all(type(v) is int for v in out)


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_christol_quadratic_at_large_primes(p):
    # y^2 + y + t from y0 = 0: P'(0) = 1, and the root is dense
    out = christol_series([[0, 1], [1], [1]], p, [0], 200)
    assert all(type(v) is int for v in out)
    assert out == _ref_christol([[0, 1], [1], [1]], p, [0], 200)
    assert not any(_eval_mod([[0, 1], [1], [1]], out, p, 200))


@pytest.mark.parametrize("length", [0, 5, 40, 300])
@pytest.mark.parametrize("poly_y, p, prefix", HENSEL_CASES)
def test_christol_prefix_overlapping_the_first_correction(poly_y, p, prefix,
                                                          length):
    # A prefix that agrees with the root r below index j and not at j has
    # s = j + v; with len(prefix) - v <= j < len(prefix), the first step's
    # correction starts at s - v = j, inside the prefix.  The root with
    # val(r - y0) > v is still r.
    v = len(prefix) - 1
    root = christol_series(poly_y, p, prefix, 320)
    for size in range(v + 2, 12):
        for j in range(max(size - v, v + 1), size):
            start = list(root[:size])
            start[j] = (start[j] + 1) % p
            out = christol_series(poly_y, p, start, length)
            assert out == root[:length]
            assert out == _ref_christol(poly_y, p, start, length)


class TestKernelExplore:
    def test_constant_sequence(self):
        rep = kernel_explore(lambda i: 7, 3, 3, prefix_len=32)
        assert rep.class_counts == (1, 1, 1, 1) and rep.closed

    def test_powers_of_two_closes_small(self):
        seq = christol_series([[0, 1], [1], [1]], 2, [0, 1], 5000)
        rep = kernel_explore(lambda i: seq[i], 2, 4, prefix_len=64)
        assert rep.closed and rep.class_counts[-1] <= 5

    def test_closure_under_pointwise_ops(self):
        limit = 2 ** 6 * 64 + 3 * 64 + 8
        a = christol_series([[0, 1], [1], [1]], 2, [0, 1], 3 * limit)
        b = [bin(n).count("1") % 2 for n in range(limit)]
        for combo in (lambda i: (a[i] + b[i]) % 2,
                      lambda i: (a[i] * b[i]) % 2,
                      lambda i: a[3 * i + 1]):
            rep = kernel_explore(combo, 2, 6, prefix_len=64)
            assert rep.closed

    def test_periodic_closed_in_every_base(self):
        periodic = lambda i: (0, 1, 1)[i % 3]
        for base in (2, 3, 5):
            rep = kernel_explore(periodic, base, 4, prefix_len=48)
            assert rep.closed

    def test_growth_for_wrong_base(self):
        limit = 5 ** 4 * 64 + 64
        vs = vp_geometric_sequence(2, 3, 5, 1, 0, limit)
        rep = kernel_explore(lambda i: vs.values[i], 5, 4, prefix_len=64)
        assert not rep.closed
        counts = rep.class_counts
        assert counts[1] < counts[2] < counts[3] < counts[4]


def _reference_kernel(seq, base, depth, prefix_len):
    """Kernel exploration by tuples of per-index calls, the defining loop."""
    signatures = {}
    counts = []
    for e in range(depth + 1):
        ke = base ** e
        for r in range(ke):
            sig = tuple(seq(ke * i + r) for i in range(prefix_len))
            signatures.setdefault(sig, (e, r))
        counts.append(len(signatures))
    closed = depth >= 2 and counts[-1] == counts[-2] == counts[-3]
    return KernelReport(base, depth, prefix_len, tuple(counts),
                        "closed" if closed else "growing",
                        tuple(sorted(signatures.values()))[:64])


@pytest.mark.parametrize("base,depth,prefix_len", [(2, 0, 5), (3, 4, 64),
                                                    (13, 3, 256)])
def test_kernel_cost_is_the_budget_line(base, depth, prefix_len):
    # one prefix_len row per residue r < base^e, e <= depth
    cost = kernel_cost(base, depth, prefix_len)
    assert cost == prefix_len * (base ** (depth + 1) - 1) // (base - 1)
    check_kernel_budget(base, depth, prefix_len, cost)
    with pytest.raises(ScaleExceeded):
        check_kernel_budget(base, depth, prefix_len, cost - 1)


class TestKernelAgainstReference:
    def _cases(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            base = rng.randint(2, 7)
            depth = rng.randint(0, 4 if base <= 4 else 3)
            prefix = rng.randint(1, 40)
            horizon = base ** depth * prefix
            kind = rng.choice(("valuation", "periodic", "random", "automatic"))
            if kind == "valuation":
                p = rng.choice((2, 3, 5))
                vals = [min(_vp(i + 1, p), 4) for i in range(horizon)]
            elif kind == "periodic":
                period = rng.randint(1, 9)
                vals = [(i * 7) % period for i in range(horizon)]
            elif kind == "random":
                vals = [rng.randint(0, rng.choice((1, 3, 300)))
                        for _ in range(horizon)]
            else:
                vals = [bin(i).count("1") % 3 for i in range(horizon)]
            yield base, depth, prefix, vals

    def test_int_sequences_arrays_and_callables(self):
        for base, depth, prefix, vals in self._cases(5, 120):
            expected = _reference_kernel(vals.__getitem__, base, depth, prefix)
            assert kernel_explore(vals.__getitem__, base, depth, prefix) == expected
            for dtype in (np.int64, np.uint16):
                arr = np.array(vals + [0, 1, 2], dtype=dtype)
                assert kernel_explore(arr, base, depth, prefix) == expected

    def test_tuple_valued_callables(self):
        for base, depth, prefix, vals in self._cases(6, 60):
            def seq(i, vals=vals):
                return (vals[i] % 2, "odd" if vals[i] % 3 else "even")
            assert kernel_explore(seq, base, depth, prefix) == \
                _reference_kernel(seq, base, depth, prefix)

    def test_many_classes_keep_witness_order(self):
        rng = random.Random(8)
        vals = [rng.randint(0, 1) for _ in range(3 ** 4 * 12)]
        rep = kernel_explore(np.array(vals, dtype=np.int8), 3, 4, 12)
        assert rep == _reference_kernel(vals.__getitem__, 3, 4, 12)
        assert len(rep.witnesses) == 64 and rep.class_counts[-1] > 64

    def test_short_array_rejected(self):
        with pytest.raises(SpecError):
            kernel_explore(np.zeros(3 ** 3 * 10 - 1, dtype=np.int64), 3, 3, 10)
        with pytest.raises(SpecError):
            kernel_explore(np.array([1] * 200, dtype=object), 2, 2, 10)

    def test_short_callable_raises_its_own_error(self):
        vals = list(range(100))
        with pytest.raises(IndexError):
            kernel_explore(vals.__getitem__, 2, 4, 10)

    def test_budget_checked_before_length(self):
        with pytest.raises(ScaleExceeded):
            kernel_explore(np.zeros(5, dtype=np.int64), 10, 4, 256, budget=1000)


def _row_loop_kernel(terms, base, depth, prefix_len):
    """kernel_explore on an array by its former loop: one bytes key and
    one dict lookup per transposed row."""
    signatures = {}
    counts = []
    for e in range(depth + 1):
        ke = base ** e
        rows = np.ascontiguousarray(
            terms[:ke * prefix_len].reshape(prefix_len, ke).T)
        for r in range(ke):
            signatures.setdefault(rows[r].tobytes(), (e, r))
        counts.append(len(signatures))
    closed = depth >= 2 and counts[-1] == counts[-2] == counts[-3]
    return KernelReport(base, depth, prefix_len, tuple(counts),
                        "closed" if closed else "growing",
                        tuple(sorted(signatures.values()))[:64])


@st.composite
def _kernel_arrays(draw):
    """(array, base, depth, prefix) with a small alphabet, so that rows
    repeat, and a horizon of at most 30 000 terms."""
    base = draw(st.integers(2, 13))
    depth = draw(st.integers(0, 4).filter(lambda d: base ** d <= 30_000))
    prefix = draw(st.integers(1, min(40, 30_000 // base ** depth)))
    dtype = draw(st.sampled_from((np.uint8, np.int64)))
    alphabet = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    extra = draw(st.integers(0, 9))
    if draw(st.booleans()):
        terms = rng.integers(0, alphabet, base ** depth * prefix + extra)
    else:
        # an automatic sequence: few kernel classes, many repeated rows
        p = draw(st.sampled_from((2, 3, 5)))
        terms = np.array([min(_vp(i + 1, p), alphabet)
                          for i in range(base ** depth * prefix + extra)])
    return terms.astype(dtype), base, depth, prefix


@settings(max_examples=200, deadline=None)
@given(_kernel_arrays())
def test_kernel_candidates_match_the_row_loop(case):
    terms, base, depth, prefix = case
    expected = _row_loop_kernel(terms, base, depth, prefix)
    assert kernel_explore(terms, base, depth, prefix) == expected
    # the callable path keys each value by its first occurrence
    values = terms.tolist()
    assert kernel_explore(values.__getitem__, base, depth, prefix) == expected


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
@pytest.mark.parametrize("prefix", [31, 33, 70, 100])
def test_kernel_rows_copied_across_blocks(dtype, prefix):
    # prefixes past one block of the row copy, ending inside a block and
    # off a multiple of 8; random rows and the few classes of v_2
    rng = np.random.default_rng(prefix)
    for base, depth in ((2, 6), (5, 3), (11, 2)):
        horizon = base ** depth * prefix + 5
        for terms in (rng.integers(0, 3, horizon),
                      np.array([_vp(i + 1, 2) for i in range(horizon)])):
            terms = terms.astype(dtype)
            assert (kernel_explore(terms, base, depth, prefix)
                    == _row_loop_kernel(terms, base, depth, prefix))


@pytest.mark.parametrize("prefix", [1, 3, 7, 8, 13, 64])
def test_kernel_exact_when_every_row_hash_collides(prefix, monkeypatch):
    # a zero multiplier hashes every row to 0: one group per depth, and
    # every row unlike the first is compared by its bytes
    rng = np.random.default_rng(prefix)
    cases = [(rng.integers(0, 3, 3 ** 4 * prefix).astype(np.uint8), 3, 4),
             (rng.integers(-2, 2, 7 ** 3 * prefix), 7, 3),
             (np.array([_vp(i + 1, 2) for i in range(2 ** 6 * prefix)],
                       dtype=np.uint16), 2, 6)]
    reports = [kernel_explore(terms, base, depth, prefix)
               for terms, base, depth in cases]
    monkeypatch.setattr(automata, "_ROW_HASH_MULTIPLIER", 0)
    for (terms, base, depth), report in zip(cases, reports):
        assert kernel_explore(terms, base, depth, prefix) == report
        assert report == _row_loop_kernel(terms, base, depth, prefix)


@st.composite
def _progression_kernels(draw):
    """(alpha, beta, p, term, dtype, depth, prefix, budget): a sieve
    sequence term(v_p(alpha n + beta)) with a term periodic mod ell or
    saturating, and a budget that sometimes refuses the plan."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    alpha = draw(st.integers(1, 60) | st.integers(1, 60 // p).map(
        lambda k: k * p)) * draw(st.sampled_from((1, -1)))
    beta = draw(st.integers(0, 60))
    depth = draw(st.integers(0, 5 if p < 7 else 3))
    prefix = draw(st.sampled_from((1, 2, 7, 64)))
    if draw(st.booleans()):
        ell = draw(st.sampled_from((3, 7, 11, 29, 263)))
        ratio = draw(st.integers(2, ell - 1))

        def term(v):
            return pow(ratio, v, ell)
        dtype = np.min_scalar_type(ell - 1)
    else:
        sat = draw(st.integers(1, 6))

        def term(v):
            return min(v, sat)
        dtype = np.min_scalar_type(sat)
    budget = draw(st.sampled_from((kernel_cost(p, depth, prefix),
                                   kernel_cost(p, depth, prefix) - 1,
                                   10 ** 9)))
    return alpha, beta, p, term, dtype, depth, prefix, budget


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_progression_kernels())
def test_progression_kernel_matches_the_materialised_sieve(case):
    alpha, beta, p, term, dtype, depth, prefix, budget = case
    seq = _driving_sieve("geometric", alpha, beta, p, p ** depth * prefix,
                         term, dtype)
    expected = _outcome(kernel_explore, seq, p, depth, prefix, budget)
    assert _outcome(progression_kernel, alpha, beta, p, term, dtype, depth,
                    prefix, budget) == expected
    if budget < kernel_cost(p, depth, prefix):
        assert expected[0] is ScaleExceeded


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestPeriodDetect:
    def test_pure_period(self):
        assert eventual_period_detect([1, 2] * 20) == (0, 2)

    def test_preperiod(self):
        assert eventual_period_detect([5] + [1, 2] * 20) == (1, 2)

    def test_aperiodic(self):
        assert eventual_period_detect(list(range(64))) is None

    def test_valuation_sequence_has_no_period(self):
        vs = vp_geometric_sequence(2, 3, 5, 1, 0, 2000)
        assert eventual_period_detect(vs.values) is None

    def test_minimum_length_enforced(self):
        with pytest.raises(SpecError):
            eventual_period_detect([1, 2, 1])


def _loop_period_detect(prefix):
    """eventual_period_detect by its former loop: each period in turn,
    walked back from the end to its last mismatch."""
    seq = list(prefix)
    for period in range(1, len(seq) // automata.PERIOD_MIN_REPEATS + 1):
        mismatch = -1
        for i in range(len(seq) - period - 1, -1, -1):
            if seq[i] != seq[i + period]:
                mismatch = i
                break
        preperiod = mismatch + 1
        if (preperiod <= len(seq) // 2 and len(seq) - preperiod
                >= automata.PERIOD_MIN_REPEATS * period):
            return preperiod, period
    return None


@st.composite
def _period_prefixes(draw):
    """Prefixes of 16-1000 terms: a periodic tail after a preperiod,
    random bits, sparse spikes on zeros, or a short period with one
    corrupted term."""
    n = draw(st.integers(16, 1000))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("periodic", "binary", "spikes",
                                 "corrupted")))
    if kind == "periodic":
        period = draw(st.integers(1, n))
        body = [rng.randrange(3) for _ in range(period)]
        pre = [rng.randrange(3) for _ in range(draw(st.integers(0, n)))]
        seq = (pre + [body[i % period] for i in range(n)])[:n]
    elif kind == "binary":
        seq = [rng.randrange(2) for _ in range(n)]
    elif kind == "spikes":
        seq = [0] * n
        for _ in range(draw(st.integers(0, 4))):
            seq[rng.randrange(n)] = rng.randrange(1, 4)
    else:
        period = draw(st.integers(1, 40))
        seq = [i % period for i in range(n)]
        seq[rng.randrange(n)] = period
    return seq


def _period_inputs(seq):
    """The same prefix as a list, numpy arrays, tuple values and ints
    past 2^63."""
    return (seq, tuple(seq), np.array(seq, np.uint8), np.array(seq) - 2,
            [(x, -x) for x in seq], [x + 2 ** 70 for x in seq])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_period_prefixes())
def test_period_scan_matches_the_loop(seq):
    expected = _loop_period_detect(seq)
    for prefix in _period_inputs(seq):
        found = eventual_period_detect(prefix)
        assert found == expected
        assert found is None or all(type(x) is int for x in found)


def test_period_scan_exact_when_every_hash_collides(monkeypatch):
    # a zero multiplier hashes every tail to 0: every period is a
    # candidate, and each is decided by its exact comparison
    rng = random.Random(7)
    prefixes = [[rng.randrange(2) for _ in range(n)] for n in (16, 17, 300)]
    prefixes += [[5] * 7 + [1, 2, 3] * 40, [0] * 200 + [1] + [0] * 99,
                 list(vp_geometric_sequence(2, 3, 5, 1, 0, 500).values)]
    expected = [_loop_period_detect(seq) for seq in prefixes]
    monkeypatch.setattr(automata, "_ROW_HASH_MULTIPLIER", 0)
    for seq, result in zip(prefixes, expected):
        for prefix in _period_inputs(seq):
            assert eventual_period_detect(prefix) == result


class TestValuationSequences:
    def test_geometric_fixture_values(self):
        vs = vp_geometric_sequence(2, 3, 5, 1, 0, 30)
        assert (vs.values[1], vs.values[3], vs.values[9], vs.values[27]) == (1, 2, 4, 3)
        assert all(vs.values[n] == 1 for n in (1, 2, 4, 5, 7, 8))
        assert vs.order == 4

    def test_geometric_hypotheses(self):
        with pytest.raises(HypothesisViolated):
            vp_geometric_sequence(6, 3, 5, 1, 0, 16)    # 6 = 1 mod 5
        with pytest.raises(HypothesisViolated):
            vp_geometric_sequence(2, 3, 5, 0, 1, 16)    # alpha = 0
        with pytest.raises(HypothesisViolated):
            vp_geometric_sequence(2, 3, 5, 9, 1, 16)    # v_3(9) > v_3(1)
        with pytest.raises(HypothesisViolated):
            vp_geometric_sequence(2, 5, 5, 1, 0, 16)    # p = ell

    def test_tower_fixture_values(self):
        vt = vp_tower_sequence(1, 3, 29, 30)
        assert vt.index_base == 1
        assert vt.values[0] == 3          # n = 1: 3^(1*3^0)
        assert vt.values[2] == 27         # n = 3: 3^(1*3^1)
        assert vt.values[8] == pow(3, 9, 29)   # n = 9
        assert all(vt.values[n - 1] == 3 for n in (1, 2, 4, 5, 7, 8))

    def test_tower_hypotheses(self):
        with pytest.raises(HypothesisViolated):
            vp_tower_sequence(1, 3, 23, 16)   # 23 < 27
        with pytest.raises(HypothesisViolated):
            vp_tower_sequence(1, 3, 31, 16)   # 3 divides 30
        with pytest.raises(HypothesisViolated):
            vp_tower_sequence(1, 2, 17, 16)   # 17 = 1 mod 8

    def test_tower_kernel_evidence(self):
        limit = 29 ** 2 * 48 + 48
        vt = vp_tower_sequence(1, 3, 29, limit)
        grow = kernel_explore(vt.values.__getitem__, 29, 2, prefix_len=48)
        assert not grow.closed
        assert grow.class_counts[1] < grow.class_counts[2]
