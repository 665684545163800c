"""Zeta-series coefficients, rationality detection, and the verdict engine.

A prefix of the generating function exp(sum #Per_n t^n / n) of a count
sequence has one route: the rational part 1/((1 - t)(1 - D t)), D =
#Per_1 - 1, is divided out, and the exact recurrence j*c_j = sum a_i *
c_{j-i} of what is left runs only over the multiples of the gcd of the
n where the defect #Per_n - D^n - 1 is nonzero.  A rational zeta of the
dichotomy has no defect, so its prefix costs linear time.
Every coefficient must come out an integer (asserted, never assumed).
Rationality at desk scale is tested by one fraction-free
Berlekamp-Massey pass over the integers for the shortest recurrence,
integer Newton steps for its characteristic roots, and partial-fraction
residues for their multiplicities.  A closed form is accepted only with
a certificate that does not use how it was found: the logarithmic
derivative num'/num - den'/den equals sum #Per_n t^(n-1) up to the
prefix.  Transcendence is never claimed outright:
the verdict engine emits either a verified rational closed form or a
finite certificate (choice of step m and auxiliary prime ell, a residue
sequence manipulated out of the periodic-point counts, kernel growth in
base ell, kernel closure in base p, and a failed periodicity scan).  A
certificate that fails its own consistency checks gives the weaker outcome
"inconclusive".
"""

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, islice, repeat

import numpy as np

from .automata import (KernelReport, check_kernel_budget, driving_progression,
                       eventual_period_detect, kernel_cost, kernel_explore,
                       progression_kernel, residue_sequence, residue_term)
from .errors import Mismatch, NonIntegerCoefficient, ScaleExceeded, SpecError
from .families import classify_separability, map_degree, per_n_counts
from .intarith import (divisors, first_prime_where, multiplicative_order,
                       tower_bound, v_p)
from .limits import CROSSCHECK_INDEX_CAP, ELL_SEARCH_CAP, KERNEL_BUDGET
from .orders import norm_sequence
from .sentinels import TRANSCENDENTAL
from .twisted import TwistedPoly, constant_order, v_phi_pow_minus

# Evidence sizes (see _build_detectors and _rational_verdict)
SERIES_TERMS = 30     # counts a rational closed form is checked on
PERIOD_TERMS = 2000   # first period-scan window, and the values kept
KERNEL_PREFIX = 256   # kernel prefix of the values, and of an ell <= 50
MAX_ELL_DEPTH = 4
CLASS_PREFIX = 64     # kernel prefix of the valuation classes
MAX_P_DEPTH = 10
EVIDENCE_CACHE_SIZE = 64  # residue sequences whose evidence is kept

# -- series ------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaSeries:
    coeffs: tuple       # integer coefficients, constant term 1


def zeta_from_counts(counts) -> ZetaSeries:
    """Coefficients of Z = exp(sum counts_n t^n / n); integrality asserted.

    For every integer D, Z = W / ((1 - t)(1 - D t)) with W = exp(sum r_n
    t^n / n), r_n = counts_n - D^n - 1.  W is a series in t^g, g the gcd
    of the n with r_n != 0 (g = 0, run as T + 1, gives W = 1), so the
    recurrence k X_k = sum x_n X_(k-n) runs on the multiples of g only:
    (T/g)^2 / 2 products for T counts.  D = counts_1 - 1 makes r_1 = 0;
    for a map whose defect at n = 1 is zero that is its degree, and a map
    with r_1 != 0 at its degree has g = 1 there, so no D gives a longer
    stride.  The recurrence runs on X = W / (1 - D^g t^g), whose x_n =
    counts_n + (g - 1) D^n - 1 (g | n) are >= 0 for counts >= 1: sums of
    one sign, so g = 1 costs what the plain recurrence does.  Then Z =
    X (1 + D t + ... + (D t)^(g-1)) / (1 - t): X_m D^i at t^(mg+i), then
    prefix sums.  D^n is streamed, not stored.

    Z / X and its inverse (1 - t)(1 - D t) / (1 - D^g t^g) are integral
    with constant term 1, so X, W and Z are integral up to the same index,
    where Z_k is an integer plus X_k; off the stride X_k = 0 exactly.  So
    every Z_k is checked, and the error gives the first non-integral Z_k
    as a Fraction.  Negative counts are refused first.
    """
    counts = list(counts)
    for c in counts:
        if c < 0:
            raise SpecError("periodic-point counts cannot be negative")
    degree = counts[0] - 1 if counts else 0
    stride = math.gcd(*(n for n, c, q in zip(
        count(1), counts, accumulate(repeat(degree), operator.mul))
        if c != q + 1)) or len(counts) + 1
    logs = [c + (stride - 1) * q - 1 for c, q in zip(
        counts[stride - 1::stride],
        accumulate(repeat(degree ** stride), operator.mul))]
    x = [1]  # X at t^0, t^g, t^2g, ...
    end = len(counts) + 1
    for k in range(stride, end, stride):
        acc = sum(map(operator.mul, logs, reversed(x)))
        if acc % k:
            x.append(Fraction(acc, k))
            end = k + 1  # Z ends at its first non-integral coefficient
            break
        x.append(acc // k)
    head = list(accumulate(repeat(degree, stride - 1), operator.mul,
                           initial=1))
    coeffs = list(islice(accumulate(a * b for a in x for b in head), end))
    if coeffs[-1].denominator != 1:
        raise NonIntegerCoefficient(
            f"coefficient {coeffs[-1]} is not an integer")
    return ZetaSeries(tuple(coeffs))


def series_of_rational(num, den, length: int):
    """Power-series prefix of num/den (integer coefficient lists); the
    constant term 1 of den keeps every coefficient an integer."""
    num = list(num)
    den = list(den)
    if not den or den[0] == 0:
        raise SpecError("denominator must have a nonzero constant term")
    if den[0] != 1:
        raise SpecError("denominator normalized with constant term 1")
    out = []
    for i in range(length):
        acc = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(acc)
    return out


# -- rationality test --------------------------------------------------------------


@dataclass(frozen=True)
class RationalGuess:
    order: int
    numerator: tuple | None
    denominator: tuple | None


def _integer_roots(poly):
    """Roots of a polynomial with nonzero leading coefficient, or None
    unless they are distinct nonzero integers.  Integer Newton steps
    x <- x - ceil(f(x)/f'(x)) from above the Cauchy bound (then from the
    last root) descend onto the largest root, which is deflated: above the
    largest root of a real-rooted f, f and f' are positive and each step
    keeps x at or above it while cutting the distance by 1 - 1/degree.  So
    f < 0, f' <= 0 (as at a repeated root) or a longer descent: no split.
    """
    denom = math.lcm(*[c.denominator for c in poly])
    if poly[-1] < 0:
        denom = -denom  # a positive leading coefficient
    coeffs = [int(c * denom) for c in poly]
    if coeffs[0] == 0:
        return None  # a zero root: not a sum of nonzero geometric terms
    x = 2 + max(map(abs, coeffs)) // coeffs[-1]
    steps = len(coeffs) * (2 * x).bit_length() + 2
    roots = []
    while len(coeffs) > 1:
        for _ in range(steps):
            value = deriv = 0
            for c in reversed(coeffs):
                value, deriv = value * x + c, deriv * x + value
            if value < 0 or deriv <= 0:
                return None  # past the largest root, or at a repeated one
            if value == 0:
                break
            x -= -(-value // deriv)
        else:
            return None
        roots.append(x)
        quotient = [coeffs[-1]]  # synthetic division by (X - x)
        for c in coeffs[-2:0:-1]:
            quotient.append(c + x * quotient[-1])
        coeffs = quotient[::-1]
    return roots


def _berlekamp_massey(counts, bound):
    """(L, C) of the shortest linear recurrence of counts, C normalized to
    C[0] = 1 as Fractions; None once L passes bound.

    Massey's pass (1969) with the connection polynomial C kept in ints:
    each update C <- b C - d x^m B, with d / b the discrepancy of C over
    that of the last replaced polynomial B in lowest terms, is divided
    by its content.  That scales each polynomial by a nonzero integer
    and leaves every discrepancy's zero pattern and every list length as
    in the pass over Fractions, so the normalized C is the same.
    """
    conn, prev = [1], [1]
    order, shift, prev_gap = 0, 1, 1
    for n in range(len(counts)):
        gap = sum(map(operator.mul, conn, counts[n::-1]))
        if gap == 0:
            shift += 1
            continue
        g = math.gcd(prev_gap, gap)
        b, d = prev_gap // g, gap // g
        updated = [b * c for c in conn] + [0] * (len(prev) + shift - len(conn))
        for i, c in enumerate(prev, shift):
            updated[i] -= d * c
        content = math.gcd(*updated)
        if content != 1:
            updated = [c // content for c in updated]
        if 2 * order > n:
            shift += 1
        else:
            order, prev, prev_gap, shift = n + 1 - order, conn, gap, 1
            if order > bound:
                return None
        conn = updated
    return order, [Fraction(c, conn[0]) for c in conn]


def rationality_guess(counts, max_order: int = 8):
    """Shortest linear recurrence (order <= max_order) of the counts.

    One fraction-free Berlekamp-Massey pass gives the linear complexity L
    and connection polynomial C of the prefix; the shortest recurrence is
    unique as the prefix has length >= 2*order + 4, which also validates
    the fit on order + 4 extra terms.  For distinct nonzero integer roots
    a_i, the multiplicities are the partial-fraction residues e_i =
    P(1/a_i) / prod_{j != i} (1 - a_j/a_i), P = C * sum c_n t^n cut at
    degree L; integer e_i give the candidate zeta function
    prod (1 - a_i t)^(-e_i), reported only once _closed_form_holds
    certifies it on every count, which implies sum e_i a_i^n = #Per_n for
    each n (the logarithmic derivatives agree term by term).  Counts with
    a certified closed form that go negative are refused; negative counts
    with none still give their guess.  The exponential formula never runs
    here: a caller that needs the zeta prefix takes it from
    zeta_from_counts, whose quadratic recurrence runs on the defect from
    D^n + 1 alone, so counts with no defect cost linear time.
    """
    counts = list(counts)
    bound = min(max_order, (len(counts) - 4) // 2)
    if bound < 1:
        return None
    found = _berlekamp_massey(counts, bound)
    if found is None:
        return None
    order, conn = found
    # an all-zero prefix (L = 0) is reported as order 1 with root 0
    order = max(order, 1)
    conn = conn + [0] * (order + 1 - len(conn))
    roots = _integer_roots(conn[::-1])
    closed = roots and _closed_form(counts, conn, roots)
    return RationalGuess(order, *(closed or (None, None)))


def _closed_form(counts, conn, roots):
    """(numerator, denominator) of prod (1 - a t)^(-e) over the roots a,
    with residues e, when they are integers and the product passes
    _closed_form_holds on the counts; None otherwise.  Counts that fit but
    go negative raise SpecError there."""
    p_coeffs = [sum(conn[i] * counts[k - i - 1] for i in range(k))
                for k in range(1, len(roots) + 1)]
    es = [sum(Fraction(c, a ** k) for k, c in enumerate(p_coeffs, 1))
          / math.prod(1 - Fraction(b, a) for b in roots if b != a)
          for a in roots]
    if any(e.denominator != 1 for e in es):
        return None
    es = [int(e) for e in es]
    num, den = [1], [1]
    for a, e in zip(roots, es):
        side = den if e > 0 else num
        for _ in range(abs(e)):
            side[:] = [c - a * d for c, d in zip(side + [0], [0] + side)]
    if _closed_form_holds(counts, num, den):
        return tuple(num), tuple(den)


def _closed_form_holds(counts, num, den):
    """Whether num/den = exp(sum counts_n t^n / n) mod t^(T + 1), T =
    len(counts), for integer coefficient lists with num(0) = den(0) = 1.

    Both sides have constant term 1, so they agree exactly when their
    logarithmic derivatives do mod t^T:

        num' den - num den' = (sum counts_n t^(n-1)) num den  (mod t^T),

    where the left side is sum (i - j) num_i den_j t^(i+j-1).  That is
    O(T (deg num + deg den)) products and does not depend on how num and
    den were found.  Negative counts that pass raise SpecError, as in
    zeta_from_counts; counts that fail give False, negative or not.
    """
    if num[0] != 1 or den[0] != 1:
        return False
    width = len(num) + len(den) - 1
    both = [0] * width
    wronskian = [0] * max(width, len(counts))
    for i, a in enumerate(num):
        for j, b in enumerate(den):
            both[i + j] += a * b
            if i != j:
                wronskian[i + j - 1] += (i - j) * a * b
    # t^k of the right side: both[width-1-m] * counts[k-(width-1)+m]
    padded = [0] * (width - 1) + list(counts)
    both.reverse()
    if not all(sum(map(operator.mul, both, padded[k:k + width])) == w
               for k, w in enumerate(wronskian[:len(counts)])):
        return False
    if any(c < 0 for c in counts):
        raise SpecError("periodic-point counts cannot be negative")
    return True


# -- certificates -----------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Finite evidence behind a transcendental-leaning verdict.

    The residue sequence values[] equals ratio^(v_p(alpha*n + beta)) mod
    ell in the geometric shape, or p^(a1 * p^(v_p(n))) mod ell in the
    tower shape.  crosscheck_terms records how many entries were
    re-derived from exact periodic-point counts rather than the direct
    valuation formula.

    The positive control p_kernel explores the base-p kernel of the value
    sequence itself when its class structure is small enough to certify
    closure in budget (control = "values"); otherwise it explores the
    underlying saturated valuation-class sequence min(v_p(.), V)
    (control = "valuation-classes"), which is the p-automatic core the
    values factor through.
    """

    family: str
    shape: str            # "geometric" or "tower"
    m: int
    ell: int
    p: int
    ratio: int            # p^e mod ell (geometric) or p (tower)
    alpha: int            # progression stride (geometric); 0 for tower
    beta: int             # progression offset (geometric); 0 for tower
    tower_multiplier: int  # a1 (tower shape); 0 for geometric
    v0: int
    values: tuple
    ell_kernel: KernelReport
    p_kernel: KernelReport
    control: str          # "values" or "valuation-classes"
    period_scan: object
    crosscheck_terms: int

    def consistent(self) -> bool:
        """Internal consistency: growth in base ell, closure in base p,
        no eventual period, and at least one count-derived term."""
        return (not self.ell_kernel.closed
                and self.p_kernel.closed
                and self.period_scan is None
                and self.crosscheck_terms >= 1)


@dataclass(frozen=True)
class Verdict:
    outcome: str   # "rational" | "transcendental-evidence" | "inconclusive"
    reason: str
    closed_form: tuple | None  # (numerator, denominator) int coefficient lists
    certificate: Certificate | None
    series_terms_checked: int


def _fit_depth(base, prefix, budget, max_depth):
    """Deepest kernel (at least 1, at most max_depth) whose cost fits budget."""
    depth = 1
    while depth < max_depth and kernel_cost(base, depth + 1, prefix) <= budget:
        depth += 1
    return depth


def _ell_kernel_plan(ell):
    """(prefix, depth) of the base-ell kernel of a certificate; ScaleExceeded
    when even that costs more than four budgets.  Past ell = 50 the prefix
    is fixed and the depth can only fall, so an ell that passes has every
    smaller one pass too."""
    prefix = KERNEL_PREFIX if ell <= 50 else 64
    depth = _fit_depth(ell, prefix, KERNEL_BUDGET, MAX_ELL_DEPTH)
    check_kernel_budget(ell, depth, prefix, 4 * KERNEL_BUDGET)
    return prefix, depth


def _control_period(shape, ratio, a1, p, ell):
    """Period of the value profile as a function of the driving valuation."""
    if shape == "geometric":
        return multiplicative_order(ratio % ell, ell)
    ordp = multiplicative_order(p % ell, ell)
    reduced = ordp // math.gcd(ordp, a1)
    return multiplicative_order(p % reduced, reduced)


def _build_detectors(family, shape, m, ell, p, ratio, alpha, beta, a1, v0,
                     rederived):
    """Certificate for the sequence described by (shape, ratio, a1, alpha, beta).

    rederived yields (n, term) pairs computed from exact periodic-point
    counts; each must equal the sequence's term n, residue_term at the
    valuation of the n-th term of the driving progression.  An ell whose
    kernel costs more than four budgets is refused before any count (the
    indices m k grow with ell), and a wrong count before any evidence is
    formed.
    """
    _ell_kernel_plan(ell)
    term = residue_term(shape, ratio, a1, p, ell)[0]
    drive_alpha, drive_beta = driving_progression(shape, alpha, beta)
    checked = 0
    for n, derived in rederived:
        if derived != term(v_p(drive_alpha * n + drive_beta, p)):
            raise Mismatch(f"{family} certificate fails count re-derivation at n={n}")
        checked += 1
    return Certificate(family, shape, m, ell, p, ratio, alpha, beta, a1, v0,
                       *_evidence(shape, ratio, a1, alpha, beta, p, ell),
                       checked)


@functools.lru_cache(maxsize=EVIDENCE_CACHE_SIZE)
def _evidence(shape, ratio, a1, alpha, beta, p, ell):
    """(values prefix, ell kernel, p kernel, control, period scan) of the
    residue sequence with that key; every plan size is a function of the
    seven integers alone, so maps that share them share one evidence.

    The plan precedes every term: choose the control (the values' own
    base-p kernel runs only at a depth two past the value profile's
    period), then form one prefix of max(PERIOD_TERMS, ell^depth *
    prefix) values for the scan's first window and the base-ell kernel.
    No kernel reads past four budgets: a base-p kernel of depth >= 2 fits
    one budget, the values run only at depth >= 3, and at depth 1 p < ell,
    whose kernel has passed.  The base-p control, of the values or of the
    saturated valuation classes, is read from the driving progression by
    progression_kernel, one sieve row per depth, so it reads no term of
    the prefix and forms no p^depth-row array.
    """
    ell_prefix, ell_depth = _ell_kernel_plan(ell)
    kernel_budget = 4 * KERNEL_BUDGET
    p_depth_values = _fit_depth(p, KERNEL_PREFIX, KERNEL_BUDGET, MAX_P_DEPTH)
    depth_cap = _fit_depth(p, CLASS_PREFIX, KERNEL_BUDGET, MAX_P_DEPTH)
    try_values = _control_period(shape, ratio, a1, p, ell) + 2 <= p_depth_values
    key = (shape, ratio, a1, alpha, beta, p, ell)
    values = residue_sequence(*key, max(PERIOD_TERMS,
                                        ell ** ell_depth * ell_prefix))
    ell_kernel = kernel_explore(values, ell, ell_depth, ell_prefix,
                                budget=kernel_budget)

    # Positive control: the value sequence itself when its base-p kernel
    # closes, else the saturated valuation classes the values factor through.
    drive = driving_progression(shape, alpha, beta)
    p_kernel = (progression_kernel(*drive, p,
                                   *residue_term(shape, ratio, a1, p, ell),
                                   p_depth_values, KERNEL_PREFIX,
                                   budget=kernel_budget)
                if try_values else None)

    # Periodicity scan with adaptive extension: a candidate period found
    # on a short prefix is retried on a window long enough to refute it
    # (the valuation spikes that kill false periods are p^k-sparse).
    scan_len = PERIOD_TERMS
    while True:
        if scan_len > len(values):
            values = residue_sequence(*key, scan_len)
        period = eventual_period_detect(values[:scan_len])
        if period is None or scan_len >= 400_000:
            break
        pre, per = period
        scan_len = max(2 * scan_len, pre + 8 * per)
    values = tuple(values[:PERIOD_TERMS].tolist())

    if p_kernel is not None and p_kernel.closed:
        control = "values"
    else:
        control = "valuation-classes"
        sat = max(2, min(6, depth_cap - 3))
        p_kernel = progression_kernel(*drive, p, lambda v: min(v, sat),
                                      np.min_scalar_type(sat), depth_cap,
                                      CLASS_PREFIX, budget=kernel_budget)
    return values, ell_kernel, p_kernel, control, period


def _geometric_certificate(mapping):
    """Certificate for a separable quotient of x -> sigma x on G_m or on an
    elliptic curve, read off the family's quotient data.

    Along k = alpha*n + beta the exact counts of the step-m iterate satisfy

        |Gamma| * (#Per_(m k) - boundary)
            = main * p^(-v0 - e v_p(k)) + sum over others of other * p^(-c),

    with main = size(sigma^(m beta) - 1), v0 = valuation(sigma^m - 1),
    e = valuation(p), and one (size(sigma^(m beta) - gamma),
    valuation(1 - gamma)) in others for every gamma != 1; c < v0, and every
    size is constant mod ell along the progression.  So each count gives
    back one term of the residue sequence ratio^(v_p(alpha*n + beta)) mod
    ell with ratio = p^e.  Integer and ring multipliers differ only in the
    step m, beta, the modulus of ell, the stride alpha(ell) and the number
    of terms re-derived.  The auxiliary prime ell > p is the least with
    ell = 2 mod that modulus (3 when p = 2) dividing none of the map degree,
    |Gamma|, ratio - 1 and main.  The re-derived counts are one run along
    the progression: the first forms sigma^(m beta) itself, as main and
    the others did, and each later one moves it forward by one product
    with sigma^(m alpha), formed only when a second count is read.
    Re-derivation stops after the term count, or once m k passes the
    crosscheck index cap (never before n = 1).  A
    class with no prime below the prime search cap, or whose least prime
    already has a base-ell kernel over budget, is refused before any power
    of sigma is formed.
    """
    p, sigma = mapping.p, mapping.sigma
    one = sigma ** 0
    e = mapping.valuation(one * p)
    if isinstance(sigma, int):
        # the least even m with sigma^m = 1 mod p (m = 2 when p = 2)
        m = 2 if p == 2 else math.lcm(2, multiplicative_order(sigma, p))
        beta, ell_modulus = (2, 4) if p == 2 else (1, p)
        terms = 48
    else:
        # v(p) = 2 on a supersingular curve, 1 at an ordinary one's split prime
        m = (_supersingular_step(mapping) if e == 2
             else _ordinary_step(mapping))
        beta, ell_modulus = {2: (16, 8), 3: (3, 9)}.get(p, (1, p))
        terms = 24
    # The class's least prime bounds ell from below; a class with none
    # below the cap, or whose least prime's kernel is over budget, is
    # refused here, before sigma^m (m up to p - 1).
    ell_class = (3 if p == 2 else 2, ell_modulus)
    ell_search = f"{mapping.name} auxiliary prime"
    least = first_prime_where(p, *ell_class, ELL_SEARCH_CAP,
                              description=ell_search)
    _ell_kernel_plan(least)
    sig_m = sigma ** m
    v0 = mapping.valuation(sig_m - one)
    sig_mb = sig_m ** beta
    others = []
    for g in mapping.gammas:
        if g == one:
            continue
        c = mapping.valuation(one - g)
        if c >= v0:
            raise Mismatch("unit valuation not dominated (internal)")
        others.append((mapping.size(sig_mb - g), c))
    group, ratio = len(mapping.gammas), p ** e
    main = mapping.size(sig_mb - one)
    degree = map_degree(mapping)

    ell = first_prime_where(
        least - 1, *ell_class, ELL_SEARCH_CAP,
        lambda ell: all(x % ell for x in (degree, group, ratio - 1, main)),
        ell_search)
    # The stride keeps every size constant mod ell: ell - 1 by Fermat for
    # an integer, the least common period of the norms mod ell for a ring.
    alpha = (ell - 1 if isinstance(sigma, int) else
             math.lcm(*(norm_sequence(sig_m, g, ell, 16).least_period
                        for g in mapping.gammas)))
    if v_p(alpha, p) > v_p(beta, p):
        raise Mismatch("stride valuation exceeds offset valuation (internal)")
    other = sum(o * pow(p, -c, ell) for o, c in others) % ell
    scale = pow(p, v0, ell) * pow(main, -1, ell) % ell
    boundary = mapping.boundary(m)

    def term(_k, count):
        residue = (group * (count - boundary) - other) * scale % ell
        return pow(residue, -1, ell) if residue else 0  # 0 is no unit: no term

    rederived = _rederived(mapping, m, alpha, beta, 0, terms,
                           CROSSCHECK_INDEX_CAP, term)
    return _build_detectors(mapping.name, "geometric", m, ell, p, ratio % ell,
                            alpha, beta, 0, v0, rederived)


def _rederived(mapping, m, alpha, beta, first, stop, index_cap, term):
    """Yield (n, term(k, #Per_(m k))) along k = alpha*n + beta.

    n runs over first <= n < stop and ends early at the first n > first
    whose count index m k passes index_cap.  The counts are one run of
    per_n_counts with step m alpha, so each moves the last one's power
    forward by one product, and a run that the cap stops after one count
    forms no power past the first.
    """
    counts = per_n_counts(mapping, m * (alpha * first + beta), m * alpha)
    for n in range(first, stop):
        k = alpha * n + beta
        if n > first and m * k > index_cap:
            return
        yield n, term(k, next(counts))


def _ordinary_step(mapping) -> int:
    """Order of sigma = a + b tau mod the prime (squared for p = 2 so the
    exponent-lift guard holds): the order of a + b r, r the root T - u of
    f = x^2 - T x + N that the prime holds.  At p = 2 one Newton step
    lifts r to mod 4 exactly, since f'(r) = 2 r - T is odd."""
    ctx = mapping.prime_ctx
    p, T, N = ctx.p, ctx.ring.trace, ctx.ring.norm
    r, modulus = (T - ctx.unit_root) % p, p
    if p == 2:
        r, modulus = (r - (r * r - T * r + N) * pow(2 * r - T, -1, 4)) % 4, 4
    return multiplicative_order(
        (mapping.sigma.a + mapping.sigma.b * r) % modulus, modulus)


def _supersingular_step(mapping) -> int:
    """Least k with v(sigma^k - 1) >= guard (3 at p = 2, 2 at p = 3, else 1).

    The least such k is the order of sigma in (O/I^guard)^*, so it
    divides that group's order B = (p^2 - 1) p^(2 (guard - 1)); the
    divisors of B are tried in ascending order.  A step past the
    crosscheck index cap is refused: no count along it could be
    re-derived.
    """
    p = mapping.p
    guard = {2: 3, 3: 2}.get(p, 1)
    for k in divisors((p * p - 1) * p ** (2 * (guard - 1))):
        if k > CROSSCHECK_INDEX_CAP:
            raise ScaleExceeded(
                f"supersingular step exceeds the crosscheck index cap "
                f"{CROSSCHECK_INDEX_CAP}")
        if mapping.valuation(mapping.sigma ** k - 1) >= guard:
            return k
    raise Mismatch("no step with the required ideal valuation (internal)")


def _certificate_ga(mapping) -> Certificate:
    """Tower-shaped certificate for additive and subadditive polynomials.

    The auxiliary prime must exceed p^(a1 p^a1); a bound at or past the
    prime search cap is refused before that power is formed.
    """
    sigma, p = mapping.sigma, mapping.p
    d = mapping.d  # |Gamma|: 1 for additive maps
    m = constant_order(sigma)
    if m is TRANSCENDENTAL:
        raise SpecError("transcendental linear coefficient has a rational zeta")
    # m | p - 1, so v_p(m) = 0 and this is v_phi(sigma - c0), no power formed
    v0 = v_phi_pow_minus(sigma, m, 1)
    a1 = v0 * (2 if p == 2 else 1)
    bound = tower_bound(p, a1, ELL_SEARCH_CAP)
    if bound is None:
        raise ScaleExceeded(
            f"the {mapping.name} certificate needs an auxiliary prime above "
            f"p^(a1 p^a1) with a1 = {a1}, past the prime search cap "
            f"{ELL_SEARCH_CAP}")

    # ell > d keeps d a unit mod ell, and ell = 2 mod p keeps p prime to
    # ell - 1 (7 mod 8 at p = 2).
    residue, modulus = (7, 8) if p == 2 else (2, p)
    ell = first_prime_where(max(bound, p, d), residue, modulus, ELL_SEARCH_CAP,
                            description=f"{mapping.name} auxiliary prime")
    deg_m = pow(p, sigma.top_index * m, ell)

    def term(k, count):
        deg_k = pow(deg_m, k, ell)
        return pow((d * (count - 1) - (d - 1) * deg_k) * pow(deg_k, -1, ell),
                   -1, ell)

    # n = 0 is skipped: its count index k = 0 carries no valuation.  The
    # index cap keeps (m k top)^2 within 2.5M.
    rederived = _rederived(mapping, m, ell - 1, 0, 1, 9,
                           math.isqrt(2_500_000) // max(1, sigma.top_index),
                           term)
    return _build_detectors(mapping.name, "tower", m, ell, p, p, 0, 0, a1, v0,
                            rederived)


def certificate_build(mapping) -> Certificate:
    """Finite transcendence evidence for a separable map on that path: the
    tower shape for additive polynomials, the geometric shape otherwise."""
    if isinstance(mapping.sigma, TwistedPoly):
        return _certificate_ga(mapping)
    return _geometric_certificate(mapping)


# -- the verdict engine ---------------------------------------------------------------------


def verdict(mapping) -> Verdict:
    """Rational closed form or finite transcendence evidence for a map."""
    D = map_degree(mapping)
    if classify_separability(mapping) == "inseparable":
        return _rational_verdict(mapping, D, "inseparable")
    reason = "separable-multiplicative-or-lattes"
    if isinstance(mapping.sigma, TwistedPoly):
        if constant_order(mapping.sigma) is TRANSCENDENTAL:
            return _rational_verdict(mapping, D,
                                     "transcendental-linear-coefficient")
        reason = "separable-additive-algebraic"
    cert = certificate_build(mapping)
    # Evidence that fails its own checks supports no lean either way.
    outcome = ("transcendental-evidence" if cert.consistent()
               else "inconclusive")
    return Verdict(outcome, reason, None, cert, 0)


def _rational_verdict(mapping, D, reason):
    # 1 / ((1 - t)(1 - D t))
    num, den = (1,), (1, -(D + 1), D)
    counts = list(islice(per_n_counts(mapping, 1), SERIES_TERMS))
    if not _closed_form_holds(counts, num, den):
        raise Mismatch("closed form disagrees with the count series")
    return Verdict("rational", reason, (num, den), None, SERIES_TERMS)
