"""Zeta-series coefficients, rationality detection, and the verdict engine.

The generating function exp(sum #Per_n t^n / n) of a count sequence is
expanded by the exact recurrence j*c_j = sum counts_i * c_{j-i}; every
coefficient must come out an integer, and that integrality is asserted,
never assumed.  Rationality at desk scale is a minimal-linear-recurrence
search over exact rationals.  Transcendence is never claimed outright:
the verdict engine emits either a verified rational closed form or a
finite certificate (choice of step m and auxiliary prime ell, a residue
sequence manipulated out of the periodic-point counts, kernel growth in
base ell, kernel closure in base p, and a failed periodicity scan).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automata import (KernelReport, eventual_period_detect,
                       kernel_explore)
from .errors import (Mismatch, NoAdmissibleEll, NonIntegerCoefficient,
                     SpecError)
from .families import (AdditiveMap, ChebyshevMap, LattesGenericJ,
                       LattesOrdinary, LattesSupersingular, PowerMap,
                       SubadditiveMap, VARIANT_NORM, classify_separability,
                       map_degree, per_n_closed)
from .intarith import (first_prime_where, gcd_int, last_prime_where,
                       multiplicative_order, v_p, v_p_progression)
from .limits import ELL_SEARCH_CAP
from .orders import norm_sequence, v_frak_p, v_I
from .sentinels import TRANSCENDENTAL
from .twisted import constant_order, tw_pow, tw_sub_scalar, v_phi

# -- series ------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaSeries:
    coeffs: tuple       # integer coefficients, constant term 1
    provenance: str     # "exp-formula" or "product-formula"

    def __len__(self):
        return len(self.coeffs)


def zeta_from_counts(counts) -> ZetaSeries:
    """Coefficients of exp(sum counts_n t^n / n); integrality asserted."""
    counts = list(counts)
    for c in counts:
        if c < 0:
            raise SpecError("periodic-point counts cannot be negative")
    coeffs = [1]
    for j in range(1, len(counts) + 1):
        acc = sum(counts[i - 1] * coeffs[j - i] for i in range(1, j + 1))
        if acc % j:
            raise NonIntegerCoefficient(
                f"coefficient {Fraction(acc, j)} is not an integer")
        coeffs.append(acc // j)
    return ZetaSeries(tuple(coeffs), "exp-formula")


def zeta_from_cycles(census, length: int) -> ZetaSeries:
    """Series prefix of the cycle product: prod (1 - t^L)^(-count)."""
    out = [0] * (length + 1)
    out[0] = 1
    for cycle_len, count in census:
        for _ in range(count):
            # multiply by 1/(1 - t^L): running prefix sums with stride L
            for i in range(cycle_len, length + 1):
                out[i] += out[i - cycle_len]
    return ZetaSeries(tuple(out), "product-formula")


def series_of_rational(num, den, length: int):
    """Power-series prefix of num/den (integer coefficient lists)."""
    num = list(num)
    den = list(den)
    if not den or den[0] == 0:
        raise SpecError("denominator must have a nonzero constant term")
    if den[0] != 1:
        raise SpecError("denominator normalized with constant term 1")
    out = []
    for i in range(length):
        acc = Fraction(num[i]) if i < len(num) else Fraction(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(acc)
    result = []
    for c in out:
        if c.denominator != 1:
            raise NonIntegerCoefficient("rational expansion left the integers")
        result.append(int(c))
    return result


# -- rationality search --------------------------------------------------------------


@dataclass(frozen=True)
class RationalGuess:
    order: int
    recurrence: tuple   # Fractions q with c_{j+r} = sum q_i c_{j+r-i}
    numerator: tuple | None
    denominator: tuple | None


def _solve_linear(rows, rhs):
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


def _integer_roots(poly):
    """Distinct integer roots with deflation; None unless it splits fully."""
    from math import lcm
    denom = lcm(*[c.denominator for c in poly]) if poly else 1
    coeffs = [int(c * denom) for c in poly]
    roots = []
    while len(coeffs) > 1:
        while coeffs and coeffs[0] == 0:
            return None  # zero root: not a sum of nonzero geometric terms
        const = abs(coeffs[0])
        found = None
        for cand in range(1, const + 1):
            if const % cand:
                continue
            for root in (cand, -cand):
                if sum(c * root ** i for i, c in enumerate(coeffs)) == 0:
                    found = root
                    break
            if found is not None:
                break
        if found is None:
            return None
        # synthetic division by (x - found)
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


def rationality_guess(counts, max_order: int = 8):
    """Minimal linear recurrence (order <= max_order) over exact rationals.

    Needs prefix length >= 2*order + 4 so the fit is validated on at
    least order + 4 extra terms.  When the characteristic roots are
    distinct nonzero integers with integer signed multiplicities the zeta
    function is reassembled as prod (1 - a_i t)^(-e_i) and re-verified
    against the exponential formula.  None is a valid outcome.
    """
    counts = list(counts)
    for r in range(1, max_order + 1):
        if len(counts) < 2 * r + 4:
            break
        rows = [counts[j:j + r][::-1] for j in range(len(counts) - r)]
        rhs = [counts[j + r] for j in range(len(counts) - r)]
        q = _solve_linear(rows, rhs)
        if q is None:
            continue
        char = [-qi for qi in reversed(q)] + [Fraction(1)]
        roots = _integer_roots(char)
        closed = None
        if roots is not None:
            vand = [[Fraction(a ** n) for a in roots] for n in range(1, r + 1)]
            mult = _solve_linear(vand, counts[:r])
            if mult is not None and all(e.denominator == 1 for e in mult):
                es = [int(e) for e in mult]
                if all(sum(e * a ** n for e, a in zip(es, roots)) == counts[n - 1]
                       for n in range(1, len(counts) + 1)):
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
                    if expansion == list(zeta_from_counts(counts).coeffs):
                        closed = (tuple(num), tuple(den))
        return RationalGuess(r, tuple(q), *(closed or (None, None)))
    return None


# -- certificates -----------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Finite evidence behind a transcendental-leaning verdict.

    The residue sequence values[] equals ratio^(v_p(alpha*n + beta)) mod
    ell in the geometric shape, or p^(a1 * p^(v_p(n))) mod ell in the
    tower shape (values[i] is index index_base + i).  crosscheck_terms
    records how many entries were re-derived from exact periodic-point
    counts rather than the direct valuation formula.

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
    index_base: int
    values: tuple
    ell_kernel: KernelReport
    p_kernel: KernelReport
    control: str          # "values" or "valuation-classes"
    period_scan: object
    crosscheck_terms: int
    heuristic_bound: bool = False

    def consistent(self) -> bool:
        """Internal consistency: growth in base ell, closure in base p,
        no eventual period, and at least one count-derived term."""
        return (not self.ell_kernel.closed
                and self.p_kernel.closed
                and self.period_scan is None
                and self.crosscheck_terms >= 1)


@dataclass(frozen=True)
class VerdictOptions:
    series_terms: int = 30
    period_terms: int = 2000
    kernel_prefix: int = 256
    kernel_budget: int = 5_000_000
    max_ell_depth: int = 4
    crosscheck_index_cap: int = 20_000
    ell_cap: int = ELL_SEARCH_CAP


@dataclass(frozen=True)
class Verdict:
    outcome: str              # "rational" | "transcendental-evidence"
    reason: str
    closed_form: tuple | None  # (numerator, denominator) int coefficient lists
    certificate: Certificate | None
    series_terms_checked: int


DEFAULT_OPTIONS = VerdictOptions()


def _fit_depth(base, prefix, budget, max_depth):
    depth = 1
    while depth < max_depth:
        cost = sum(base ** e for e in range(depth + 2)) * prefix
        if cost > budget:
            break
        depth += 1
    return depth


def _control_period(shape, ratio, a1, p, ell):
    """Period of the value profile as a function of the driving valuation."""
    if shape == "geometric":
        return multiplicative_order(ratio % ell, ell)
    ordp = multiplicative_order(p % ell, ell)
    reduced = ordp // gcd_int(ordp, a1)
    if reduced == 1:
        return 1
    return multiplicative_order(p % reduced, reduced)


def _certificate_sequence(shape, ratio, a1, alpha, beta, p, ell, n):
    """(valuations, values) numpy arrays of the first n certificate terms.

    The driving valuation is v_p(alpha*i + beta) in the geometric shape
    and v_p(i) in the tower shape, where index 0 takes the generic v = 0.
    A term depends on its valuation alone (ratio^v, or p^(a1 * p^v) with
    the exponent reduced mod the order of p), so the values are one table
    lookup per index.
    """
    if shape == "geometric":
        valuations = v_p_progression(alpha, beta, p, n)

        def term(v):
            return pow(ratio, v, ell)
    else:
        valuations = v_p_progression(1, 0, p, n)
        ordp = _ord_p(p, ell)

        def term(v):
            return pow(p, a1 * pow(p, v, ordp) % ordp, ell)
    table = [term(v) for v in range(int(valuations.max(initial=0)) + 1)]
    table = np.array(table, dtype=np.min_scalar_type(ell - 1))
    return valuations, table[valuations]


def _build_detectors(family, shape, m, ell, p, ratio, alpha, beta, a1, v0,
                     rederived, opts, heuristic=False):
    """Certificate for the sequence described by (shape, ratio, a1, alpha, beta).

    rederived yields (n, term) pairs computed from exact periodic-point
    counts; each must equal the sequence's term n.
    """
    ell_prefix = opts.kernel_prefix if ell <= 50 else 64
    ell_depth = _fit_depth(ell, ell_prefix, opts.kernel_budget,
                           opts.max_ell_depth)
    p_depth_values = _fit_depth(p, opts.kernel_prefix, opts.kernel_budget, 10)
    depth_cap = _fit_depth(p, 64, opts.kernel_budget, 10)
    # One sequence prefix serves every kernel below; a kernel whose
    # horizon alone exceeds its budget refuses before reading any term.
    kernel_budget = 4 * opts.kernel_budget
    horizons = (ell ** ell_depth * ell_prefix,
                p ** p_depth_values * opts.kernel_prefix, p ** depth_cap * 64)
    horizon = max([opts.period_terms]
                  + [h for h in horizons if h <= kernel_budget])
    valuations, values = _certificate_sequence(shape, ratio, a1, alpha, beta,
                                               p, ell, horizon)
    checked = 0
    for n, derived in rederived:
        if derived != values[n]:
            raise Mismatch(f"{family} certificate fails count re-derivation at n={n}")
        checked += 1

    ell_kernel = kernel_explore(values, ell, ell_depth, ell_prefix,
                                budget=kernel_budget)

    # Positive control: the value sequence itself when its base-p kernel
    # certifies closure in budget, else the saturated valuation classes
    # the values factor through.
    profile_period = _control_period(shape, ratio, a1, p, ell)
    control = None
    p_kernel = None
    if profile_period + 2 <= p_depth_values:
        candidate = kernel_explore(values, p, p_depth_values, opts.kernel_prefix,
                                   budget=kernel_budget)
        if candidate.closed:
            control = "values"
            p_kernel = candidate
    if p_kernel is None:
        control = "valuation-classes"
        sat = max(2, min(6, depth_cap - 3))
        p_kernel = kernel_explore(np.minimum(valuations, sat), p, depth_cap,
                                  64, budget=kernel_budget)

    # Periodicity scan with adaptive extension: a candidate period found
    # on a short prefix is retried on a window long enough to refute it
    # (the valuation spikes that kill false periods are p^k-sparse).
    scan_len = opts.period_terms
    while True:
        if scan_len > len(values):
            valuations, values = _certificate_sequence(
                shape, ratio, a1, alpha, beta, p, ell, scan_len)
        period = eventual_period_detect(values[:scan_len].tolist())
        if period is None or scan_len >= 400_000:
            break
        pre, per = period
        scan_len = max(2 * scan_len, pre + 8 * per)
    return Certificate(family, shape, m, ell, p, ratio, alpha, beta, a1, v0,
                       0, tuple(values[:opts.period_terms].tolist()),
                       ell_kernel, p_kernel, control, period, checked,
                       heuristic)


def _geometric_rederivation(count_fn, m, alpha, beta, group, boundary, other,
                            inv_main, p, v0, ell, terms, index_cap):
    """Yield (n, term) re-derived from the exact counts #Per_(m k).

    Along k = alpha*n + beta, group * (#Per_(m k) - boundary) - other is
    main * p^(-v0) / term mod ell, so each count gives back one term.
    Stops after terms terms, or once m k passes index_cap (never before
    n = 1).
    """
    scale = pow(p, v0, ell)
    for n in range(terms):
        k = alpha * n + beta
        if m * k > index_cap and n >= 1:
            return
        a_k = count_fn(m * k) % ell
        lhs = (group * ((a_k - boundary) % ell) - other) % ell
        yield n, pow(lhs * inv_main % ell * scale % ell, -1, ell)


def _even_order(D, p):
    """Even step m with D^m = 1 mod p (the least such, m = 2 when p = 2)."""
    if p == 2:
        return 2
    m0 = multiplicative_order(D % p, p)
    return m0 if m0 % 2 == 0 else 2 * m0


def _gm_style_certificate(family, p, D, opts, count_fn, group, boundary,
                          main_fn, other_fn):
    """Shared construction for multiplicative-type counts.

    count_fn(k) is the exact #Per_(m k); along k = alpha*n + beta the count
    decomposes as boundary + (main * p^(-v0 - v_p(k)) + other * p^(-c)) / group
    with main and other constant mod ell.  main_fn(k) gives the exact main
    numerator, other_fn(k) the pair (other numerator, constant exponent c).
    """
    m = _even_order(D, p)
    beta = 2 if p == 2 else 1
    v0 = v_p(D ** m - 1, p)
    main_at_beta = main_fn(beta)

    def admissible(ell):
        if ell <= p or D % ell == 0:
            return False
        if p == 2:
            if ell % 4 != 3:
                return False
        elif ell % p != 2 % p:
            return False
        return main_at_beta % ell != 0

    ell = first_prime_where(admissible, start=3, cap=opts.ell_cap,
                            description=f"{family} auxiliary prime")
    alpha = ell - 1
    inv_main = pow(main_at_beta % ell, -1, ell)
    other_num, other_pexp = other_fn(beta)
    other_const = other_num % ell * pow(pow(p, other_pexp, ell), -1, ell) % ell
    rederived = _geometric_rederivation(count_fn, m, alpha, beta, group,
                                        boundary, other_const, inv_main, p,
                                        v0, ell, 48, opts.crosscheck_index_cap)
    return _build_detectors(family, "geometric", m, ell, p, p % ell, alpha,
                            beta, 0, v0, rederived, opts)


def _certificate_power(mapping: PowerMap, opts) -> Certificate:
    p, d = mapping.p, abs(mapping.d)
    m = _even_order(d, p)
    return _gm_style_certificate(
        "power", p, d, opts, lambda idx: per_n_closed(mapping, idx),
        1, 2, lambda k: d ** (m * k) - 1, lambda k: (0, 0))


def _certificate_chebyshev(mapping: ChebyshevMap, opts) -> Certificate:
    p, d = mapping.p, mapping.d
    m = _even_order(d, p)
    c2 = 1 if p == 2 else 0
    return _gm_style_certificate(
        "chebyshev", p, d, opts, lambda idx: per_n_closed(mapping, idx),
        2, 1, lambda k: d ** (m * k) - 1, lambda k: (d ** (m * k) + 1, c2))


def _certificate_lattes_generic(mapping: LattesGenericJ, opts) -> Certificate:
    p, s = mapping.p, abs(mapping.s)
    m = _even_order(s, p)
    c2 = 1 if p == 2 else 0
    squared = mapping.variant == VARIANT_NORM

    def main_fn(k):
        base = s ** (m * k) - 1
        return base * base if squared else base

    def other_fn(k):
        base = s ** (m * k) + 1
        return (base * base if squared else base), c2

    return _gm_style_certificate(
        "lattes-generic", p, s, opts, lambda idx: per_n_closed(mapping, idx),
        2, 0, main_fn, other_fn)


def _certificate_ga(mapping, opts) -> Certificate:
    """Tower-shaped certificate for additive and subadditive polynomials."""
    sigma = mapping.sigma
    p = sigma.ctx.p
    d = mapping.d if isinstance(mapping, SubadditiveMap) else 1
    m = constant_order(sigma)
    if m is TRANSCENDENTAL:
        raise SpecError("transcendental linear coefficient has a rational zeta")
    sig_m = tw_pow(sigma, m)
    v0 = v_phi(tw_sub_scalar(sig_m, 1))
    a1 = v0 * (2 if p == 2 else 1)
    bound = p ** (a1 * p ** a1)
    family = "subadditive" if d > 1 else "additive"

    def admissible(ell):
        if ell <= max(p, d) or d % ell == 0:
            return False
        if p == 2:
            return ell % 8 == 7
        return ell % p == 2 % p and gcd_int(p, ell - 1) == 1

    heuristic = False
    if bound < opts.ell_cap:
        ell = first_prime_where(lambda q: q > bound and admissible(q),
                                start=bound + 1, cap=opts.ell_cap,
                                description=f"{family} auxiliary prime")
    else:
        fallback = last_prime_where(admissible, cap=opts.ell_cap)
        if fallback is None:
            raise NoAdmissibleEll(f"no usable prime for the {family} certificate")
        ell = fallback
        heuristic = True

    deg_m = pow(sigma.ctx.p, sigma.top_index * m, ell)
    alpha = ell - 1

    def rederived():
        # n = 0 is skipped: its count index k = 0 carries no valuation.
        for n in range(1, 9):
            k = alpha * n
            if (m * k * max(1, sigma.top_index)) ** 2 > 2_500_000 and n > 1:
                return
            a_k = per_n_closed(mapping, m * k) % ell
            deg_k = pow(deg_m, k, ell)
            lhs = (d * ((a_k - 1) % ell) - (d - 1) * deg_k) % ell
            yield n, pow(lhs * pow(deg_k, -1, ell) % ell, -1, ell)

    return _build_detectors(family, "tower", m, ell, p, p, 0, 0, a1, v0,
                            rederived(), opts, heuristic=heuristic)


def _ord_p(p, ell):
    return multiplicative_order(p % ell, ell)


def _certificate_lattes_ordinary(mapping: LattesOrdinary, opts) -> Certificate:
    p = mapping.p
    ctx = mapping.prime_ctx
    sigma = mapping.sigma
    group = len(mapping.gammas)
    # Step m: order of sigma in the residue ring mod the prime (squared
    # for p = 2 so the exponent-lift guard holds).
    e0 = 2 if p == 2 else 1
    modulus = p ** e0
    lift = ctx.with_precision(max(ctx.precision, 4))
    coroot = (lift.ring.trace - lift.unit_root) % modulus
    image = (sigma.a + sigma.b * coroot) % modulus
    m = multiplicative_order(image, modulus)
    sig_m = sigma ** m
    v0 = v_frak_p(sig_m - lift.ring.one(), ctx)
    c_exp = {}
    for g in mapping.gammas:
        if g == ctx.ring.one():
            continue
        c_exp[g] = v_frak_p(ctx.ring.one() - g, ctx)
        if c_exp[g] >= v0:
            raise Mismatch("boundary valuation not dominated (internal)")
    beta = {2: 16, 3: 3}.get(p, 1)

    def admissible(ell):
        if ell <= p or sigma.norm() % ell == 0 or group % ell == 0:
            return False
        if p == 2:
            if ell % 8 != 3:
                return False
        elif p == 3:
            if ell % 9 != 2:
                return False
        elif ell % p != 2 % p:
            return False
        return (sig_m ** beta - ctx.ring.one()).norm() % ell != 0

    ell = first_prime_where(admissible, start=3, cap=opts.ell_cap,
                            description="ordinary-quotient auxiliary prime")
    # Stride: lcm of the norm-sequence periods so every gamma term is
    # constant along the progression.
    alpha = 1
    for g in mapping.gammas:
        rep = norm_sequence(sig_m, g, ell, 16)
        alpha = alpha * rep.least_period // gcd_int(alpha, rep.least_period)
    if v_p(alpha, p) > v_p(beta, p):
        raise Mismatch("stride valuation exceeds offset valuation (internal)")

    others = 0
    for g, ce in c_exp.items():
        nv = (sig_m ** beta - g).norm() % ell
        others = (others + nv * pow(pow(p, ce, ell), -1, ell)) % ell
    main = (sig_m ** beta - ctx.ring.one()).norm() % ell
    rederived = _geometric_rederivation(
        lambda idx: per_n_closed(mapping, idx), m, alpha, beta, group, 0,
        others, pow(main, -1, ell), p, v0, ell, 24, opts.crosscheck_index_cap)
    return _build_detectors("lattes-ordinary", "geometric", m, ell, p,
                            p % ell, alpha, beta, 0, v0, rederived, opts)


def _certificate_lattes_supersingular(mapping: LattesSupersingular, opts):
    p = mapping.p
    group = len(mapping.gammas)
    guard = {2: 3, 3: 2}.get(p, 1)
    if mapping.sigma_quat is not None:
        sigma = mapping.sigma_quat
        one = sigma.order.one()

        def norm_minus(k, g):
            return ((sigma ** k) - g).reduced_norm()
    else:
        T, N = mapping.sigma_trace, mapping.sigma_norm
        one = 1

        def norm_minus(k, g):
            from .families import _trace_power
            return N ** k - g * _trace_power(T, N, k) + 1

    def v0_of(k):
        nv = norm_minus(k, 1)
        return v_p(nv, p)

    m = None
    for cand in range(1, 2000):
        if v0_of(cand) >= guard:
            m = cand
            break
    if m is None:
        raise Mismatch("no step with the required ideal valuation (internal)")
    v0 = v0_of(m)
    c_exp = {}
    gammas = mapping.gammas
    for g in gammas:
        if isinstance(g, int):
            if g == 1:
                continue
            c_exp[g] = v_p(4, p)  # norm(1 - (-1)) = 4
        else:
            if g == one:
                continue
            c_exp[g] = v_I(one - g)
        if c_exp[g] >= v0:
            raise Mismatch("unit valuation not dominated (internal)")
    beta = {2: 16, 3: 3}.get(p, 1)
    norm_sigma = norm_minus(1, 0) if mapping.sigma_quat is None else mapping.sigma_quat.reduced_norm()
    ratio_int = p * p

    def admissible(ell):
        if ell <= p or norm_sigma % ell == 0 or group % ell == 0:
            return False
        if (ratio_int - 1) % ell == 0:
            return False
        if p == 2:
            if ell % 8 != 3:
                return False
        elif p == 3:
            if ell % 9 != 2:
                return False
        elif ell % p != 2 % p:
            return False
        return norm_minus(m * beta, 1) % ell != 0

    ell = first_prime_where(admissible, start=3, cap=opts.ell_cap,
                            description="supersingular auxiliary prime")
    if mapping.sigma_quat is not None:
        sig_m = mapping.sigma_quat ** m
        gam_list = list(gammas)
    else:
        sig_m = None
        gam_list = [1, -1]
    alpha = 1
    for g in gam_list:
        if mapping.sigma_quat is not None:
            rep = norm_sequence(sig_m, g, ell, 16)
            period = rep.least_period
        else:
            period = _tn_period(mapping.sigma_trace, mapping.sigma_norm, m, g, ell)
        alpha = alpha * period // gcd_int(alpha, period)
    if v_p(alpha, p) > v_p(beta, p):
        raise Mismatch("stride valuation exceeds offset valuation (internal)")

    others = 0
    for g, ce in c_exp.items():
        nv = norm_minus(m * beta, g) % ell
        others = (others + nv * pow(pow(p, ce, ell), -1, ell)) % ell
    main = norm_minus(m * beta, 1) % ell
    rederived = _geometric_rederivation(
        lambda idx: per_n_closed(mapping, idx), m, alpha, beta, group, 0,
        others, pow(main, -1, ell), p, v0, ell, 24, opts.crosscheck_index_cap)
    return _build_detectors("lattes-supersingular", "geometric", m, ell, p,
                            ratio_int % ell, alpha, beta, 0, v0, rederived,
                            opts)


def _tn_period(T, N, m, gamma, ell):
    """Least period of norm(sigma^(m k) - gamma) mod ell from (T, N) data.

    sigma^m has trace/norm (T_m, N^m); the stride-m norm sequence then
    satisfies the order-4 recurrence with characteristic polynomial
    (x-1)(x-N_m)(x^2 - T_m x + N_m).
    """
    from .families import _trace_power
    from .orders import _state_cycle
    Tm = _trace_power(T, N, m) % ell
    Nm = pow(N, m, ell)
    q1 = [Nm, (-(1 + Nm)) % ell, 1]
    q2 = [Nm, (-Tm) % ell, 1]
    char = [0] * 5
    for i, ci in enumerate(q1):
        for j, cj in enumerate(q2):
            char[i + j] = (char[i + j] + ci * cj) % ell
    rec = [(-char[i]) % ell for i in range(4)]
    tr0, tr1 = 2 % ell, Tm
    seed = []
    npow = 1
    for k in range(4):
        trk = tr0 if k == 0 else tr1
        seed.append((npow - gamma * trk + 1) % ell)
        npow = npow * Nm % ell
        if k >= 1:
            tr0, tr1 = tr1, (Tm * tr1 - Nm * tr0) % ell
    return _state_cycle(seed, rec, ell)[1]


def certificate_build(mapping, opts: VerdictOptions = DEFAULT_OPTIONS) -> Certificate:
    """Finite transcendence evidence for a separable map on that path."""
    if isinstance(mapping, PowerMap):
        return _certificate_power(mapping, opts)
    if isinstance(mapping, ChebyshevMap):
        return _certificate_chebyshev(mapping, opts)
    if isinstance(mapping, LattesGenericJ):
        return _certificate_lattes_generic(mapping, opts)
    if isinstance(mapping, (AdditiveMap, SubadditiveMap)):
        return _certificate_ga(mapping, opts)
    if isinstance(mapping, LattesOrdinary):
        return _certificate_lattes_ordinary(mapping, opts)
    if isinstance(mapping, LattesSupersingular):
        return _certificate_lattes_supersingular(mapping, opts)
    raise SpecError(f"no certificate path for {type(mapping).__name__}")


# -- the verdict engine ---------------------------------------------------------------------


def _rational_form(D):
    """1 / ((1 - t)(1 - D t)) as integer numerator/denominator lists."""
    return (1,), (1, -(D + 1), D)


def verdict(mapping, opts: VerdictOptions = DEFAULT_OPTIONS) -> Verdict:
    """Rational closed form or finite transcendence evidence for a map."""
    D = map_degree(mapping)
    if classify_separability(mapping) == "inseparable":
        return _rational_verdict(mapping, D, "inseparable", opts)
    if isinstance(mapping, (AdditiveMap, SubadditiveMap)):
        order = constant_order(mapping.sigma)
        if order is TRANSCENDENTAL:
            return _rational_verdict(mapping, D,
                                     "transcendental-linear-coefficient", opts)
        cert = certificate_build(mapping, opts)
        return Verdict("transcendental-evidence", "separable-additive-algebraic",
                       None, cert, 0)
    cert = certificate_build(mapping, opts)
    return Verdict("transcendental-evidence", "separable-multiplicative-or-lattes",
                   None, cert, 0)


def _rational_verdict(mapping, D, reason, opts):
    num, den = _rational_form(D)
    counts = [per_n_closed(mapping, n) for n in range(1, opts.series_terms + 1)]
    series = zeta_from_counts(counts)
    expansion = series_of_rational(num, den, opts.series_terms + 1)
    if list(series.coeffs) != expansion:
        raise Mismatch("closed form disagrees with the count series")
    return Verdict("rational", reason, (num, den), None, opts.series_terms)
