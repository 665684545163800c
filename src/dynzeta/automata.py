"""Finite automata with output, kernel exploration, and algebraic series.

The automaticity side of the toolkit is deliberately finite: kernel
exploration groups the subsequences n -> a(k^e n + r) by agreement on a
fixed prefix and reports whether the class count has stopped growing.
A "closed" verdict is evidence, not proof, and the reports say so via the
classification field.  Digits are read least-significant first, which
keeps arithmetic-progression subsequences local.
"""

from dataclasses import dataclass

import numpy as np

from . import modpoly
from .errors import (HypothesisViolated, NotARoot, ScaleExceeded,
                     SingularRoot, SpecError)
from .intarith import check_prime, gcd_int, multiplicative_order, v_p

# -- automata ------------------------------------------------------------------


@dataclass(frozen=True)
class Dfao:
    """Deterministic finite automaton with output, digits LSD-first.

    transitions[state][digit] -> state; outputs[state] is the value
    emitted after the whole digit string is consumed.  Construction
    verifies the trailing-zero invariant: padding the input with extra
    zero digits never changes the output.
    """

    base: int
    transitions: tuple
    outputs: tuple
    initial: int = 0

    def __post_init__(self):
        if self.base < 2:
            raise SpecError("digit base must be at least 2")
        for row in self.transitions:
            if len(row) != self.base:
                raise SpecError("transition table width must equal the base")
            for t in row:
                if not 0 <= t < len(self.transitions):
                    raise SpecError("transition target out of range")
        reachable = {self.initial}
        frontier = [self.initial]
        while frontier:
            s = frontier.pop()
            for t in self.transitions[s]:
                if t not in reachable:
                    reachable.add(t)
                    frontier.append(t)
        for s in reachable:
            # Outputs must be constant along the zero-digit orbit.
            seen = set()
            cur = s
            while cur not in seen:
                seen.add(cur)
                if self.outputs[cur] != self.outputs[s]:
                    raise SpecError("trailing zero digits change the output")
                cur = self.transitions[cur][0]

    def eval(self, n: int):
        if n < 0:
            raise SpecError("automata read nonnegative integers")
        state = self.initial
        while n:
            state = self.transitions[state][n % self.base]
            n //= self.base
        return self.outputs[state]


def dfao_eval(automaton: Dfao, n: int):
    return automaton.eval(n)


# -- kernel exploration ------------------------------------------------------------


@dataclass(frozen=True)
class KernelReport:
    base: int
    depth: int
    prefix_len: int
    class_counts: tuple       # cumulative distinct classes at depth 0..depth
    classification: str       # "closed" or "growing" (finite evidence only)
    witnesses: tuple          # one (depth, residue) representative per class

    @property
    def closed(self):
        return self.classification == "closed"

    @property
    def closure_depth(self):
        """First depth whose class count already equals the stable count.

        Only meaningful on a "closed" report; the flat tail at the end of
        class_counts is the certificate that the count is stable.
        """
        final = self.class_counts[-1]
        for e, c in enumerate(self.class_counts):
            if c == final:
                return e
        return self.depth


def kernel_explore(seq, base: int, depth: int, prefix_len: int = 256,
                   budget: int = 10_000_000) -> KernelReport:
    """Group base-k kernel subsequences by prefix agreement.

    seq is a numpy array of at least base^depth * prefix_len terms, used
    as given, or a pure callable on nonnegative ints, which is read once
    on exactly those indices (its values are compared by equality, so any
    hashable values will do).  Subsequences n -> seq(k^e n + r) for
    e <= depth are distinguished by their first prefix_len values.
    Classification is "closed" when the class count was flat across the
    last two depth increments, "growing" otherwise.
    """
    if base < 2:
        raise SpecError("kernel base must be at least 2")
    cost = sum(base ** e for e in range(depth + 1)) * prefix_len
    if cost > budget:
        raise ScaleExceeded(f"kernel exploration cost {cost} over budget {budget}")
    horizon = base ** depth * prefix_len
    if isinstance(seq, np.ndarray):
        if seq.dtype.hasobject:
            raise SpecError("kernel arrays must hold numbers, not objects")
        if len(seq) < horizon:
            raise SpecError(f"kernel exploration reads {horizon} terms, "
                            f"the sequence has {len(seq)}")
        terms = seq
    else:
        ids = {}
        terms = np.fromiter((ids.setdefault(seq(i), len(ids))
                             for i in range(horizon)), np.int64, horizon)

    # Row r of the (k^e, prefix_len) transpose is the prefix of
    # n -> seq(k^e n + r); its bytes key its class.
    signatures = {}
    counts = []
    for e in range(depth + 1):
        ke = base ** e
        rows = np.ascontiguousarray(terms[:ke * prefix_len].reshape(prefix_len, ke).T)
        for r in range(ke):
            signatures.setdefault(rows[r].tobytes(), (e, r))
        counts.append(len(signatures))
    if depth >= 2 and counts[-1] == counts[-2] == counts[-3]:
        classification = "closed"
    else:
        classification = "growing"
    witnesses = tuple(sorted(signatures.values()))[:64]
    return KernelReport(base, depth, prefix_len, tuple(counts),
                        classification, witnesses)


def eventual_period_detect(prefix, min_repeats: int = 3,
                           max_preperiod: int | None = None):
    """Least (preperiod, period) consistent with the whole prefix.

    Requires at least min_repeats full periods of evidence, and the
    preperiod may not exceed max_preperiod (default: half the prefix) so
    that accidental regularity in a short tail is not reported as
    periodicity.  Periods are minimized first, then preperiods.  None
    when nothing fits.
    """
    seq = list(prefix)
    if len(seq) < 16:
        raise SpecError("need at least 16 terms to call periodicity")
    if max_preperiod is None:
        max_preperiod = len(seq) // 2
    limit = len(seq) // min_repeats
    for period in range(1, limit + 1):
        mismatch = -1
        for i in range(len(seq) - period - 1, -1, -1):
            if seq[i] != seq[i + period]:
                mismatch = i
                break
        preperiod = mismatch + 1
        if preperiod <= max_preperiod and len(seq) - preperiod >= min_repeats * period:
            return preperiod, period
    return None


# -- algebraic power series --------------------------------------------------------------


def _series_mul(a, b, p, n):
    out = modpoly.mul(a[:n], b[:n], p)[:n]
    return out


def _series_inv(a, p, n):
    """Inverse of a unit power series mod t^n by Newton doubling."""
    if not a or a[0] == 0:
        raise SpecError("series inversion needs a unit constant term")
    inv = [pow(a[0], p - 2, p)]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        t = _series_mul(a[:prec], inv, p, prec)
        # inv <- inv * (2 - a*inv) mod t^prec
        two_minus = [(-c) % p for c in t] + [0] * (prec - len(t))
        two_minus[0] = (two_minus[0] + 2) % p
        inv = _series_mul(inv, two_minus, p, prec)
        inv += [0] * (prec - len(inv))
    return inv[:n]


def _series_val(a):
    for i, c in enumerate(a):
        if c:
            return i
    return None


def christol_series(poly_y, p: int, prefix, length: int):
    """Coefficients of the power-series root of P(t, y) = 0 extending prefix.

    poly_y lists the y-coefficients of P as int polynomials in t
    (ascending).  The prefix must satisfy P(t, y0) = 0 mod t^len(prefix)
    and the y-derivative at the prefix must have t-valuation v with
    len(prefix) - 1 > 2v; Newton iteration then doubles the precision gain
    each step.  The result is re-substituted into P and checked to vanish
    mod t^length before returning.
    """
    check_prime(p)
    poly_y = [list(c) for c in poly_y]
    if len(poly_y) < 2:
        raise SpecError("equation must involve y")
    work = length + 8

    def eval_P(y, n):
        acc = []
        for coeff in reversed(poly_y):
            acc = modpoly.add(_series_mul(acc, y, p, n), [c % p for c in coeff[:n]], p)
        return acc[:n]

    def eval_dP(y, n):
        acc = []
        for j in range(len(poly_y) - 1, 0, -1):
            term = [c * j % p for c in poly_y[j][:n]]
            acc = modpoly.add(_series_mul(acc, y, p, n), term, p)
        return acc[:n]

    y = [c % p for c in prefix]
    probe = max(work + 8, 2 * len(y) + 8)
    value = eval_P(y, probe)
    s = _series_val(value)
    if s is not None and s < len(y):
        raise NotARoot("prefix does not annihilate the equation to its length")
    deriv = eval_dP(y, work)
    v = _series_val(deriv)
    if v is None or (s is not None and s <= 2 * v):
        # Classical Hensel gate: val(P(y0)) must exceed 2*val(P'(y0)).
        raise SingularRoot("prefix too shallow for the derivative's t-valuation")

    steps = 0
    while True:
        value = eval_P(y, length + v + 1)
        val_v = _series_val(value)
        if val_v is None or val_v >= length + v:
            break
        deriv = eval_dP(y, work)
        if _series_val(deriv) != v:
            raise SingularRoot("derivative valuation drifted (internal)")
        unit = deriv[v:] + [0] * v
        correction = _series_mul(value[v:] + [0] * v, _series_inv(unit, p, work), p, work)
        y = modpoly.sub(y, correction, p)
        y = [c % p for c in y[:work]]
        steps += 1
        if steps > length.bit_length() + 8:
            raise SingularRoot("Newton iteration failed to converge")
    out = (y + [0] * length)[:length]
    check = eval_P(out, length)
    if _series_val(check) is not None and _series_val(check) < length:
        raise NotARoot("resulting series fails re-substitution (internal)")
    return out


# -- the two canonical non-automatic witness families ----------------------------------------


@dataclass(frozen=True)
class ValuationSequence:
    """A residue sequence driven by p-adic valuations, plus its witness data.

    values[i] is the term at index i (see index_base); order is the
    multiplicative order d of the ratio base mod ell, and classes[i] is
    the driving valuation reduced mod d, through which the sequence
    factors.  That factorization is what makes the sequence p-automatic,
    while its base-ell kernel is expected to grow.
    """

    values: tuple
    classes: tuple
    p: int
    ell: int
    order: int
    index_base: int   # values[i] is the term at n = index_base + i

    def oracle(self):
        vals = self.values

        def seq(i):
            return vals[i]

        return seq


def vp_geometric_sequence(a: int, p: int, ell: int, alpha: int, beta: int,
                          length: int) -> ValuationSequence:
    """a^(v_p(alpha*n + beta)) mod ell for n = 0..length-1.

    Hypotheses: p and ell distinct primes, a a unit mod ell with
    a != 1 mod ell, alpha nonzero, v_p(alpha) <= v_p(beta).  Indices with
    alpha*n + beta = 0 (at most one) take the value 1 by convention.
    """
    check_prime(p)
    check_prime(ell)
    if p == ell:
        raise HypothesisViolated("the two primes must differ")
    if a % ell in (0, 1):
        raise HypothesisViolated("ratio must be a nontrivial unit mod ell")
    if alpha == 0:
        raise HypothesisViolated("alpha must be nonzero")
    if beta != 0 and v_p(alpha, p) > v_p(beta, p):
        raise HypothesisViolated("v_p(alpha) must not exceed v_p(beta)")
    d = multiplicative_order(a % ell, ell)
    values = []
    classes = []
    for n in range(length):
        arg = alpha * n + beta
        if arg == 0:
            values.append(1)
            classes.append(0)
            continue
        v = v_p(arg, p)
        classes.append(v % d)
        values.append(pow(a % ell, v % d, ell))
    return ValuationSequence(tuple(values), tuple(classes), p, ell, d, 0)


def vp_tower_sequence(a: int, p: int, ell: int, length: int,
                      enforce_bound: bool = True) -> ValuationSequence:
    """p^(a * p^(v_p(n))) mod ell for n = 1..length (values[i] is n = i+1).

    Hypotheses: ell > p^(a*p^a); for odd p additionally gcd(p, ell-1) = 1,
    for p = 2 instead ell = 7 mod 8.  The factoring witness reduces the
    tower exponent a*p^(v_p(n)) modulo the order of p^a mod ell.
    """
    check_prime(p)
    check_prime(ell)
    if a < 1:
        raise HypothesisViolated("exponent multiplier must be positive")
    if enforce_bound and ell <= p ** (a * p ** a):
        raise HypothesisViolated("ell must exceed p^(a p^a)")
    if p % 2:
        if gcd_int(p, ell - 1) != 1:
            raise HypothesisViolated("p must not divide ell - 1")
    elif ell % 8 != 7:
        raise HypothesisViolated("p = 2 requires ell = 7 mod 8")
    d = multiplicative_order(pow(p, a, ell), ell)
    ord_p = multiplicative_order(p % ell, ell)
    values = []
    classes = []
    for n in range(1, length + 1):
        v = v_p(n, p)
        exponent = (a * pow(p, v, ord_p)) % ord_p
        classes.append(exponent)
        values.append(pow(p, exponent, ell))
    return ValuationSequence(tuple(values), tuple(classes), p, ell, d, 1)
