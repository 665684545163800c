"""Finite automata with output, kernel exploration, and algebraic series.

The automaticity side of the toolkit is deliberately finite: kernel
exploration groups the subsequences n -> a(k^e n + r) by agreement on a
fixed prefix and reports whether the class count has stopped growing.
A "closed" verdict is evidence, not proof, and the reports say so via the
classification field.  Digits are read least-significant first, which
keeps arithmetic-progression subsequences local.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import modpoly
from .errors import (HypothesisViolated, NotARoot, ScaleExceeded,
                     SingularRoot, SpecError)
from .intarith import (check_prime, multiplicative_order, tower_bound, v_p,
                       v_p_progression)
from .limits import AUTOMATA_KERNEL_BUDGET, CHRISTOL_TERMS_CAP

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


def kernel_cost(base: int, depth: int, prefix_len: int) -> int:
    """Terms kernel_explore(seq, base, depth, prefix_len) compares: one
    prefix_len row per residue r < base^e, for e <= depth."""
    return sum(base ** e for e in range(depth + 1)) * prefix_len


def check_kernel_budget(base: int, depth: int, prefix_len: int, budget: int):
    """ScaleExceeded unless kernel_explore(seq, base, depth, prefix_len)
    costs at most budget."""
    cost = kernel_cost(base, depth, prefix_len)
    if cost > budget:
        raise ScaleExceeded(f"kernel exploration cost {cost} over budget {budget}")


# Odd multiplier M of the row hash sum_j word_j * M^(W - j) mod 2^64 over a
# row's W 64-bit words, and of eventual_period_detect's tail hashes.  A
# collision costs only an exact comparison.
_ROW_HASH_MULTIPLIER = 0x9E3779B97F4A7C15

# Source rows per block of kernel_explore's row copy.  On the 106 kernel
# calls of a verdict pool pass (2-vCPU Xeon, numpy 2.4), 32 beat the
# one-shot transpose, 16 and 64, on uint8, uint16 and int64 terms alike.
_COPY_BLOCK = 32


def kernel_explore(seq, base: int, depth: int, prefix_len: int = 256,
                   budget: int = AUTOMATA_KERNEL_BUDGET) -> KernelReport:
    """Group base-k kernel subsequences by prefix agreement.

    seq is a numpy array of at least base^depth * prefix_len terms, used
    as given, or a pure callable on nonnegative ints, which is read once
    on exactly those indices (its values are compared by equality, so any
    hashable values will do).  Subsequences n -> seq(k^e n + r) for
    e <= depth are distinguished by their first prefix_len values.
    Classification is "closed" when the class count was flat across the
    last two depth increments, "growing" otherwise.

    Row r at depth e, the prefix of n -> seq(k^e n + r), is keyed by its
    bytes, zero-padded to whole 64-bit words.  Only candidate rows are
    looked up: the rows of each depth are grouped by a hash of their
    words, and a row is a candidate when it is the first of its group or
    differs from that first row in some word (compared one word column
    at a time).  Every other row has the bytes of an earlier row of its
    depth, so it can neither open a class nor be a class's first row:
    the counts and witnesses are those of a byte comparison of every row,
    whatever the hash does.
    """
    _check_kernel_plan(base, depth, prefix_len, budget)
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

    row_bytes = prefix_len * terms.dtype.itemsize
    width = -(-row_bytes // 8)
    powers = np.array([pow(_ROW_HASH_MULTIPLIER, width - j, 1 << 64)
                       for j in range(width)], np.uint64)
    signatures = {}
    counts = []
    for e in range(depth + 1):
        ke = base ** e
        padded = np.zeros((ke, 8 * width), np.uint8)
        rows = padded[:, :row_bytes].view(terms.dtype)
        # row r is column r of the source; a block of source rows at a
        # time keeps both sides of each transposed copy in cache
        source = terms[:ke * prefix_len].reshape(prefix_len, ke)
        for j in range(0, prefix_len, _COPY_BLOCK):
            rows[:, j:j + _COPY_BLOCK] = source[j:j + _COPY_BLOCK].T
        words = padded.view(np.uint64)
        hashes = words @ powers
        _, first, group = np.unique(hashes, return_index=True,
                                    return_inverse=True)
        leader = first[group]
        candidate = np.zeros(ke, bool)
        candidate[first] = True
        for j in range(width):
            column = words[:, j]
            candidate |= column != column[leader]
        for r in np.flatnonzero(candidate).tolist():
            signatures.setdefault(padded[r].tobytes(), (e, r))
        counts.append(len(signatures))
    return _kernel_report(base, depth, prefix_len, counts, signatures)


def _kernel_report(base, depth, prefix_len, counts, signatures):
    """The KernelReport of cumulative class counts and of the first
    (depth, residue) of each row signature."""
    if depth >= 2 and counts[-1] == counts[-2] == counts[-3]:
        classification = "closed"
    else:
        classification = "growing"
    witnesses = tuple(sorted(signatures.values()))[:64]
    return KernelReport(base, depth, prefix_len, tuple(counts),
                        classification, witnesses)


def _check_kernel_plan(base, depth, prefix_len, budget):
    if base < 2 or depth < 0 or prefix_len < 1:
        raise SpecError("kernel exploration needs base >= 2, depth >= 0 "
                        "and prefix_len >= 1")
    check_kernel_budget(base, depth, prefix_len, budget)


def progression_kernel(alpha: int, beta: int, p: int, term, dtype, depth: int,
                       prefix_len: int = 256,
                       budget: int = AUTOMATA_KERNEL_BUDGET) -> KernelReport:
    """kernel_explore(seq, p, depth, prefix_len, budget) of the sieve
    sequence seq(n) = term(v_p(alpha*n + beta)), its terms of the given
    dtype (a zero term, at most one, has valuation 0, as in
    v_p_progression), without forming seq.

    Row (e, r) is the sieve of the progression (alpha p^e, c), c =
    alpha r + beta, and is the constant term(v_p(c)) when v_p(c) is below
    v_p(alpha p^e).  Write alpha = p^a u with u prime to p.  When p^a
    does not divide beta, every c has valuation v_p(beta) < a, so every
    row is that one constant.  Otherwise beta = p^a b and v_p(c) =
    a + v_p(u r + b), which is at least a + j exactly for r = -b/u mod
    p^j.  So at depth e each valuation a + j with j < e first occurs at
    r = -b/u mod p^j, or at that plus p^j when it is also -b/u mod
    p^(j+1), in a constant row; the one row with v_p(c) >= a + e, r =
    -b/u mod p^e, is a v_p_progression of prefix_len terms.  Every other
    row of the depth repeats one of these, so inserting them in (e, r)
    order into one signature dict gives kernel_explore's class counts
    and witnesses: depth e costs e + 1 rows and one sieve of prefix_len
    terms, not p^e rows of the sequence.
    """
    _check_kernel_plan(p, depth, prefix_len, budget)
    if alpha == 0:
        raise SpecError("progression stride must be nonzero")
    # every row's terms lie below |alpha| p^depth prefix_len + |beta|
    top = (abs(alpha) * p ** depth * prefix_len + abs(beta)).bit_length()
    table = np.array([term(v) for v in range(top + 1)], dtype=dtype)

    def constant(v):
        return np.full(prefix_len, table[v], dtype).tobytes()

    a = v_p(alpha, p)
    pa = p ** a
    if beta % pa:
        return _kernel_report(p, depth, prefix_len, [1] * (depth + 1),
                              {constant(v_p(beta, p)): (0, 0)})
    unit, b = alpha // pa, beta // pa
    signatures = {}
    counts = []
    rows = []  # (least r with v_p(u r + b) = j, its constant row), j < e
    rho = 0
    for e in range(depth + 1):
        pe = p ** e
        last, rho = rho, -b * pow(unit, -1, pe) % pe
        if e:
            rows.append((last + pe // p * (last == rho), constant(a + e - 1)))
        sieve = v_p_progression(alpha * pe, alpha * rho + beta, p, prefix_len,
                                table)
        for r, row in sorted(rows + [(rho, sieve.tobytes())]):
            signatures.setdefault(row, (e, r))
        counts.append(len(signatures))
    return _kernel_report(p, depth, prefix_len, counts, signatures)


PERIOD_MIN_REPEATS = 3


def eventual_period_detect(prefix):
    """Least (preperiod, period) consistent with the whole prefix.

    Requires PERIOD_MIN_REPEATS full periods of evidence, and the
    preperiod may not exceed half the prefix, so that accidental
    regularity in a short tail is not reported as periodicity.  Periods
    are minimized first, then preperiods.  None when nothing fits.

    A numeric numpy array is read as given; any other sequence (tuples,
    ints past 2^63) is first read into dense ids, one per distinct value.
    With n terms, a period P has its preperiod at most n // 2 exactly
    when the tail u = prefix[n // 2:] has period P.  Every P <= n // 3
    is screened at once by Karp-Rabin prefix hashes of u mod 2^64: the
    hash of u[P:] must equal M^P times that of u[:len(u) - P].  A tail
    of period P always passes, so a discarded P cannot meet the preperiod
    bound; each kept P, in ascending order, gets its preperiod from one
    exact comparison of the whole prefix with its shift by P.  So the
    result is that of a term-by-term scan of every period, whatever the
    hash does.
    """
    if (isinstance(prefix, np.ndarray) and prefix.ndim == 1
            and prefix.dtype.kind in "biu"):
        seq = prefix.astype(np.uint64)
    else:
        ids = {}
        seq = np.fromiter((ids.setdefault(x, len(ids)) for x in prefix),
                          np.uint64)
    n = len(seq)
    if n < 16:
        raise SpecError("need at least 16 terms to call periodicity")
    half = n // 2
    tail = seq[half:]
    # powers[k] = M^k and hashes[k] = sum_{i < k} tail_i M^(i + 1), mod 2^64
    powers = np.empty(len(tail) + 1, np.uint64)
    powers[0] = 1
    np.cumprod(np.full(len(tail), _ROW_HASH_MULTIPLIER, np.uint64),
               out=powers[1:])
    hashes = np.zeros(len(tail) + 1, np.uint64)
    np.cumsum(tail * powers[1:], out=hashes[1:])
    periods = np.arange(1, n // PERIOD_MIN_REPEATS + 1)
    kept = (hashes[-1] - hashes[periods]
            == powers[periods] * hashes[len(tail) - periods])
    for period in periods[kept].tolist():
        mismatches = np.flatnonzero(seq[:n - period] != seq[period:])
        preperiod = int(mismatches[-1]) + 1 if len(mismatches) else 0
        if (preperiod <= half
                and n - preperiod >= PERIOD_MIN_REPEATS * period):
            return preperiod, period
    return None


# -- algebraic power series --------------------------------------------------------------


def _series_mul(a, b, p, n):
    """a*b mod t^n; an empty or one-term factor is a scalar pass."""
    a, b = a[:n], b[:n]
    if len(a) > len(b):
        a, b = b, a
    if len(a) > 1:
        return modpoly.mul(a, b, p)[:n]
    if not len(a) or not a[0]:
        return b[:0]
    return b if a[0] == 1 else a[0] * b % p


def _series_add(a, b, p):
    """a + b, trimmed."""
    if len(a) < len(b):
        a, b = b, a
    if not len(b):
        return modpoly.trim_array(a)
    out = a.copy()
    out[:len(b)] += b
    out[:len(b)] %= p
    return modpoly.trim_array(out)


def _series_inv(a, p, n, start=None, valid=0):
    """Inverse of a unit power series mod t^n by Newton doubling.

    start, when given, is an inverse of a mod t^valid (valid >= 1), and
    the doubling resumes from it."""
    if not len(a) or not a[0]:
        raise SpecError("series inversion needs a unit constant term")
    a = modpoly.trim_array(a[:n])
    if start is None:
        inv, prec = np.array([pow(int(a[0]), p - 2, p)], a.dtype), 1
    else:
        prec = min(valid, n)
        inv = start[:prec]
    # once a*inv = 1 exactly (a constant a), inv is the inverse mod every t^n
    while prec < n and len(a) > 1:
        half, prec = prec, min(2 * prec, n)
        # a*inv = 1 + t^half*e mod t^prec, so inv*(1 - t^half*e) is the
        # inverse mod t^prec; inv has at most half terms
        e = _series_mul(a, inv, p, prec)[half:]
        inv = np.concatenate((inv, np.zeros(half - len(inv), a.dtype),
                              -_series_mul(inv, e, p, prec - half) % p))
    return inv


def _series_val(a, default=None):
    nonzero = np.flatnonzero(a)
    return int(nonzero[0]) if len(nonzero) else default


def frobenius_horner(coeffs, y, p, n):
    """P(t, y) mod t^n over F_p, coeffs listing P's y-coefficients
    (ascending, each an array of residues in t, ascending), y an array of
    residues of the same dtype.  Returns a trimmed array of that dtype.

    Every series is a numpy array of the dtype of modpoly.residues(., p):
    int64 while (p-1)^2 + p < 2^62 and object arrays of Python ints above
    that, so each sum, scalar pass and strided copy is one array
    operation, and each product one modpoly.mul.

    Over F_p, y(t)^p = y(t^p), so P = sum_q B_q(y) * Y^q with Y = y(t^p),
    one strided copy of y, and B_q = sum_{r < p} coeffs[q*p + r] * y^r.
    Horner runs over each B_q in y and over the B_q in Y, so an equation
    of y-degree below 2p multiplies y and Y only by its coefficients.
    Empty coefficients and empty partial sums take no array operation.
    """
    y = y[:n]
    m = min(len(y), -(-n // p))
    if m > 1:
        frob = np.zeros(p * m - p + 1, y.dtype)
        frob[::p] = y[:m]
    else:
        frob = y[:m]
    acc = y[:0]
    for q in range((len(coeffs) - 1) // p * p, -1, -p):
        inner = y[:0]
        for coeff in reversed(coeffs[q:q + p]):
            if len(inner):
                inner = _series_mul(inner, y, p, n)
            if len(coeff):
                inner = _series_add(inner, coeff[:n], p)
        if len(acc):
            acc = _series_mul(acc, frob, p, n)
        acc = _series_add(acc, inner, p)
    return acc


def christol_series(poly_y, p: int, prefix, length: int):
    """Coefficients of the power-series root of P(t, y) = 0 extending prefix.

    poly_y lists the y-coefficients of P as int polynomials in t
    (ascending).  The prefix must satisfy P(t, y0) = 0 mod t^len(prefix),
    and the t-valuations s of P(y0) and v of the y-derivative P'(y0) must
    pass the Hensel gate s > 2v.  The root r with val(r - y0) > v is then
    unique, and Newton iteration converges to it.  A length past
    CHRISTOL_TERMS_CAP is refused (ScaleExceeded) before any series is
    formed.  The result is a list of Python ints.

    Each step works only at the precision it gains.  At y with
    val P(y) >= s it evaluates P(y) mod t^n, n = min(2s - 2v, length + v),
    and P'(y) mod t^(n - s + v), and inverts the unit P'(y)/t^v mod
    t^(n - s); the correction P(y)/P'(y) is then exact mod t^(n - v), and
    the new y, kept to n - v terms, has val P(y) >= n.  The gain s - 2v
    doubles every step, so the steps cost a geometric sum dominated by
    the last.  Each step evaluates P and P' by frobenius_horner, which
    reaches y^p as y(t^p) through a strided copy; for y-degree below 2p
    (y^p - y - t^c, a quadratic over F_2) that leaves only products of y
    or y(t^p) by coefficient polynomials, scalar passes when these are
    constants.  The unit is inverted by Newton doubling, skipped when
    P'(y) is a constant and resumed from the last step's inverse, which
    y's last correction leaves right to half the precision needed; one
    product gives the correction.  So the steps cost O(deg_y * M(length))
    in general, M(n) being the cost of one length-n product, and
    O(length) scalar passes for y^p - y - t^c.  Every series, from the
    coefficients of P to the Newton update, is a numpy array of residues
    of modpoly.residues' dtype (int64 while (p-1)^2 + p < 2^62, object
    arrays of Python ints above that), so no step loops over
    coefficients in Python.
    The result is re-substituted into P and checked to vanish mod
    t^length before returning.
    """
    check_prime(p)
    if length < 0:
        raise SpecError("series length must not be negative")
    if length > CHRISTOL_TERMS_CAP:
        raise ScaleExceeded(f"series length {length} over the cap "
                            f"{CHRISTOL_TERMS_CAP}")
    poly_y = [modpoly.trim_array(modpoly.residues(coeff, p))
              for coeff in poly_y]
    if len(poly_y) < 2:
        raise SpecError("equation must involve y")
    work = length + 8
    d_poly_y = [modpoly.trim_array(coeff * (j % p) % p)
                for j, coeff in enumerate(poly_y)][1:]
    # P' drops the y^j terms with p | j: y^p - y - t^c has P' = -1
    while d_poly_y and not len(d_poly_y[-1]):
        d_poly_y.pop()

    y = modpoly.residues(prefix, p)
    deriv = frobenius_horner(d_poly_y, y, p, work)
    v = _series_val(deriv)
    # P(y0) vanishing to the whole probe reads as s = probe; the probe
    # reads past 2v, so that s still decides the Hensel gate.
    probe = max(work + 8, 2 * len(y) + 8, 2 * (v or 0) + 1)
    s = _series_val(frobenius_horner(poly_y, y, p, probe), probe)
    if s < len(y):
        raise NotARoot("prefix does not annihilate the equation to its length")
    if v is None or s <= 2 * v:
        # Classical Hensel gate: val(P(y0)) must exceed 2*val(P'(y0)).
        raise SingularRoot("prefix too shallow for the derivative's t-valuation")

    steps = 0
    inv, inv_valid = None, 0
    while s < length + v:
        n = min(2 * s - 2 * v, length + v)
        value = frobenius_horner(poly_y, y, p, n)
        if _series_val(value[:s]) is not None:
            raise SingularRoot("Newton iteration failed to converge")
        deriv = frobenius_horner(d_poly_y, y, p, n - s + v)
        if _series_val(deriv) != v:
            raise SingularRoot("derivative valuation drifted (internal)")
        # y moved by O(t^(s - v)) since the last inverse, valid mod
        # t^(n_prev - s_prev) <= t^(s - 2v), so one doubling restores it
        inv = _series_inv(deriv[v:], p, n - s, inv, inv_valid)
        inv_valid = n - s
        # y - t^(s - v) * P(y)/P'(y), kept to n - v terms: the correction
        # starts past y's end except when a long prefix overlaps it
        step = _series_mul(value[s:], -inv % p, p, n - s)
        cut = s - v
        y = np.concatenate((y[:cut], np.zeros(cut - len(y[:cut]), y.dtype),
                            _series_add(y[cut:n - v], step, p)))
        s = n
        steps += 1
        if steps > length.bit_length() + 8:
            raise SingularRoot("Newton iteration failed to converge")
    out = np.zeros(length, y.dtype)
    out[:len(y[:length])] = y[:length]
    if _series_val(frobenius_horner(poly_y, out, p, length)) is not None:
        raise NotARoot("resulting series fails re-substitution (internal)")
    return out.tolist()


# -- the two canonical non-automatic witness families ----------------------------------------


def driving_progression(shape, alpha, beta):
    """(alpha, beta) of the progression whose valuations drive a residue
    sequence: alpha*n + beta in the geometric shape, n in the tower shape."""
    return (alpha, beta) if shape == "geometric" else (1, 0)


def _driving_sieve(shape, alpha, beta, p, n, term, dtype):
    """term(v) of the driving valuation v at each of the first n indices,
    with a zero term at v = 0.  A table of term(v) over every valuation
    that occurs is written by the sieve of v_p_progression."""
    alpha, beta = driving_progression(shape, alpha, beta)
    top = (abs(alpha) * n + abs(beta)).bit_length()
    table = np.array([term(v) for v in range(top + 1)], dtype=dtype)
    return v_p_progression(alpha, beta, p, n, table)


def residue_term(shape, ratio, a1, p, ell):
    """(term, dtype): a residue-sequence term as a function of its driving
    valuation v, ratio^v mod ell in the geometric shape and p^(a1 * p^v)
    mod ell in the tower shape (the exponent reduced mod the order of p),
    and the numpy dtype that holds every term."""
    if shape == "geometric":
        def term(v):
            return pow(ratio, v, ell)
    else:
        ordp = multiplicative_order(p % ell, ell)

        def term(v):
            return pow(p, a1 * pow(p, v, ordp) % ordp, ell)
    return term, np.min_scalar_type(ell - 1)


def residue_sequence(shape, ratio, a1, alpha, beta, p, ell, n):
    """numpy array of the first n residue-sequence terms.

    A term depends on its driving valuation v alone (residue_term), so
    the terms are a table of one entry per valuation written by a sieve
    over the valuation levels: about n/(p - 1) writes after one fill, and
    no index of the whole length is gathered.
    """
    return _driving_sieve(shape, alpha, beta, p, n,
                          *residue_term(shape, ratio, a1, p, ell))


@dataclass(frozen=True)
class ValuationSequence:
    """A residue sequence driven by p-adic valuations, plus its witness data.

    values[i] is the term at n = index_base + i; order is the
    multiplicative order d of the ratio base mod ell.  Each term depends
    only on its driving valuation mod d, which is what makes the sequence
    p-automatic, while its base-ell kernel is expected to grow.
    """

    values: tuple
    p: int
    ell: int
    order: int
    index_base: int


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
    values = residue_sequence("geometric", a, 0, alpha, beta, p, ell,
                              max(length, 0))
    return ValuationSequence(tuple(values.tolist()), p, ell,
                             multiplicative_order(a % ell, ell), 0)


def vp_tower_sequence(a: int, p: int, ell: int, length: int) -> ValuationSequence:
    """p^(a * p^(v_p(n))) mod ell for n = 1..length (values[i] is n = i+1).

    Hypotheses: ell > p^(a*p^a); for odd p additionally gcd(p, ell-1) = 1,
    for p = 2 instead ell = 7 mod 8.  The factoring witness reduces the
    tower exponent a*p^(v_p(n)) modulo the order of p^a mod ell.
    """
    check_prime(p)
    check_prime(ell)
    if a < 1:
        raise HypothesisViolated("exponent multiplier must be positive")
    if tower_bound(p, a, ell) is None:
        raise HypothesisViolated("ell must exceed p^(a p^a)")
    if p % 2:
        if math.gcd(p, ell - 1) != 1:
            raise HypothesisViolated("p must not divide ell - 1")
    elif ell % 8 != 7:
        raise HypothesisViolated("p = 2 requires ell = 7 mod 8")
    values = residue_sequence("tower", p, a, 0, 0, p, ell, max(length, 0) + 1)
    return ValuationSequence(tuple(values[1:].tolist()), p, ell,
                             multiplicative_order(pow(p, a, ell), ell), 1)
