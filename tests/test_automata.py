import random

import numpy as np
import pytest

from dynzeta.automata import (Dfao, KernelReport, christol_series, dfao_eval,
                              eventual_period_detect, kernel_explore,
                              vp_geometric_sequence, vp_tower_sequence)
from dynzeta.errors import (HypothesisViolated, NotARoot, ScaleExceeded,
                            SingularRoot, SpecError)

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
            assert dfao_eval(PO2, n) == po2(n)

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

    def test_dfao_against_christol(self):
        coeffs = christol_series([[0, 1], [1], [1]], 2, [0, 1], 512)
        for n in range(512):
            assert dfao_eval(PO2, n) == coeffs[n]


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
        grow = kernel_explore(vt.oracle(), 29, 2, prefix_len=48)
        assert not grow.closed
        assert grow.class_counts[1] < grow.class_counts[2]
