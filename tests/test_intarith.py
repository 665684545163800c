import random

import pytest

from dynzeta.errors import SpecError
from dynzeta.intarith import isqrt_exact, v_p, v_p_progression


def _expected(alpha, beta, p, n):
    # A zero term has no valuation; the package's sequences give it 0.
    return [v_p(alpha * i + beta, p) if alpha * i + beta else 0
            for i in range(n)]


class TestValuationProgression:
    def test_matches_v_p_term_by_term(self):
        rng = random.Random(11)
        for _ in range(300):
            p = rng.choice((2, 3, 5, 7, 11, 13))
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            alpha = rng.choice((1, -1)) * rng.randint(1, 50) * p ** a
            beta = rng.choice((1, -1)) * rng.randint(0, 50) * p ** b
            n = rng.randint(0, 400)
            got = v_p_progression(alpha, beta, p, n)
            assert got.tolist() == _expected(alpha, beta, p, n), (alpha, beta, p)

    def test_p_divides_alpha(self):
        # v_p(alpha) > v_p(beta): every term has the valuation of beta
        assert v_p_progression(9, 3, 3, 50).tolist() == [1] * 50
        assert v_p_progression(12, 6, 2, 40).tolist() == _expected(12, 6, 2, 40)
        assert v_p_progression(25, 50, 5, 60).tolist() == _expected(25, 50, 5, 60)

    def test_terms_past_int64(self):
        for alpha, beta, p in ((2 ** 70 + 1, 3 ** 45, 3),
                               (3 ** 40, 3 ** 41 * 2 + 3 ** 40, 3),
                               (7 ** 30, 7 ** 32, 7),
                               (1, 2 ** 64 - 8, 2),
                               (4294967311 * 4294967313, 4294967311 ** 2,
                                4294967311)):
            assert alpha * 999 + beta > 2 ** 63
            assert v_p_progression(alpha, beta, p, 1000).tolist() == \
                _expected(alpha, beta, p, 1000)

    def test_zero_term(self):
        assert v_p_progression(1, 0, 3, 10).tolist() == [0, 0, 0, 1, 0, 0, 1, 0, 0, 2]
        assert v_p_progression(-2, 8, 2, 6).tolist() == [3, 1, 2, 1, 0, 1]

    def test_zero_stride_rejected(self):
        with pytest.raises(SpecError):
            v_p_progression(0, 1, 3, 10)


class TestIsqrtExact:
    def test_large_squares(self):
        for root in (3 ** 80, 10 ** 40 + 7, 2 ** 200 - 1, 12345678901234567):
            assert isqrt_exact(root * root) == root

    def test_large_non_squares(self):
        for root in (3 ** 80, 10 ** 40 + 7, 2 ** 200 - 1, 12345678901234567):
            assert isqrt_exact(root * root + 1) is None
            assert isqrt_exact(root * root - 1) is None

    def test_small_values(self):
        assert [isqrt_exact(n) for n in range(10)] == \
            [0, 1, None, None, 2, None, None, None, None, 3]
        assert isqrt_exact(-4) is None
