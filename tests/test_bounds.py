import math
import random

import mpmath
import pytest

from curvecover import (beta_extremal, bkk_table, gamma_upper_refined,
                        gamma_upper_simple, idle_time_lower, rendered_rows,
                        sin_taylor_upper, solve_sk, table1)
from curvecover.bounds import round_nearest3, round_up3
from curvecover.errors import (EmptyInput, KTooSmall, NonPositiveSpeed,
                               OutOfRange)


def _cold_bisection(k, relative=True):
    """solve_sk's bisection from [0, 1/2], stopping at 1e-14 wide and, if
    ``relative``, at 1e-10 of the left end."""
    f = lambda s: s + math.sin(math.pi * s) / math.pi - 2.0 * (1.0 - s) / (k - 1)
    a, b = 0.0, 0.5
    while b - a > 1e-14 or (relative and b - a > 1e-10 * a):
        m = 0.5 * (a + b)
        if f(m) < 0.0:
            a = m
        else:
            b = m
    return a, 2.0 * (1.0 - a) / (k - 1)


def _double_loop_bkk(k_max):
    """bkk_table as a double loop over divisors and sum splits."""
    g = {1: 1.0}
    if k_max >= 2:
        g[2] = 0.5 + 1.0 / math.pi
    c = 1.0 + 2.0 / math.pi
    for k in range(3, k_max + 1):
        best = math.inf
        for a in range(2, int(math.isqrt(k)) + 1):
            if k % a == 0:
                best = min(best, g[a] * g[k // a])
        for a in range(1, k // 2 + 1):
            b = k - a
            best = min(best, c * g[a] * g[b] / (g[a] + g[b]))
        g[k] = best
    return g


class TestBetaExtremal:
    def test_k1(self):
        assert beta_extremal(1) == pytest.approx(1.0, abs=1e-15)

    def test_k2(self):
        assert beta_extremal(2) == pytest.approx(0.5 + 1 / math.pi, abs=1e-15)

    def test_k5(self):
        assert round_nearest3(beta_extremal(5)) == 0.387

    def test_k0(self):
        with pytest.raises(KTooSmall):
            beta_extremal(0)


class TestSimpleAndRefined:
    @pytest.mark.parametrize("k,expect", [(2, 1.0), (4, 0.5), (10, 0.2)])
    def test_simple(self, k, expect):
        assert gamma_upper_simple(k) == expect

    def test_refined(self):
        assert gamma_upper_refined(3) == pytest.approx(2 / 3 - 1 / 324, abs=1e-15)
        assert gamma_upper_refined(4) == pytest.approx(0.5 - 1 / 1024, abs=1e-15)

    def test_too_small(self):
        with pytest.raises(KTooSmall):
            gamma_upper_simple(1)
        with pytest.raises(KTooSmall):
            gamma_upper_refined(2)


class TestSolveSk:
    def test_k3(self):
        s, bound = solve_sk(3)
        assert s == pytest.approx(0.3567, abs=1e-4)
        assert bound == pytest.approx(0.6433, abs=1e-4)

    def test_k10(self):
        s, bound = solve_sk(10)
        assert s == pytest.approx(0.1006, abs=1e-3)
        assert round_up3(bound) == 0.200

    @pytest.mark.parametrize("k", range(3, 11))
    def test_residual(self, k):
        s, bound = solve_sk(k)
        f = s + math.sin(math.pi * s) / math.pi - 2 * (1 - s) / (k - 1)
        assert abs(f) < 1e-12
        assert bound == pytest.approx(s + math.sin(math.pi * s) / math.pi,
                                      abs=1e-12)

    def test_k2(self):
        with pytest.raises(KTooSmall):
            solve_sk(2)

    def test_long_arc_within_bound_mpmath(self):
        # at the returned float s_k, s_k + sin(pi s_k)/pi <= 2(1 - s_k)/(k - 1)
        # in 40-digit arithmetic, and the residual stays below 2e-14
        with mpmath.workdps(40):
            for k in range(3, 201):
                s, bound = solve_sk(k)
                long_arc = mpmath.mpf(s) + mpmath.sin(mpmath.pi * s) / mpmath.pi
                assert long_arc <= bound, k
                assert abs(long_arc - 2 * (1 - mpmath.mpf(s)) / (k - 1)) < 2e-14, k

    def test_left_end_below_root_mpmath(self):
        # the bisection keeps a where the float f(a) < 0; f's rounding moves no
        # a of k = 3..20,000 across the root: the exact f(a) < 0 at 50 digits too
        with mpmath.workdps(50):
            for k in range(3, 20_001):
                a = mpmath.mpf(solve_sk(k)[0])
                assert a + mpmath.sin(mpmath.pi * a) / mpmath.pi - 2 * (1 - a) / (k - 1) < 0, k

    @pytest.mark.parametrize("k", [10**6, 10**9, 10**12, 10**15, 2**60 - 1])
    def test_large_k_matches_mpmath_root(self, k):
        # s_k ~ 1/k: an absolute stopping width of 1e-14 lost it (0.0 at 10**15)
        s, bound = solve_sk(k)
        with mpmath.workdps(50):
            root = mpmath.findroot(
                lambda x: x + mpmath.sin(mpmath.pi * x) / mpmath.pi
                - 2 * (1 - x) / (k - 1), mpmath.mpf(1) / k)
            assert abs(s - root) <= 1e-9 * root
        assert s > 0.0
        assert s + math.sin(math.pi * s) / math.pi <= bound

    def test_small_k_unchanged(self):
        # the relative stopping width binds only for k > 14,073: below that
        # s_k is the float the absolute width of 1e-14 alone gives
        for k in range(3, 10_001):
            assert solve_sk(k) == _cold_bisection(k, relative=False), k

    def test_warm_start_matches_cold_bisection(self):
        # the warm start enters the cold loop's bracket at depth 43, so every
        # float is the cold loop's, past 14,073 (the relative width) and past
        # 2^44 (where the start falls back to [0, 1/2]) too
        rng = random.Random(30)
        ks = [*range(10_001, 20_001), *(rng.randrange(3, 2**60) for _ in range(2_000)),
              2**60 - 1]
        for k in ks:
            assert solve_sk(k) == _cold_bisection(k), k


class TestBkkTable:
    def test_small_values(self):
        g = bkk_table(6)
        assert g[1] == 1.0
        assert g[2] == pytest.approx(0.5 + 1 / math.pi, abs=1e-15)
        # k=3 comes from the 1+2 split
        c = 1 + 2 / math.pi
        assert g[3] == pytest.approx(c * g[2] / (1 + g[2]), abs=1e-12)
        # k=4 from the 2*2 product
        assert g[4] == pytest.approx(g[2] ** 2, abs=1e-12)
        assert g[6] <= g[2] * g[3] + 1e-15

    def test_reference_row(self):
        g = bkk_table(10)
        rendered = [round_nearest3(g[k]) for k in range(1, 11)]
        assert rendered == [1.0, 0.818, 0.737, 0.670, 0.634,
                            0.603, 0.574, 0.548, 0.533, 0.519]

    def test_monotone(self):
        g = bkk_table(20)
        assert all(g[k + 1] < g[k] + 1e-12 for k in range(2, 20))

    def test_matches_double_loop(self):
        # one min over a list per row: the same floats as the double loop
        ref = list(_double_loop_bkk(4096).items())
        for k_max in range(1, 301):
            assert list(bkk_table(k_max).items()) == ref[:k_max], k_max
        assert list(bkk_table(4096).items()) == ref


class TestSinTaylor:
    def test_endpoints(self):
        assert sin_taylor_upper(0.0) == 0.0
        assert sin_taylor_upper(math.pi) == pytest.approx(
            math.pi - math.pi**3 / 12, abs=1e-15)

    def test_majorizes_sin(self):
        for i in range(1000):
            x = math.pi * (i + 0.5) / 1000
            assert math.sin(x) <= sin_taylor_upper(x) + 1e-15

    def test_domain(self):
        with pytest.raises(OutOfRange):
            sin_taylor_upper(-0.1)
        with pytest.raises(OutOfRange):
            sin_taylor_upper(3.5)
        with pytest.raises(OutOfRange, match="x must be a real number, got True"):
            sin_taylor_upper(True)  # a bool, not the number 1


class TestIdleTime:
    def test_unit_speeds(self):
        assert idle_time_lower([1] * 5) == pytest.approx(0.2)

    def test_pairs(self):
        assert idle_time_lower((1, 1)) == pytest.approx(0.5)
        assert idle_time_lower((2, 3)) == pytest.approx(0.2)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            idle_time_lower([])
        with pytest.raises(NonPositiveSpeed):
            idle_time_lower([1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, True])
    def test_non_finite_or_negative_speed(self, bad):
        with pytest.raises(NonPositiveSpeed, match=f"got {bad!r}$"):
            idle_time_lower([1.0, bad, 2.0])


class TestTable1:
    def test_lower_row(self):
        lo, _, _ = rendered_rows(table1(10))
        assert lo == [1.0, 0.818, 0.609, 0.475, 0.387,
                      0.325, 0.281, 0.246, 0.220, 0.198]

    def test_new_upper_blank_below_k3(self):
        rows = table1(3)
        _, _, new = rendered_rows(rows)
        assert new[0] is None and new[1] is None
        assert rows[1].new_upper == 1.0
        assert new[2] == 0.644

    def test_k1_only(self):
        rows = table1(1)
        assert rows[0].lower == pytest.approx(1.0)
        assert rows[0].new_upper == 1.0

    def test_kmax_zero(self):
        with pytest.raises(KTooSmall):
            table1(0)


def test_dominance_chain():
    for k in range(3, 201):
        low = beta_extremal(k)
        _, opt = solve_sk(k)
        refined = gamma_upper_refined(k)
        simple = gamma_upper_simple(k)
        assert low <= opt + 1e-12
        assert opt <= refined + 1e-12
        assert refined <= simple + 1e-12


def test_gap_asymptotics():
    # 2/k - beta_extremal(k) = pi^2/(6 k^3) + O(k^-5)
    target = math.pi**2 / 6
    for k in (100, 1000):
        gap = k**3 * (gamma_upper_simple(k) - beta_extremal(k))
        assert gap == pytest.approx(target, rel=0.01)
