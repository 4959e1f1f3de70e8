"""Closed-form bound formulas and the reference bounds table.

Collects everything that can be computed without touching a concrete
curve: the extremal average ratio, the simple and refined worst-case
ratios, the transcendental-equation root behind the optimized
construction, the recursive chord-cutting table in the plane, and the
patrolling idle-time floor.
"""

import math
from dataclasses import dataclass

from .errors import EmptyInput, NonPositiveSpeed, OutOfRange, _count, _number


def beta_extremal(k: int) -> float:
    """Worst-case average piece-to-curve ratio: 1/k + sin(pi/k)/pi.

    Also the circle lower bound for the max-ratio problem.
    """
    k = _count(k, 1)
    return 1.0 / k + math.sin(math.pi / k) / math.pi


def gamma_upper_simple(k: int) -> float:
    """Upper bound 2/k from the equal-arc partition, k >= 2."""
    return 2.0 / _count(k, 2)


def gamma_upper_refined(k: int) -> float:
    """Upper bound 2/k - 1/(4 k^4) from the non-uniform partition, k >= 3."""
    k = _count(k, 3)
    return 2.0 / k - 1.0 / (4.0 * k**4)


def solve_sk(k: int):
    """Root s_k in (0, 1/2) of s + sin(pi s)/pi = 2(1-s)/(k-1), by bisection.

    The left side minus the right, f, is increasing, -2/(k-1) at s = 0 and
    at least 1/pi at s = 1/2, so the root is unique; bisects until the
    bracket is at most 1e-14 wide and at most 1e-10 of its left end, so the
    root s_k ~ 1/k keeps its digits however large k is.  Returns
    (s_k, bound = 2(1-s_k)/(k-1)), s_k the last bracket's left end, where
    the difference is negative: s_k + sin(pi s_k)/pi <= bound.

    Warm start, same floats.  Bisecting from [0, 1/2] visits only dyadic
    brackets [a, b] with f(a) < 0 <= f(b), and its bracket at depth 43 is
    w = 2^-44 ~ 5.7e-14 wide, still above both stopping widths, so it passes
    through that depth.  Three Newton steps from 1/k land near the root; lo
    is the multiple of w at or below them.  The computed f rises by at least
    w from one multiple of w to the next (f' >= 1 on [0, 1/2]) and errs by a
    few ulp, far less, so it changes sign between exactly one pair of
    neighbouring multiples: if f(lo) < 0 <= f(lo + w), [lo, lo + w] is the
    cold bisection's depth-43 bracket, and the same loop from there returns
    the same float.  That test, not the Newton steps, is what makes the
    start safe; if it fails (or lo is 0, past k ~ 2^44), the loop starts
    from [0, 1/2].
    """
    k = _count(k, 3)
    f = lambda s: s + math.sin(math.pi * s) / math.pi - 2.0 * (1.0 - s) / (k - 1)
    s = 1.0 / k
    for _ in range(3):
        s -= f(s) / (1.0 + math.cos(math.pi * s) + 2.0 / (k - 1))
    w = 2.0**-44
    a = math.floor(s / w) * w
    b = a + w
    if not (0.0 < a and b <= 0.5 and f(a) < 0.0 <= f(b)):
        a, b = 0.0, 0.5
    while b - a > 1e-14 or b - a > 1e-10 * a:
        m = 0.5 * (a + b)
        if f(m) < 0.0:
            a = m
        else:
            b = m
    return a, 2.0 * (1.0 - a) / (k - 1)


def bkk_table(k_max: int) -> dict[int, float]:
    """Recursive chord-cutting upper bounds in the plane.

    Base values g(1) = 1 and g(2) = 1/2 + 1/pi; for larger k, the best
    of g(a)g(b) over factorizations k = a*b and
    (1 + 2/pi) g(a)g(b)/(g(a)+g(b)) over sums k = a+b.
    """
    k_max = _count(k_max, 1, "k_max")
    g = [math.nan, 1.0, 0.5 + 1.0 / math.pi][:k_max + 1]  # g[k]; g[0] unused
    c = 1.0 + 2.0 / math.pi
    for k in range(3, k_max + 1):
        best = math.inf
        for a in range(2, int(math.isqrt(k)) + 1):
            if k % a == 0:
                best = min(best, g[a] * g[k // a])
        # the sums k = a + b, a = 1..k//2: x = g(a), y = g(b)
        g.append(min(best, min([c * x * y / (x + y)
                                for x, y in zip(g[1:k // 2 + 1], g[k - 1:(k - 1) // 2:-1])])))
    return dict(enumerate(g[1:], 1))


def sin_taylor_upper(x: float) -> float:
    """Majorant x - x^3/12 of sin(x) on [0, pi]."""
    x = _number(x, "x")
    if not (0.0 <= x <= math.pi):
        raise OutOfRange(f"x must lie in [0, pi], got {x}")
    return x - x**3 / 12.0


def idle_time_lower(speeds) -> float:
    """Idle-time floor 1/sum(v_i) for patrolling a unit-length fence."""
    speeds = list(speeds)
    if not speeds:
        raise EmptyInput("need at least one speed")
    for v in speeds:
        if _number(v, "every speed", error=NonPositiveSpeed) <= 0.0:
            raise NonPositiveSpeed(f"every speed must be > 0 and finite, got {v!r}")
    return 1.0 / sum(speeds)


@dataclass(frozen=True)
class BoundsRow:
    """Per-k bounds: circle lower bound, recursive planar upper bound,
    and the optimized-construction upper bound (with its root s_k)."""

    k: int
    lower: float
    bkk_upper: float
    new_upper: float
    s_k: float | None = None


def table1(k_max: int) -> list[BoundsRow]:
    """Assemble the bounds table for k = 1..k_max."""
    rows = []
    for k, bkk in bkk_table(k_max).items():  # k = 1..k_max, in order
        if k == 1:
            new, sk = 1.0, None
        elif k == 2:
            new, sk = gamma_upper_simple(2), None
        else:
            sk, new = solve_sk(k)
        rows.append(BoundsRow(k, beta_extremal(k), bkk, new, sk))
    return rows


def round_nearest3(x: float) -> float:
    """Round half-up to 3 decimals (rendering of reference upper bounds)."""
    return math.floor(x * 1000.0 + 0.5) / 1000.0


def round_down3(x: float) -> float:
    """Floor at 3 decimals after snapping to 4, so a value within half a
    4th-decimal ulp of a boundary is not under-printed."""
    return math.floor(round(x * 10000.0) / 10.0 + 1e-9) / 1000.0


def round_up3(x: float) -> float:
    """Ceiling at 3 decimals (conservative rendering of our upper bounds)."""
    return math.ceil(x * 1000.0 - 1e-9) / 1000.0


def rendered_rows(rows: list[BoundsRow]):
    """The three display rows at 3 decimals.

    Lower bounds as the paper prints them, floored after a 4-decimal snap, so
    182 k of table1(4096) print above their exact value, not a floor; the
    reference upper bounds to nearest; the optimized upper bound up, so it
    stays a valid bound.  Entries with no optimized bound (k <= 2) are None.
    """
    lower = [round_down3(r.lower) for r in rows]
    bkk = [round_nearest3(r.bkk_upper) for r in rows]
    new = [round_up3(r.new_upper) if r.k >= 3 else None for r in rows]
    return lower, bkk, new
