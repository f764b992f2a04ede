"""Empirical corroboration: dyadic sup profiles, growth-exponent fits, and
remainder-ratio scans.

dyadic_profile gives, per dyadic block x in [2^(nu-1), 2^nu), the exact sup
of |S(m, a, x)| and the first x attaining it, by the cheaper of two exact
routes.  A max-plus (Viterbi) DP over the levels of the signed digit DP of
the sums module carries the max and min of every residue class's partial
sums without visiting the x, each packed with the first t attaining it into
one integer key whose integer order is the order the DP needs: O(m * nu)
integer operations, O(m) live integers, so depths up to PROFILE_MAX_EXP =
256 take milliseconds for small m.  A walk over the 2^nu / m members of the
class costs O(2^nu / m) steps in O(1) memory and takes over for large m at
shallow depths.  All sups and sums stay exact integers; only the fit and the
envelope check work in floats.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

from .cosets import _odd_part, _orbit
from .exponent import LAMBDA
from .sums import _check_query, _class_count, _levels, dp_cost_ns, dyadic_sums

#: Profiles are capped here; every float of the fit and envelope stays finite.
PROFILE_MAX_EXP = 256
#: Remainder-ratio scans sample x = 2^nu only, capped here.
REMAINDER_MAX_EXP = 28
#: Measured cost in ns of one step of each exact route (2-CPU Xeon, Python
#: 3.11): a (residue, level) cell of the max-plus DP from depth 40 on, and
#: one class member visited by the walk.  Max-plus cells are cheaper at
#: shallow depths (_maxplus_ns): timing the two profile routes against each
#: other put their crossovers at m = 150, 620, 2200 and 8500-9300 for depths
#: 20, 24, 28 and 32, where a cell costs about two walk steps, so half of
#: MAXPLUS_CELL_NS.  Where the refusal bound of deep profiles sits, cells
#: took 580 ns at (m, nu) = (6510, 256) and 576 ns at (41666, 40).  The
#: remainder scan prices its digit DP with sums.dp_cost_ns.
MAXPLUS_CELL_NS = 600
WALK_STEP_NS = 150
#: Measured cost in ns of a residue of m' in `gelfond empirical`'s exponent
#: (exponent._alpha_value, and envelope_check's orbit of 1): 570-620 ns at
#: m' = 10^6 + 3 and 2 * 10^6 + 3 on the same machine.
EXPONENT_STEP_NS = 700


class BlockSup(NamedTuple):
    nu: int
    sup: int
    argmax_x: int


class DyadicProfile(NamedTuple):
    m: int
    a: int
    max_exp: int
    blocks: tuple[BlockSup, ...]
    boundary_sums: tuple[int, ...]  # S(2^nu) for nu = 0 .. max_exp


class EmpiricalFit(NamedTuple):
    exponent_estimate: float
    intercept: float
    residual: float  # rms residual of the least-squares line
    window: tuple[int, int]


class RemainderCheck(NamedTuple):
    m: int
    a: int
    max_exp: int
    ratios: tuple[float, ...]  # |t_even - x/(2m)| / x^lambda at x = 2^nu
    max_ratio: float
    argmax_nu: int
    monotone_top: bool  # ratio strictly increasing over the last 5 blocks


class EnvelopeReport(NamedTuple):
    m: int
    a: int
    alpha: float
    calib_end: int
    upper_c: float
    upper_violations: tuple[BlockSup, ...]
    omega_attained: bool
    omega_margin: float


def _check_max_exp(max_exp: int, top: int = PROFILE_MAX_EXP) -> None:
    if not 1 <= max_exp <= top:
        raise ValueError(f"max_exp must be in [1, {top}], got {max_exp}")


def _walk_steps(m: int, max_exp: int) -> int:
    """The number of class members below 2^max_exp, give or take one."""
    return (1 << max_exp) // m + 1


def _maxplus_ns(m: int, max_exp: int) -> int:
    """Predicted time in ns of the max-plus DP's m * max_exp cells, each
    costing half of MAXPLUS_CELL_NS up to depth 32 and all of it from depth
    40 on, linearly in between."""
    return MAXPLUS_CELL_NS * m * max_exp * (8 + min(max(max_exp - 32, 0), 8)) // 16


def profile_cost_ns(m: int, max_exp: int) -> int:
    """Predicted time of dyadic_profile(m, a, max_exp) in ns on the machine
    of the step costs above: its cheaper route, the max-plus DP's
    m * max_exp cells or the walk's 2^max_exp / m class members.  A max_exp
    that dyadic_profile refuses is refused here too."""
    _check_max_exp(max_exp)
    return min(_maxplus_ns(m, max_exp), WALK_STEP_NS * _walk_steps(m, max_exp))


def _maxplus_profiles(m: int, max_exp: int, residues: Iterable[int]) -> list[tuple]:
    """[(blocks, boundary_sums)] for each residue asked for, in order, from
    one max-plus DP over the signed digit DP.

    For x = 2^i + t with t < 2^i, S(m, r, x) = D_i[r] - S(m, r - 2^i, t), so
    hi_i[r] / lo_i[r], the max / min of S(m, r, t) over t < 2^i, satisfy

        hi_{i+1}[r] = max(hi_i[r], D_i[r] - lo_i[r - 2^i])
        lo_{i+1}[r] = min(lo_i[r], D_i[r] - hi_i[r - 2^i]),

    and block nu = i + 1, x in [2^i, 2^(i+1)), has sup S = D_i[a] - lo_i[c]
    and inf S = D_i[a] - hi_i[c] with c = a - 2^i.  The hi / lo lists do not
    depend on a, so one pass reads out the blocks of every residue.  Each
    extremum and the smallest t attaining it share one integer key: with
    W = max_exp + 1 and t < 2^max_exp, hi holds value * 2^W - t and lo holds
    value * 2^W + t, so integer order is value order with ties toward the
    smaller t.  A block's best key is sup * 2^W - x with 0 < x < 2^W, so sup
    is its ceiling quotient by 2^W and x the remainder to the next multiple.
    """
    w = max_exp + 1
    hi = lo = [0] * m  # t < 2^0 is t = 0 alone, with S = 0
    reads = [(a, [], []) for a in residues]  # (a, blocks, boundary sums)
    levels = _levels(m, 1 << w)  # D_i * 2^W, the value part of a key
    for i, d in zip(range(max_exp), levels):
        base = 1 << i
        pw = base % m
        for a, blocks, boundary in reads:
            da = d[a]
            boundary.append(da >> w)  # D_i[a] = S(m, a, 2^i)
            c = (a - pw) % m
            top = da - lo[c] - base  # key of the block's sup of S, at x = base + t
            bottom = hi[c] - da - base  # key of minus its inf
            best = top if top >= bottom else bottom  # ties of |sup|, |inf|: smaller x
            sup = -(-best >> w)
            blocks.append(BlockSup(i + 1, sup, (sup << w) - best))
        hi_s = hi[m - pw:] + hi[:m - pw]  # hi_s[r] = hi[r - 2^i]
        lo_s = lo[m - pw:] + lo[:m - pw]
        hi, lo = (
            [old if old > (k := v - low - base) else k for old, v, low in zip(hi, d, lo_s)],
            [old if old < (k := v - high + base) else k for old, v, high in zip(lo, d, hi_s)],
        )
    d = next(levels)  # zip stops on the range first, so this is D_max_exp
    for a, _, boundary in reads:
        boundary.append(d[a] >> w)
    return [(tuple(blocks), tuple(boundary)) for _, blocks, boundary in reads]


def _maxplus_profile(m: int, a: int, max_exp: int) -> tuple[tuple[BlockSup, ...], tuple[int, ...]]:
    """(blocks, boundary_sums) of residue a: the max-plus pass with [a]."""
    return _maxplus_profiles(m, max_exp, [a])[0]


def _walk_profile(m: int, a: int, max_exp: int) -> tuple[tuple[BlockSup, ...], tuple[int, ...]]:
    """(blocks, boundary_sums) by visiting the class members n == a (mod m)
    below 2^max_exp in order.  S(m, a, x) only changes at x = n + 1, so a
    block's first argmax is its start 2^i or one of those x."""
    s, n = 0, a  # n: the next member to count; s: the sum over those counted
    boundary = []
    blocks = []
    for i in range(max_exp + 1):
        if n == (1 << i) - 1:  # the last member below 2^i
            s += 1 - ((n.bit_count() & 1) << 1)
            n += m
        boundary.append(s)  # S(m, a, 2^i)
        if i == max_exp:
            break
        end = (2 << i) - 1  # members n < end give x = n + 1 inside block i + 1
        best, best_x = abs(s), 1 << i
        while n < end:
            s += 1 - ((n.bit_count() & 1) << 1)
            n += m
            if abs(s) > best:
                best, best_x = abs(s), n - m + 1
        blocks.append(BlockSup(i + 1, best, best_x))
    return tuple(blocks), tuple(boundary)


def dyadic_profile(m: int, a: int, max_exp: int) -> DyadicProfile:
    """Exact per-block sups of |S(m, a, x)| for x < 2^max_exp, with the first
    x attaining each, and the boundary sums S(m, a, 2^nu).

    Two exact routes give identical profiles; the cheaper one runs.  The
    max-plus DP costs m * max_exp cells with O(m) live integers; the class
    walk costs 2^max_exp / m steps in O(1) memory.  The DP wins while
    m^2 * max_exp is below about 2^max_exp / 2 up to depth 32 (2^max_exp / 4
    from depth 40 on), so it takes every small m and every deep profile; the
    walk takes large m at shallow depths.
    """
    _check_query(m, a, 1)
    _check_max_exp(max_exp)
    if _maxplus_ns(m, max_exp) <= WALK_STEP_NS * _walk_steps(m, max_exp):
        blocks, boundary = _maxplus_profile(m, a, max_exp)
    else:
        blocks, boundary = _walk_profile(m, a, max_exp)
    return DyadicProfile(m=m, a=a, max_exp=max_exp, blocks=blocks, boundary_sums=boundary)


def _first_nonzero_block(profile: DyadicProfile) -> int:
    """The least nu whose block sup is nonzero, or max_exp + 1 if none is.

    Blocks below the class's first member a hold only x <= a, where the
    sum is empty, so their sup is 0.
    """
    return next((b.nu for b in profile.blocks if b.sup), profile.max_exp + 1)


def default_window(max_exp: int, first: int = 1) -> tuple[int, int]:
    """Upper half of the blocks, excluding nu < 8 (early blocks bias the
    slope); clamped so shallow profiles still yield the 4 blocks a fit needs,
    but never below `first`, the first block with a nonzero sup, so the
    window may hold fewer than 4 blocks."""
    lo = max(8, max_exp // 2 + 1)
    return max(first, min(lo, max_exp - 3)), max_exp


def fit_exponent(profile: DyadicProfile, window: tuple[int, int] | None = None) -> EmpiricalFit:
    """Least-squares slope of log2(sup) against nu over the window, in closed
    form on the centred data; residual is the rms distance to the line."""
    if window is None:
        window = default_window(profile.max_exp, _first_nonzero_block(profile))
    lo, hi = window
    if not (1 <= lo <= hi <= profile.max_exp):
        raise ValueError(f"window {window} must satisfy 1 <= lo <= hi <= {profile.max_exp}")
    picked = [b for b in profile.blocks if lo <= b.nu <= hi]
    if len(picked) < 4:
        raise ValueError(f"window {window} holds {len(picked)} blocks; need >= 4")
    zeros = [b.nu for b in picked if b.sup == 0]
    if zeros:
        raise ValueError(f"window {window} contains zero sups at nu in {zeros}")
    xs = [b.nu for b in picked]
    ys = [math.log2(b.sup) for b in picked]
    x_mean = sum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    rms = math.sqrt(
        math.fsum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys)) / len(xs)
    )
    return EmpiricalFit(
        exponent_estimate=slope,
        intercept=intercept,
        residual=rms,
        window=(lo, hi),
    )


def gelfond_remainder_check(m: int, a: int, max_exp: int) -> RemainderCheck:
    """Remainder ratios |t_even - x/(2m)| / x^lambda at x = 2^nu.

    The S(m, a, 2^nu) are read from one dyadic_sums pass (which runs on the
    odd part of m) or, when it is cheaper by sums.dp_cost_ns (large odd
    part), from the class walk; _remainder_ratios turns them into ratios.
    """
    _check_query(m, a, 1)
    _check_max_exp(max_exp, REMAINDER_MAX_EXP)
    if dp_cost_ns(m, a, 1 << max_exp) <= WALK_STEP_NS * _walk_steps(m, max_exp):
        levels = dyadic_sums(m, a, max_exp)
    else:
        levels = _walk_profile(m, a, max_exp)[1]
    return _remainder_ratios(m, a, levels)


def _remainder_ratios(m: int, a: int, levels) -> RemainderCheck:
    """The RemainderCheck of levels[nu] = S(m, a, 2^nu), nu = 0 .. max_exp.

    The numerator is computed exactly as |2m*t_even - x| / (2m), with
    t_even = (count + S(m, a, x)) / 2.  A ratio that keeps growing across
    the top blocks would contradict the remainder bound; that situation is
    flagged, not silently accepted.
    """
    ratios = []
    for nu in range(1, len(levels)):
        x = 1 << nu
        t_even = (_class_count(m, a, x) + levels[nu]) // 2
        ratios.append(abs(2 * m * t_even - x) / (2 * m * x**LAMBDA))
    best = max(range(len(ratios)), key=ratios.__getitem__)
    top = ratios[-5:]
    monotone = len(top) == 5 and all(top[i] < top[i + 1] for i in range(4))
    return RemainderCheck(
        m=m,
        a=a,
        max_exp=len(ratios),
        ratios=tuple(ratios),
        max_ratio=ratios[best],
        argmax_nu=best + 1,
        monotone_top=monotone,
    )


def envelope_check(profile: DyadicProfile, alpha_value: float) -> EnvelopeReport:
    """Soft two-sided envelope check of the profile against alpha(m).

    Upper (O-style): with C calibrated as the max of sup/(2^nu)^(alpha+0.05)
    over the first window, no later block may exceed C*(2^nu)^(alpha+0.05).
    Lower (Omega-style): some later block's ratio sup/(2^nu)^(alpha-0.1)
    must exceed the first-window *median* ratio; the reference must be
    calibrated because the hidden constant can be well below 1 (e.g. for
    multiples of 3 the sums track (3/m) times the m=3 profile).

    The first window ends at max(max_exp//2, h+2), clipped to leave at least
    two checked blocks, so that a full quasi-period of the h-step sup
    oscillation lands inside the calibration window.
    """
    blocks = profile.blocks
    if all(b.sup == 0 for b in blocks):
        raise ValueError("profile has no nonzero block sups")
    # quasi-period of the sup oscillation is the recurrence step h
    odd = _odd_part(profile.m)
    h = len(_orbit(1, odd)) if odd >= 3 else 1
    calib_end = max(profile.max_exp // 2, min(h + 2, profile.max_exp - 2))
    calib = [b for b in blocks if b.nu <= calib_end and b.sup > 0]
    rest = [b for b in blocks if b.nu > calib_end]
    if not calib or not rest:
        raise ValueError(
            f"profile too short to split at calib_end={calib_end}; deepen the profile"
        )
    up = alpha_value + 0.05
    upper_c = max(b.sup / (1 << b.nu) ** up for b in calib)
    violations = tuple(
        b for b in rest if b.sup > upper_c * (1 << b.nu) ** up * (1 + 1e-12)
    )
    low = alpha_value - 0.1
    ratios = sorted(b.sup / (1 << b.nu) ** low for b in calib)
    mid = len(ratios) // 2  # the median, as statistics.median computes it
    reference = ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2
    margins = [b.sup / (1 << b.nu) ** low / reference for b in rest if b.sup > 0]
    best_margin = max(margins, default=0.0)
    return EnvelopeReport(
        m=profile.m,
        a=profile.a,
        alpha=alpha_value,
        calib_end=calib_end,
        upper_c=upper_c,
        upper_violations=violations,
        omega_attained=best_margin >= 1.0,
        omega_margin=best_margin,
    )
