"""Empirical corroboration: dyadic sup profiles, growth-exponent fits, and
remainder-ratio scans.

The streaming scan walks every n < 2^max_exp once, maintaining the running
sum S(x) and, per dyadic block x in [2^(nu-1), 2^nu), the sup of |S| and the
first x attaining it.  Work is done in aligned numpy chunks: digit-sum
parities of a chunk are the precomputed parity table of the low bits XOR the
parity of the chunk base, so a 2^28 scan takes seconds.  All sups and sums
stay exact integers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cosets import multiplicative_order
from .exponent import LAMBDA
from .sums import _check_query, _class_count, dyadic_sums

#: Streaming scans are capped here (memory/time desk scale).
PROFILE_MAX_EXP = 32
#: Remainder-ratio scans sample x = 2^nu only, capped here.
REMAINDER_MAX_EXP = 28

_CHUNK_BITS = 22


class BlockSup(NamedTuple):
    nu: int
    sup: int
    argmax_x: int


@dataclass(frozen=True)
class DyadicProfile:
    m: int
    a: int
    max_exp: int
    blocks: tuple[BlockSup, ...]
    boundary_sums: tuple[int, ...]  # S(2^nu) for nu = 0 .. max_exp


@dataclass(frozen=True)
class EmpiricalFit:
    exponent_estimate: float
    intercept: float
    residual: float  # rms residual of the least-squares line
    window: tuple[int, int]


@dataclass(frozen=True)
class RemainderCheck:
    m: int
    a: int
    max_exp: int
    ratios: tuple[float, ...]  # |t_even - x/(2m)| / x^lambda at x = 2^nu
    max_ratio: float
    argmax_nu: int
    monotone_top: bool  # ratio strictly increasing over the last 5 blocks


@dataclass(frozen=True)
class EnvelopeReport:
    m: int
    a: int
    alpha: float
    calib_end: int
    upper_c: float
    upper_violations: tuple[BlockSup, ...]
    omega_attained: bool
    omega_margin: float


def _parity_table(bits: int) -> np.ndarray:
    table = np.zeros(1 << bits, dtype=np.uint8)
    step = 1
    while step < len(table):
        table[step:2 * step] = table[:step] ^ 1
        step <<= 1
    return table


def dyadic_profile(m: int, a: int, max_exp: int) -> DyadicProfile:
    """Exact per-block sups of |S(m, a, x)| for x < 2^max_exp, one pass."""
    _check_query(m, a, 1)
    if not 1 <= max_exp <= PROFILE_MAX_EXP:
        raise ValueError(f"max_exp must be in [1, {PROFILE_MAX_EXP}], got {max_exp}")
    chunk_bits = min(_CHUNK_BITS, max_exp)
    parity = _parity_table(chunk_bits)
    chunk = 1 << chunk_bits

    running = 1 if a == 0 else 0  # term n = 0 has s(0) = 0
    boundary = [running]
    blocks = []
    for nu in range(1, max_exp + 1):
        lo, hi = 1 << (nu - 1), 1 << nu
        sup, arg = abs(running), lo
        for base in range(lo, hi, chunk):
            length = min(chunk, hi - base)
            base_parity = base.bit_count() & 1
            first = (a - base) % m
            idx = np.arange(first, length, m, dtype=np.int64)
            if len(idx) == 0:
                continue
            signs = np.where(parity[idx] ^ base_parity, -1, 1).astype(np.int64)
            values = running + np.cumsum(signs)
            running = int(values[-1])
            xs = base + idx + 1  # S changes at prefix x = n + 1
            inside = xs < hi     # the final change belongs to the next block
            if inside.any():
                magnitudes = np.abs(values[inside])
                best = int(np.argmax(magnitudes))
                if magnitudes[best] > sup:
                    sup = int(magnitudes[best])
                    arg = int(xs[inside][best])
        blocks.append(BlockSup(nu, sup, arg))
        boundary.append(running)
    return DyadicProfile(
        m=m, a=a, max_exp=max_exp, blocks=tuple(blocks), boundary_sums=tuple(boundary)
    )


def default_window(max_exp: int) -> tuple[int, int]:
    """Upper half of the blocks, excluding nu < 8 (early blocks bias the
    slope); clamped so shallow profiles still yield the 4 blocks a fit needs."""
    lo = max(8, max_exp // 2 + 1)
    return max(1, min(lo, max_exp - 3)), max_exp


def fit_exponent(profile: DyadicProfile, window: tuple[int, int] | None = None) -> EmpiricalFit:
    """Least-squares slope of log2(sup) against nu over the window."""
    if window is None:
        window = default_window(profile.max_exp)
    lo, hi = window
    if not (1 <= lo <= hi <= profile.max_exp):
        raise ValueError(f"window {window} outside profile range 1..{profile.max_exp}")
    picked = [b for b in profile.blocks if lo <= b.nu <= hi]
    if len(picked) < 4:
        raise ValueError(f"window {window} holds {len(picked)} blocks; need >= 4")
    zeros = [b.nu for b in picked if b.sup == 0]
    if zeros:
        raise ValueError(f"window {window} contains zero sups at nu in {zeros}")
    xs = np.array([b.nu for b in picked], dtype=float)
    ys = np.array([math.log2(b.sup) for b in picked], dtype=float)
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    rms = float(np.sqrt(np.mean((ys - design @ [slope, intercept]) ** 2)))
    return EmpiricalFit(
        exponent_estimate=float(slope),
        intercept=float(intercept),
        residual=rms,
        window=(lo, hi),
    )


def gelfond_remainder_check(m: int, a: int, max_exp: int) -> RemainderCheck:
    """Remainder ratios |t_even - x/(2m)| / x^lambda at x = 2^nu.

    The numerator is computed exactly as |2m*t_even - x| / (2m), with
    t_even = (count + S(m, a, 2^nu)) / 2 from one dyadic_sums pass.  A ratio
    that keeps growing across the top blocks would contradict the remainder
    bound; that situation is flagged, not silently accepted.
    """
    _check_query(m, a, 1)
    if not 1 <= max_exp <= REMAINDER_MAX_EXP:
        raise ValueError(f"max_exp must be in [1, {REMAINDER_MAX_EXP}], got {max_exp}")
    levels = dyadic_sums(m, a, max_exp)
    ratios = []
    for nu in range(1, max_exp + 1):
        x = 1 << nu
        t_even = (_class_count(m, a, x) + levels[nu]) // 2
        ratios.append(abs(2 * m * t_even - x) / (2 * m * x**LAMBDA))
    best = max(range(len(ratios)), key=ratios.__getitem__)
    top = ratios[-5:]
    monotone = len(top) == 5 and all(top[i] < top[i + 1] for i in range(4))
    return RemainderCheck(
        m=m,
        a=a,
        max_exp=max_exp,
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
    odd = profile.m
    while odd % 2 == 0:
        odd //= 2
    h = multiplicative_order(2, odd) if odd >= 3 else 1
    calib_end = max(profile.max_exp // 2, min(h + 2, profile.max_exp - 2))
    calib = [b for b in blocks if b.nu <= calib_end and b.sup > 0]
    rest = [b for b in blocks if b.nu > calib_end]
    if not calib or not rest:
        raise ValueError(
            f"profile too short to split at calib_end={calib_end}; deepen the scan"
        )
    up = alpha_value + 0.05
    upper_c = max(b.sup / (1 << b.nu) ** up for b in calib)
    violations = tuple(
        b for b in rest if b.sup > upper_c * (1 << b.nu) ** up * (1 + 1e-12)
    )
    low = alpha_value - 0.1
    reference = statistics.median(b.sup / (1 << b.nu) ** low for b in calib)
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
