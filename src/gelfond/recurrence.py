"""Integer linear recurrences satisfied by S(m, a, .) at h-step dyadic scales.

The effective roots Z_j of the spectral module are the roots of a monic
degree-r polynomial z^r + c_1 z^(r-1) + ... + c_r whose integer coefficients
drive both

    S(m, a, 2^(n + r*h + 1)) + sum_q c_q S(m, a, 2^(n + (r-q)*h + 1)) = 0
    S(m, a, 2^(r*h + 1) u)   + sum_q c_q S(m, a, 2^((r-q)*h + 1) u)   = 0

for every offset n >= 0 and every positive multiplier u.  The coefficients
are derived twice, independently: by expanding the root polynomial (in
complex arithmetic where its rounding is safe, else exactly mod split
primes), and by solving the integer linear system the first identity
induces at consecutive offsets, in exact integer arithmetic.
verify_recurrence then checks both identities with exact integer sums;
a passing report always has defect 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cosets import PRIMITIVE, CosetDecomposition, classify_prime, cyclotomic_cosets
from .modular import crt_symmetric, split_primes
from .spectral import characteristic_roots
from .sums import _sums_in_one_pass, dyadic_sums, newman_sum_dp

#: Offsets tried for the sum-based linear system before reporting singularity.
SYSTEM_OFFSETS = range(0, 6)


class SingularSystemError(ArithmeticError):
    """The sum-based system was singular at every tried offset.

    This genuinely happens when effective roots coincide (m = 15), and when
    the expansion of S(m, a, .) misses a root, as for (27, 26) and (127, 1):
    either way the sequence satisfies a lower-order recurrence, so every
    r x r window is rank deficient.  It is reported, never papered over.
    """


class NonIntegerCoefficientError(ArithmeticError):
    """An exactly-solved coefficient came out non-integral."""


class RecurrenceDefectError(ArithmeticError):
    """An exact-integer recurrence check failed."""


class RecurrenceSpec(NamedTuple):
    m: int
    r: int
    h: int
    coefficients: tuple[int, ...]   # c_1 .. c_r
    residuals: tuple[float, ...]    # pre-rounding distance to the integer; 0.0 if exact


class VerificationReport(NamedTuple):
    m: int
    a: int
    depth: int
    multipliers: tuple[int, ...]
    checks: int
    max_defect: int  # 0 for a passing report


def _poly_from_roots(roots: list[complex]) -> list[complex]:
    """Monic polynomial coefficients [1, c_1, ..., c_r] from its roots."""
    poly = [1 + 0j]
    for root in roots:
        poly = [c - root * d for c, d in zip([*poly, 0j], [0j, *poly])]
    return poly


def _coefficients_modular(dec: CosetDecomposition) -> list[int]:
    """c_1..c_r exactly: prod (z - Z_j) expanded mod split primes p == 1
    (mod m), with Z_j == prod_{k<h} (1 - w^(l_j 2^k)) for w of order m in
    F_p, and each c_i recovered by CRT.

    |c_i| <= C(r, i) 2^(h i) < 2^(r (h+1)), so primes whose product exceeds
    2^(r (h+1) + 1) fix every c_i.
    """
    m, h = dec.m, dec.h
    images = []
    for p, w in split_primes(m, dec.r * (h + 1) + 1):
        powers = [1] * m
        for t in range(1, m):
            powers[t] = powers[t - 1] * w % p
        poly = [1]
        for l in dec.representatives:
            z, u = 1, l
            for _ in range(h):
                z = z * (1 - powers[u]) % p
                u = 2 * u % m
            poly = [(c - z * d) % p for c, d in zip([*poly, 0], [0, *poly])]
        images.append((p, poly))
    return [crt_symmetric((poly[i], p) for p, poly in images) for i in range(1, dec.r + 1)]


def coefficients_spectral(dec: CosetDecomposition) -> RecurrenceSpec:
    """c_i = (-1)^i e_i(Z_1, ..., Z_r) by expanding prod (z - Z_j).

    Complex doubles first, rounded to the nearest integers when every
    pre-rounding residual is small for the coefficient scale.  Otherwise the
    expansion is redone exactly mod split primes, and the residuals are
    reported as 0.0.  The float route is the fast one for small m, where
    the prime search would dominate.
    """
    spectrum = characteristic_roots(dec)
    tail = _poly_from_roots(list(spectrum.effective_roots))[1:]
    scale = max(1.0, max(abs(c) for c in tail))
    trustworthy = math.isfinite(scale) and scale < 2.0**52
    coeffs = [round(c.real) for c in tail] if trustworthy else [0] * len(tail)
    residuals = (
        [abs(c - k) for c, k in zip(tail, coeffs)] if trustworthy else [math.inf]
    )
    if max(residuals) > min(0.01, 1e-6 * scale):
        coeffs = _coefficients_modular(dec)
        residuals = [0.0] * dec.r
    return RecurrenceSpec(
        m=dec.m,
        r=dec.r,
        h=dec.h,
        coefficients=tuple(coeffs),
        residuals=tuple(residuals),
    )


def _solve_integer_system(rows, rhs):
    """Fraction-free (Bareiss) Gauss-Jordan: (numerators, d) with solution
    x_i = numerators[i] / d and d = +-det, or None if the matrix is singular.

    Every entry stays an integer minor of [rows | rhs], so each division by
    the previous pivot is exact.
    """
    n = len(rows)
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    prev = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for i in range(n):
            if i != col:
                f = aug[i][col]
                aug[i] = [(p * v - f * w) // prev for v, w in zip(aug[i], top)]
        prev = p
    return [row[n] for row in aug], prev


def coefficients_from_sums(m: int, a: int) -> RecurrenceSpec:
    """Recover c_1..c_r from exact S values at consecutive dyadic offsets.

    Builds the r x r system of the offset identity at n = n0 .. n0+r-1 and
    solves it exactly over the integers; offsets n0 = 0..5 are tried in
    turn when the matrix is singular.  Every system reads the one
    dyadic_sums pass up to the largest offset.
    """
    dec = cyclotomic_cosets(m)
    if not 0 <= a < m:
        raise ValueError(f"residue must satisfy 0 <= a < m, got a={a}, m={m}")
    r, h = dec.r, dec.h
    seq = dyadic_sums(m, a, r * h + r + SYSTEM_OFFSETS[-1])
    for n0 in SYSTEM_OFFSETS:
        rows = [
            [seq[n + (r - q) * h + 1] for q in range(1, r + 1)]
            for n in range(n0, n0 + r)
        ]
        rhs = [-seq[n + r * h + 1] for n in range(n0, n0 + r)]
        solution = _solve_integer_system(rows, rhs)
        if solution is None:
            continue
        numerators, d = solution
        if any(v % d for v in numerators):
            raise NonIntegerCoefficientError(
                f"m={m}, a={a}, offset {n0}: non-integer solution {numerators} / {d}"
            )
        return RecurrenceSpec(
            m=m,
            r=r,
            h=h,
            coefficients=tuple(v // d for v in numerators),
            residuals=(0.0,) * r,
        )
    raise SingularSystemError(
        f"m={m}, a={a}: system singular at every offset in {list(SYSTEM_OFFSETS)}"
    )


def verify_recurrence(
    spec: RecurrenceSpec,
    a: int,
    depth: int = 8,
    multipliers: tuple[int, ...] = (1, 3, 5),
) -> VerificationReport:
    """Exact-integer check of both recurrence identities.

    Offsets n = 0..depth and every multiplier u are checked; any nonzero
    defect raises RecurrenceDefectError naming the offending instance.  All
    the sums come from one pass of the signed digit DP.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    m, r, h = spec.m, spec.r, spec.h
    if not 0 <= a < m:
        raise ValueError(f"residue must satisfy 0 <= a < m, got a={a}, m={m}")
    for u in multipliers:
        if u < 1:
            raise ValueError(f"multipliers must be positive, got {u}")
    # S at 2^(n+k) and at 2^k * u for k = (r-q)h + 1, q = 0..r: one DP pass
    ks = [(r - q) * h + 1 for q in range(r + 1)]
    top = depth + r * h + 1
    xs = [1 << n for n in range(top + 1)] + [u << k for u in multipliers for k in ks]
    values = _sums_in_one_pass(m, a, xs)
    seq, scaled = values[: top + 1], values[top + 1 :]
    weights = (1, *spec.coefficients)

    def defect(terms):
        return sum(c * s for c, s in zip(weights, terms))

    checks = 0
    for n in range(depth + 1):
        value = defect([seq[n + k] for k in ks])
        checks += 1
        if value:
            raise RecurrenceDefectError(
                f"m={m}, a={a}: offset identity fails at n={n} with defect {value}"
            )
    for j, u in enumerate(multipliers):
        value = defect(scaled[j * (r + 1) : (j + 1) * (r + 1)])
        checks += 1
        if value:
            raise RecurrenceDefectError(
                f"m={m}, a={a}: multiplier identity fails at u={u} with defect {value}"
            )
    return VerificationReport(
        m=m,
        a=a,
        depth=depth,
        multipliers=tuple(multipliers),
        checks=checks,
        max_defect=0,
    )


def simple_prime_c1(p: int, a: int) -> int:
    """c_1 for a prime with 2 primitive, from a single exact sum:
    (-1)^(s(a)+1) * S(p, a, 2^p) for a in {0, 1}, with bound a * 2^p for
    a >= 2 (where the single term below 2a pins the initial condition)."""
    cls = classify_prime(p)
    if cls.classification != PRIMITIVE:
        raise ValueError(f"2 is not a primitive root of {p} (class {cls.classification})")
    if not 0 <= a < p:
        raise ValueError(f"residue must satisfy 0 <= a < p, got a={a}, p={p}")
    u = 1 if a <= 1 else a
    sign = 1 if a.bit_count() & 1 else -1  # (-1)^(s(a)+1)
    return sign * newman_sum_dp(p, a, u << p)
