"""Integer linear recurrences satisfied by S(m, a, .) at h-step dyadic scales.

The effective roots Z_j of the spectral module are the roots of a monic
degree-r polynomial z^r + c_1 z^(r-1) + ... + c_r whose integer coefficients
drive both

    S(m, a, 2^(n + r*h + 1)) + sum_q c_q S(m, a, 2^(n + (r-q)*h + 1)) = 0
    S(m, a, 2^(r*h + 1) u)   + sum_q c_q S(m, a, 2^((r-q)*h + 1) u)   = 0

for every offset n >= 0 and every positive multiplier u.  The coefficients
are derived twice, independently and in exact integer arithmetic: by
expanding the root polynomial mod a product of split primes, and by solving
the integer linear system the first identity induces at consecutive offsets.
verify_recurrence then checks both identities with exact integer sums;
a passing report always has defect 0.
"""

from __future__ import annotations

from typing import NamedTuple

from .cosets import PRIMITIVE, CosetDecomposition, classify_prime, cyclotomic_cosets
from .modular import crt_symmetric, power_table, split_primes
from .sums import _check_query, _sums_in_one_pass, dyadic_sums, newman_sum_dp

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
    coefficients: tuple[int, ...]  # c_1 .. c_r


class VerificationReport(NamedTuple):
    m: int
    a: int
    depth: int
    multipliers: tuple[int, ...]
    checks: int
    max_defect: int  # 0 for a passing report


def coefficients_spectral(dec: CosetDecomposition) -> RecurrenceSpec:
    """c_i = (-1)^i e_i(Z_1, ..., Z_r), exactly, by expanding prod (z - Z_j)
    mod the product M of split primes p == 1 (mod m).

    Z/M is the product of the fields F_p, so the CRT lift w of one element
    of order m per F_p stands for e^{2 pi i/m} in all of them at once, and
    Z_j == prod_{k<h} (1 - w^(l_j 2^k)) (mod M).  |c_i| <= C(r, i) 2^(h i)
    < 2^(r (h+1)), so primes whose product exceeds 2^(r (h+1) + 1) make
    the symmetric residue mod M the integer c_i.  split_primes remembers
    the primes of each m, so only the first call for an m searches.
    """
    m, r, h = dec.m, dec.r, dec.h
    primes = split_primes(m, r * (h + 1) + 1)
    modulus = 1
    for p, _ in primes:
        modulus *= p
    powers = power_table(crt_symmetric((w, p) for p, w in primes), m, modulus)
    poly = [1]
    for l in dec.representatives:
        z, u = 1, l
        for _ in range(h):
            z = z * (1 - powers[u]) % modulus
            u = 2 * u % m
        poly = [(c - z * d) % modulus for c, d in zip([*poly, 0], [0, *poly])]
    coefficients = tuple(c - modulus if 2 * c > modulus else c for c in poly[1:])
    return RecurrenceSpec(m=m, r=r, h=h, coefficients=coefficients)


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
    _check_query(m, a, 0)
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
    _check_query(m, a, 0)
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
    _check_query(p, a, 0)
    u = 1 if a <= 1 else a
    sign = 1 if a.bit_count() & 1 else -1  # (-1)^(s(a)+1)
    return sign * newman_sum_dp(p, a, u << p)
