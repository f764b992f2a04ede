"""Integer linear recurrences satisfied by S(m, a, .) at h-step dyadic scales.

The effective roots Z_j = z_j^(h/h_j) of the coset root spectrum (exponent.alpha
reports their dominant magnitude and coincidences in floating point) are the
roots of a monic degree-r polynomial z^r + c_1 z^(r-1) + ... + c_r whose
integer coefficients drive both

    S(m, a, 2^(n + r*h + 1)) + sum_q c_q S(m, a, 2^(n + (r-q)*h + 1)) = 0
    S(m, a, 2^(r*h + 1) u)   + sum_q c_q S(m, a, 2^((r-q)*h + 1) u)   = 0

for every offset n >= 0 and every positive multiplier u.  The coefficients
are derived twice, independently and in exact integer arithmetic: by
expanding the root polynomial mod a product of split primes, and by
Berlekamp-Massey on the sums themselves.  For each h-phase s the first
identity says that u_k = S(m, a, 2^(s + k h + 1)) satisfies the order-r
recurrence, so 2r terms of a phase fix its minimal polynomial, and a phase
whose minimal order is r yields the c_q.  verify_recurrence then checks
both identities with exact integer sums; a passing report always has
defect 0.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from math import gcd
from typing import NamedTuple

from .cosets import CosetDecomposition, _effective_roots_mod, cyclotomic_cosets
from .modular import crt_cost, crt_passes
from .sums import _DIGIT_BITS, _check_query, _dp_pass_ns, _dyadic_stream, _sums_in_one_pass

#: The time model of recurrence_cost_ns, measured on a 2-CPU Xeon with Python
#: 3.11.7.  One product mod a pass's modulus in coefficients_spectral took
#: 1000-1650 ns at m from 243 to 9999 (1391-1557 ns at m = 4095, 5461, 8191
#: and 9999, 0.97-5.7 s).  Berlekamp-Massey on phase 0 took 0.6-1.7 times
#: r^4 L^2 / BM_SCALE ns where the phase has order r (m = 511, 683, 889,
#: 1025, 1057, 1161, 1985), and a phase of lower order less.  The check of
#: verify_recurrence, timed apart from its DP pass at depths 4000-50000, ran
#: 21-24 of its priced bits a ns at m = 3, where it costs about as much as
#: the pass, 31-56 at m = 17, 115-122 at m = 127 and 255, and 165-187 at
#: m = 683, whose coefficients are far below their r (h + 1)-bit bound.
SPECTRAL_STEP_NS = 1400
BM_SCALE = 40_000
SUM_BITS_PER_NS = 20


class SingularSystemError(ArithmeticError):
    """No h-phase of S(m, a, .) has minimal order r, so the sums alone do
    not fix the r coefficients.

    This happens when effective roots coincide (alpha(m).eta > 1, first at
    m = 15): every phase then satisfies a recurrence of order below r.  It
    is reported with the largest minimal order found, never papered over.
    """


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
    in the split-prime passes of modular.crt_passes, w standing for
    e^{2 pi i/m}.  Each pass reads Z_j mod M from cosets._effective_roots_mod:
    each coset is read once, m - 1 products and r powers in all.
    |c_i| <= C(r, i) 2^(h i) < 2^(r (h+1)), which fixes the bits.
    """
    m, r, h = dec.m, dec.r, dec.h

    def expand(modulus: int, powers: list[int]) -> list[int]:
        poly = [1]
        for z in _effective_roots_mod(dec.cosets, h, modulus, powers):
            poly = [(c - z * d) % modulus for c, d in zip([*poly, 0], [0, *poly])]
        return poly[1:]

    coefficients = tuple(crt_passes(m, r * (h + 1) + 1, expand))
    return RecurrenceSpec(m=m, r=r, h=h, coefficients=coefficients)


def _minimal_polynomial(seq: list[int]) -> tuple[int, list[int]]:
    """Fraction-free Berlekamp-Massey: (L, c) with L the linear complexity
    of seq and c = [c_0, ..., c_L] primitive integers, c_0 != 0, such that
    sum_i c_i seq[n - i] = 0 for every L <= n < len(seq).

    Massey's update c <- c - (d/b) x^k c', with c' the polynomial before
    the last change of L and b its discrepancy, is multiplied through by b
    so it stays integral, and the content is divided out after each update.
    So c is a scalar multiple of Massey's rational polynomial at every step.
    """
    c, prev = [1], [1]
    length, shift, last = 0, 1, 1
    for n in range(len(seq)):
        d = sum(x * y for x, y in zip(c, seq[n::-1]))
        if d == 0:
            shift += 1
            continue
        new = [last * x for x in c] + [0] * (shift + len(prev) - len(c))
        for i, y in enumerate(prev, shift):
            new[i] -= d * y
        if 2 * length <= n:
            prev, last, length, shift = c, d, n + 1 - length, 1
        else:
            shift += 1
        g = gcd(*new)
        c = [x // g for x in new[: length + 1]]
    return length, c


def coefficients_from_sums(m: int, a: int) -> RecurrenceSpec:
    """Recover c_1..c_r from exact S values, one h-phase at a time.

    Phase s is u_k = S(m, a, 2^(s + k h + 1)), k < 2r.  By the offset
    identity the root polynomial P of order r annihilates every phase, so
    2r terms fix each phase's minimal polynomial by Berlekamp-Massey.  The
    first phase whose minimal order is r has P itself, and c_i is its i-th
    coefficient over its constant term, which is +-1: the polynomial is
    primitive, and the minimal recurrence of an integer sequence, with
    constant term 1, is integral (Fatou, Acta Math. 30, 1906).  The phases
    read one pass of the digit DP (the levels of dyadic_sums), run only as
    far as the phase tried needs: levels 0 .. (2r - 1) h + 1 for phase 0,
    one more for each later phase.
    """
    dec = cyclotomic_cosets(m)
    _check_query(m, a, 0)
    r, h = dec.r, dec.h
    stream, seq = _dyadic_stream(m, a), []
    found = 0
    for s in range(h):
        seq += islice(stream, s + (2 * r - 1) * h + 2 - len(seq))
        order, poly = _minimal_polynomial(seq[s + 1 :: h])
        if order == r:
            return RecurrenceSpec(m=m, r=r, h=h,
                                  coefficients=tuple(c // poly[0] for c in poly[1:]))
        found = max(found, order)
    raise SingularSystemError(
        f"m={m}, a={a}: the sums are singular: minimal order {found} of {r}, "
        f"the largest over all {h} phases"
    )


def _check_verification(m: int, a: int, depth: int, multipliers) -> None:
    _check_query(m, a, 0)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    for u in multipliers:
        if u < 1:
            raise ValueError(f"multipliers must be positive, got {u}")


def recurrence_cost_ns(dec: CosetDecomposition, a: int, depth: int = 8,
                       multipliers: tuple[int, ...] = (1, 3, 5)) -> int:
    """Predicted time of coefficients_spectral(dec), coefficients_from_sums(m, a)
    and verify_recurrence(spec, a, depth, multipliers), checking their input.

    The spectral expansion costs, per pass of modular.crt_cost, about 2m
    products for the powers and the Z_j and r^2 / 2 for the polynomial,
    SPECTRAL_STEP_NS each, plus the prime search.  coefficients_from_sums
    runs the digit DP over the L = (2r - 1) h + 2 levels of phase 0
    (sums.dp_cost_ns, at one bit a level) and Berlekamp-Massey on its 2r
    terms of at most L bits: about r^2 updates of integers of up to r L
    bits, r^4 L^2 / BM_SCALE ns.  A singular system tries up to h phases,
    each of lower order and so cheaper, but not priced here.
    verify_recurrence runs two DP passes: the offsets' to level
    depth + r h + 1 and the multipliers' to the largest u 2^(r h + 1).  Per
    offset n its check multiplies r + 1 sums of up to n + r h + 1 bits by
    coefficients of up to r (h + 1) bits, D int digits, and adds them:
    (D + 1) (n + r h + 1) priced bits a term, SUM_BITS_PER_NS a ns."""
    m, r, h = dec.m, dec.r, dec.h
    _check_verification(m, a, depth, multipliers)
    passes, search_ns = crt_cost(m, r * (h + 1) + 1)
    levels = (2 * r - 1) * h + 2
    digits = -(-r * (h + 1) // _DIGIT_BITS)
    products = (r + 1) * (digits + 1) * (depth + 1) * (depth + 2 * r * h + 2) // 2
    return (SPECTRAL_STEP_NS * passes * (2 * m + r * r // 2) + search_ns
            + _dp_pass_ns(m, levels) + r**4 * levels**2 // BM_SCALE
            + _dp_pass_ns(m, depth + r * h + 2)
            + _dp_pass_ns(m, r * h + 1 + max(multipliers, default=0).bit_length())
            + products // SUM_BITS_PER_NS)


def verify_recurrence(
    spec: RecurrenceSpec,
    a: int,
    depth: int = 8,
    multipliers: tuple[int, ...] = (1, 3, 5),
) -> VerificationReport:
    """Exact-integer check of both recurrence identities.

    Offsets n = 0..depth and every multiplier u are checked, in that order;
    any nonzero defect raises RecurrenceDefectError naming the offending
    instance.  The offsets read one pass of _dyadic_stream, each checked as
    its top term S(2^(n + r h + 1)) arrives, so only the last r h + 2 sums
    are kept.  The multipliers read one short pass over the u 2^k.
    """
    m, r, h = spec.m, spec.r, spec.h
    _check_verification(m, a, depth, multipliers)
    weights = (1, *spec.coefficients)
    ks = [(r - q) * h + 1 for q in range(r + 1)]  # S at 2^(n+k) and at 2^k * u

    def check(terms, identity):
        value = sum(c * s for c, s in zip(weights, terms))
        if value:
            raise RecurrenceDefectError(f"m={m}, a={a}: {identity} with defect {value}")

    stream = _dyadic_stream(m, a)
    window = deque(islice(stream, r * h + 1), maxlen=r * h + 2)
    for n, top in enumerate(islice(stream, depth + 1)):
        window.append(top)  # window[k] = S(m, a, 2^(n + k))
        check([window[k] for k in ks], f"offset identity fails at n={n}")
    scaled = _sums_in_one_pass(m, a, [u << k for u in multipliers for k in ks])
    for j, u in enumerate(multipliers):
        check(scaled[j * (r + 1) : (j + 1) * (r + 1)], f"multiplier identity fails at u={u}")
    return VerificationReport(m=m, a=a, depth=depth, multipliers=tuple(multipliers),
                              checks=depth + 1 + len(multipliers), max_defect=0)
