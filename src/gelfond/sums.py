"""Exact Newman-like alternating digit sums over residue classes.

The central quantity is

    S(m, a, x) = sum of (-1)^s(n) over 0 <= n < x with n == a (mod m),

where s(n) is the number of 1-bits of n.  Two independent evaluators are
provided: direct enumeration (the oracle, capped) and a signed digit DP over
the binary expansion of x.  Everything here is exact integer arithmetic.

An even modulus m = 2^k m' is folded to its odd part in closed form: with
a0 = a mod 2^k, the n == a (mod m) are n = 2^k j + a0, j == a >> k (mod m'),
with s(n) = s(j) + s(a0), and n < x exactly when j < ceil((x - a0) / 2^k), so
S(m, a, x) = (-1)^s(a0) S(m', a >> k, (x + 2^k - 1 - a0) >> k).  The DP scans
the bits of x least significant first, one level of m' signed class sums per
bit, so S(m, a, x) costs O(m' log x) integer additions with O(m') live
integers of at most log x bits.  Level n of that pass is S(m', a', 2^n), so
dyadic_sums returns every S(m, a, 2^n), n <= N, from one pass, and
parity_counts is (count +- S) / 2 with the exact class count of the original
m.

Two passes produce the levels.  _half_levels keeps (m' + 1) / 2 sums of a
level, the rest following by a complement symmetry, in about 0.6 m'
operations per level; every sum reads it, through _dyadic_stream
(dyadic_sums, coefficients_from_sums, the offsets of verify_recurrence, the
remainder check) and _sums_in_one_pass (newman_sum_dp, parity_counts, the
multipliers of verify_recurrence).  _levels keeps all m sums of a level;
the max-plus profiles of the empirical module read it, since they need
every residue.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from operator import add, neg, sub
from typing import NamedTuple

#: Default upper bound on x for the O(x/m) enumeration path.
ENUMERATION_CAP = 1 << 26
#: Measured cost in ns of one class member visited by newman_sum_enumerate:
#: 58-70 ns on a 2-CPU Xeon with Python 3.11.7 (m = 1, 3, 5, 17 with x up to
#: 2^26), up to 100 ns when the host ran slow.
ENUMERATION_STEP_NS = 70
#: The digit DP's price in ns (dp_cost_ns): DP_LEVEL_NS a level, and per
#: class kept at a level DP_CLASS_NS while the integers fit one digit of int
#: (the first _DIGIT_BITS levels), DP_WIDE_CLASS_NS after, plus 1 ns per
#: DP_WIDTH_BITS bits of the widest integer.  Fit on a 2-CPU Xeon with
#: Python 3.11.7 so that passes near 1 s are not over-predicted: runs took
#: 0.91-1.27 times the price at rate alpha(m') for m' >= 1000 at 0.6-1.6 s,
#: and 1.1-1.27 times at m' = 3-127 with a 4300-digit x.  A class costs
#: 37-48 ns on the first levels, 60-75 ns after where alpha(m') is near 0
#: (m' = 1019, 10007), and up to 300 ns at 14285 levels where it is 0.79
#: (m' = 1173).
DP_LEVEL_NS = 2000
DP_CLASS_NS = 45
DP_WIDE_CLASS_NS = 62
DP_WIDTH_BITS = 68
_DIGIT_BITS = sys.int_info.bits_per_digit


class EnumerationCapError(ValueError):
    """Raised when enumeration is asked to walk past its configured cap."""


class ParityCount(NamedTuple):
    """Counts of n < x, n == a (mod m) split by digit-sum parity."""

    t_even: int
    t_odd: int


def _check_query(m: int, a: int, x: int) -> None:
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got m={m}")
    if not 0 <= a < m:
        raise ValueError(f"residue must satisfy 0 <= a < m, got a={a}, m={m}")
    if x < 0:
        raise ValueError(f"upper bound must be >= 0, got x={x}")


def newman_sum_enumerate(m: int, a: int, x: int, cap: int = ENUMERATION_CAP) -> int:
    """S(m, a, x) by direct enumeration. Refuses x > cap; use the DP instead."""
    _check_query(m, a, x)
    if x > cap:
        raise EnumerationCapError(
            f"x={x} exceeds the enumeration cap {cap}; use newman_sum_dp"
        )
    total = 0
    for n in range(a, x, m):
        total += 1 - ((n.bit_count() & 1) << 1)
    return total


def _levels(m: int, unit: int = 1) -> Iterator[list[int]]:
    """The signed digit DP: D_0, D_1, ... with

        D_i[c] = sum of (-1)^s(t) over 0 <= t < 2^i with t == c (mod m),

    so D_n[a] = S(m, a, 2^n).  The t < 2^(i+1) with bit i set are 2^i + t'
    with one more 1-bit, hence D_{i+1}[c] = D_i[c] - D_i[c - 2^i].  Only the
    current level is live: m integers of at most i bits.  Each level is a
    fresh list, so a caller may keep one while the pass moves on.  The DP
    is linear, so started from `unit` in place of 1 it yields unit * D_i.

    This full-vector pass is the one the max-plus profiles read, since they
    need every residue of every level; the sums read _half_levels.
    """
    d = [unit] + [0] * (m - 1)
    pw = 1 % m  # 2^i mod m
    while True:
        yield d
        d = list(map(sub, d, d[m - pw:] + d[:m - pw]))
        pw = 2 * pw % m


def _half_levels(m: int) -> Iterator[Callable[[int], int]]:
    """The signed digit DP of _levels for odd m from (m + 1) / 2 integers
    per level: per level i, the function c -> D_i[c].

    Flipping the i low bits, t -> 2^i - 1 - t, turns s(t) into i - s(t), so
    D_i[c] = (-1)^i D_i[2^i - 1 - c].  With kappa_i = (2^i - 1) / 2 and
    g_i = 2^i / 2 (mod m), E_i[u] = D_i[u + kappa_i] is therefore even or
    odd, E_i[-u] = (-1)^i E_i[u], and the step of _levels becomes

        E_{i+1}[u] = E_i[u + g_i] - E_i[u - g_i].

    Only u = 0 .. (m - 1) / 2 are kept, as e with E_i = sign * e, and an
    index outside that range folds back by the symmetry.  A g_i above
    (m - 1) / 2 is replaced by m - g_i, which negates the new level; sign
    absorbs that.  On even i each new cell is one subtraction.  On odd i
    the cells where u + g folds and u - g does not are a negated sum, at
    most half of them, and the cells where only u - g folds are sums.
    """
    h = m >> 1
    e = [1] + [0] * h
    kappa, gi, sign, odd = 0, h + 1, 1, False  # kappa_0 = 0, g_0 = 1/2 = h + 1
    while True:
        def read(c, e=e, kappa=kappa, sign=sign, tail=-sign if odd else sign):
            u = (c - kappa) % m
            if u > h:
                u, sign = m - u, tail
            return e[u] if sign > 0 else -e[u]
        yield read
        g = gi
        if g > h:
            g, sign = m - g, -sign
        p = h + 1 - g  # the first u whose u + g folds
        if not odd:
            e = list(map(sub, e[g:] + e[h:h - g:-1], e[g:0:-1] + e[:p]))
        elif g <= p:
            e = [*map(add, e[g:2 * g], e[g:0:-1]), *map(sub, e[2 * g:], e[:p - g]),
                 *map(neg, map(add, e[h:h - g:-1], e[p - g:p]))]
        else:
            e = [*map(add, e[g:], e[g:g - p:-1]), *map(sub, e[g - p:0:-1], e[h:m - 2 * g:-1]),
                 *map(neg, map(add, e[m - 2 * g:h - g:-1], e[:p]))]
        kappa = (kappa + gi) % m
        gi = 2 * gi % m
        odd = not odd


def _odd_query(m: int, a: int) -> tuple[int, int, int, int, int]:
    """(sign, m', a', k, pad) with S(m, a, x) = sign * S(m', a', (x + pad) >> k)
    for every x >= 0: m = 2^k m' with m' odd, a' = a >> k, and with
    a0 = a mod 2^k, pad = 2^k - 1 - a0 and sign = (-1)^s(a0)."""
    k = (m & -m).bit_length() - 1
    a0 = a & ((1 << k) - 1)
    return -1 if a0.bit_count() & 1 else 1, m >> k, a >> k, k, (1 << k) - 1 - a0


def _set_bits(m: int, x: int) -> list[tuple[int, int, int]]:
    """(i, P mod m, (-1)^s(P)) per set bit i of x, least significant first,
    where P = (x >> (i+1)) << (i+1) is x with the bits up to i cleared.

    The n < x that agree with x above bit i and have bit i clear are P + t,
    t < 2^i, so S(m, a, x) = sum of (-1)^s(P) D_i[(a - P) mod m] (the DP),
    and the character sum reads the phase (P - a) mod m of the same blocks.
    """
    out = []
    p = x % m
    sign = -1 if x.bit_count() & 1 else 1
    bits = bin(x)[:1:-1]    # bit i at index i, found in one linear pass over x
    i = bits.find("1")
    while i >= 0:
        p = (p - pow(2, i, m)) % m
        sign = -sign
        out.append((i, p, sign))
        i = bits.find("1", i + 1)
    return out


def _sums_in_one_pass(m: int, a: int, xs: Iterable[int]) -> list[int]:
    """[S(m, a, x) for x in xs] from a single pass of _half_levels over the
    levels of (x + pad) >> k of _odd_query (dp_cost_ns prices it at the
    largest x)."""
    sign, m, a, k, pad = _odd_query(m, a)
    splits = [_set_bits(m, (x + pad) >> k) for x in xs]
    wanted = [[] for _ in range(max((bits[-1][0] + 1 for bits in splits if bits), default=0))]
    for j, bits in enumerate(splits):
        for i, p, s in bits:
            wanted[i].append((j, (a - p) % m, sign * s))
    out = [0] * len(splits)
    for terms, d in zip(wanted, _half_levels(m)):
        for j, c, s in terms:
            out[j] += s * d(c)
    return out


def dp_cost_ns(m: int, a: int, x: int, rate: float = 1.0) -> int:
    """Predicted time in ns of the digit DP for S(m, a, x), the pass of
    _sums_in_one_pass: L levels, the bit length of (x + pad) >> k of
    _odd_query, each keeping the (m' + 1) / 2 classes of _half_levels.  Its
    integers gain at most `rate` bits a level: 1 for every m, since
    |D_i| <= 2^i, and alpha(m') in the limit (exponent._alpha_value), which
    is much less for some m' (0.0098 at m' = 1019, 0.79 at 1173)."""
    _check_query(m, a, x)
    _, m, _, k, pad = _odd_query(m, a)
    return _dp_pass_ns(m, ((x + pad) >> k).bit_length(), rate)


def _dp_pass_ns(m: int, levels: int, rate: float = 1.0) -> int:
    """dp_cost_ns of a pass of _half_levels over `levels` levels, odd m."""
    narrow = min(levels, _DIGIT_BITS)
    cell_ns = DP_CLASS_NS * narrow + DP_WIDE_CLASS_NS * (levels - narrow)
    num, den = float(rate).as_integer_ratio()
    width_ns = levels * levels * num // (den * DP_WIDTH_BITS)
    return levels * DP_LEVEL_NS + (m + 1) // 2 * (cell_ns + width_ns)


def newman_sum_dp(m: int, a: int, x: int) -> int:
    """S(m, a, x) by the signed digit DP: O(m' log x) integer additions,
    O(m') live integers of at most log x bits, with m' the odd part of m."""
    _check_query(m, a, x)
    return _sums_in_one_pass(m, a, [x])[0]


def _dyadic_stream(m: int, a: int) -> Iterator[int]:
    """S(m, a, 2^n) for n = 0, 1, ...: by _odd_query, sign * S(m', a', 1 or 0)
    for n < k, then level n - k of one signed-DP pass."""
    sign, m, a, k, pad = _odd_query(m, a)
    for n in range(k):
        yield sign if a == 0 and ((1 << n) + pad) >> k else 0
    for d in _half_levels(m):
        yield d(a) if sign > 0 else -d(a)


def dyadic_sums(m: int, a: int, n_max: int) -> list[int]:
    """[S(m, a, 2^n) for n = 0 .. n_max] from one pass of _dyadic_stream."""
    _check_query(m, a, 0)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return list(islice(_dyadic_stream(m, a), n_max + 1))


def _class_count(m: int, a: int, x: int) -> int:
    """#{0 <= n < x : n == a (mod m)}, exactly, for any size of x."""
    return (x - a + m - 1) // m if x > a else 0


def parity_counts(m: int, a: int, x: int) -> ParityCount:
    """ParityCount(t_even, t_odd) with t_even - t_odd = S(m, a, x) and
    t_even + t_odd = #{n < x : n == a (mod m)}."""
    _check_query(m, a, x)
    s = _sums_in_one_pass(m, a, [x])[0]
    count = _class_count(m, a, x)
    return ParityCount((count + s) // 2, (count - s) // 2)
