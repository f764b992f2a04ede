"""Exact Newman-like alternating digit sums over residue classes.

The central quantity is

    S(m, a, x) = sum of (-1)^s(n) over 0 <= n < x with n == a (mod m),

where s(n) is the number of 1-bits of n.  Two independent evaluators are
provided: direct enumeration (the oracle, capped) and a signed digit DP over
the binary expansion of x.  Everything here is exact integer arithmetic.

An even modulus m = 2^k m' is folded to its odd part in closed form: with
a0 = a mod 2^k, the n == a (mod m) are n = 2^k j + a0, j == a >> k (mod m'),
with s(n) = s(j) + s(a0), and n < x exactly when j < ceil((x - a0) / 2^k), so
S(m, a, x) = (-1)^s(a0) S(m', a >> k, (x + 2^k - 1 - a0) >> k).  The DP scans the bits of x least significant first and keeps one list of
m' signed class sums, so S(m, a, x) costs O(m' log x) integer additions with
O(m') live integers of at most log x bits.  Level n of that pass is
S(m', a', 2^n), so dyadic_sums returns every S(m, a, 2^n), n <= N, from one
pass, and parity_counts is (count +- S) / 2 with the exact class count of
the original m.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from operator import sub
from typing import NamedTuple

#: Default upper bound on x for the O(x/m) enumeration path.
ENUMERATION_CAP = 1 << 26


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


def digit_sum(n: int) -> int:
    """Number of 1's in the binary expansion of n (n >= 0)."""
    if n < 0:
        raise ValueError(f"digit_sum needs n >= 0, got {n}")
    return n.bit_count()


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
    """
    d = [unit] + [0] * (m - 1)
    pw = 1 % m  # 2^i mod m
    while True:
        yield d
        d = list(map(sub, d, d[m - pw:] + d[:m - pw]))
        pw = 2 * pw % m


def _odd_part(m: int) -> int:
    """m with every factor 2 removed, for m >= 1."""
    return m >> ((m & -m).bit_length() - 1)


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
    while x:
        i = (x & -x).bit_length() - 1
        x &= x - 1
        p = (p - pow(2, i, m)) % m
        sign = -sign
        out.append((i, p, sign))
    return out


def _sums_in_one_pass(m: int, a: int, xs: list[int]) -> list[int]:
    """[S(m, a, x) for x in xs] from a single pass of the signed DP over the
    m' classes and the levels of (x + pad) >> k of _odd_query."""
    sign, m, a, k, pad = _odd_query(m, a)
    xs = [(x + pad) >> k for x in xs]
    wanted = [[] for _ in range(max((x.bit_length() for x in xs), default=0))]
    for j, x in enumerate(xs):
        for i, p, s in _set_bits(m, x):
            wanted[i].append((j, (a - p) % m, sign * s))
    out = [0] * len(xs)
    for terms, d in zip(wanted, _levels(m)):
        for j, c, s in terms:
            out[j] += s * d[c]
    return out


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
    for d in _levels(m):
        yield sign * d[a]


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
