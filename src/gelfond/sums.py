"""Exact Newman-like alternating digit sums over residue classes.

The central quantity is

    S(m, a, x) = sum of (-1)^s(n) over 0 <= n < x with n == a (mod m),

where s(n) is the number of 1-bits of n.  Two independent evaluators are
provided: direct enumeration (the oracle, capped) and a signed digit DP over
the binary expansion of x.  Everything here is exact integer arithmetic.

An even modulus is first folded to its odd part m' = m >> v2(m) by the
exact halving identity S(2m', a, 2x') = (-1)^a S(m', a//2, x') of
reduce_even.  The DP then scans the bits of x least significant first and
keeps one list of m' signed class sums, so S(m, a, x) costs O(m' log x)
integer additions with O(m') live integers of at most log x bits.  Level n
of that pass is S(m', a', 2^n), so dyadic_sums returns every S(m, a, 2^n),
n <= N, from one pass, and parity_counts is (count +- S) / 2 with the exact
class count of the original m.
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


def _levels(m: int) -> Iterator[list[int]]:
    """The signed digit DP: D_0, D_1, ... with

        D_i[c] = sum of (-1)^s(t) over 0 <= t < 2^i with t == c (mod m),

    so D_n[a] = S(m, a, 2^n).  The t < 2^(i+1) with bit i set are 2^i + t'
    with one more 1-bit, hence D_{i+1}[c] = D_i[c] - D_i[c - 2^i].  Only the
    current level is live: m integers of at most i bits.  Each level is a
    fresh list, so a caller may keep one while the pass moves on.
    """
    d = [1] + [0] * (m - 1)
    pw = 1 % m  # 2^i mod m
    while True:
        yield d
        d = list(map(sub, d, d[m - pw:] + d[:m - pw]))
        pw = 2 * pw % m


def _block_terms(m: int, a: int, x: int) -> list[tuple[int, int, int]]:
    """(i, c, sign) per set bit i of x, least significant first, with
    S(m, a, x) = sum of sign * D_i[c].

    The n < x that agree with x above a set bit i and have bit i clear are
    head * 2^(i+1) + t with head = x >> (i+1) and t < 2^i; they contribute
    (-1)^s(head) * D_i[(a - head * 2^(i+1)) mod m].
    """
    terms = []
    c = (a - x) % m  # a - head * 2^(i+1) = a - x + (x mod 2^(i+1))
    parity = x.bit_count() & 1  # of head, once the bits up to i are dropped
    while x:
        i = (x & -x).bit_length() - 1
        x &= x - 1
        c = (c + pow(2, i, m)) % m
        parity ^= 1
        terms.append((i, c, -1 if parity else 1))
    return terms


def _sums_in_one_pass(m: int, a: int, xs: list[int]) -> list[int]:
    """[S(m, a, x) for x in xs] from a single pass of the signed DP.

    An even modulus is first folded to its odd part by the identity of
    reduce_even: an odd x peels its last term n = x - 1, then x -> x >> 1,
    so the pass runs over m >> v2(m) classes and log x - v2(m) levels.
    """
    out = [0] * len(xs)
    sign = 1
    while not m & 1:
        for j, x in enumerate(xs):
            if x & 1 and (x - 1) % m == a:
                out[j] += sign * (1 - (((x - 1).bit_count() & 1) << 1))
        xs = [x >> 1 for x in xs]
        if a & 1:
            sign = -sign
        m, a = m >> 1, a >> 1
    top = max((x.bit_length() for x in xs), default=0)
    wanted = [[] for _ in range(top)]
    for j, x in enumerate(xs):
        for i, c, s in _block_terms(m, a, x):
            wanted[i].append((j, c, sign * s))
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
    """S(m, a, 2^n) for n = 0, 1, ...: level n of one signed-DP pass.

    An even m yields S(m, a, 1) and then sign * S(m/2, a//2, 2^(n-1)) by
    reduce_even, so the pass runs on the odd part of m.
    """
    sign = 1
    while not m & 1:
        yield sign if a == 0 else 0  # S(m, a, 1)
        if a & 1:
            sign = -sign
        m, a = m >> 1, a >> 1
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


def reduce_even(m: int, a: int) -> tuple[int, int, int]:
    """Halving step for even moduli.

    Returns (m', a', sign) = (m/2, a//2, (-1)^a) with
    S(m, a, 2x) = sign * S(m', a', x) for every x.
    """
    if m < 2 or m % 2:
        raise ValueError(f"reduce_even needs an even modulus >= 2, got m={m}")
    _check_query(m, a, 0)
    return m // 2, a // 2, -1 if a & 1 else 1
