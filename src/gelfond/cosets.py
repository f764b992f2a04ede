"""Cyclotomic cosets of 2 modulo odd m, and primitive/semiprimitive roots.

A coset is the orbit of a residue t under doubling mod m.  The cosets
partition {1, ..., m-1}; `h`, the size of the orbit of 1, which every
other size divides, is the multiplicative order of 2 mod m.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from typing import NamedTuple

from .modular import miller_rabin as is_prime, prime_factors

#: classify_prime factors p - 1 by trial division, which stays fast up to
#: this bound; larger p are refused.  Primality itself (is_prime, the
#: Miller-Rabin test of modular) is exact below 2^64.
PRIMALITY_BOUND = 10**7

PRIMITIVE = "primitive"
SEMIPRIMITIVE = "semiprimitive"
NEITHER = "neither"


class CosetDecomposition(NamedTuple):
    m: int
    cosets: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    r: int
    h: int
    ord2: int


class PrimeClassification(NamedTuple):
    p: int
    classification: str  # primitive | semiprimitive | neither
    ord2: int
    minus_one_solvable: bool


def _check_odd_modulus(m: int) -> None:
    if m < 3 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got m={m}")


def _orbit(t: int, m: int) -> tuple[int, ...]:
    """t, 2t, 4t, ... (mod m) until the walk comes back to t: the doubling
    orbit of t in {1, ..., m-1}, m odd >= 3.  len(_orbit(1, m)) = ord_m(2)."""
    orbit = [t]
    u = 2 * t % m
    while u != t:
        orbit.append(u)
        u = 2 * u % m
    return tuple(orbit)


def _orbits(m: int) -> Iterator[tuple[int, ...]]:
    """Each orbit of t -> 2t (mod m) on {1, ..., m-1}, in order of its
    smallest element, marked off in one bytearray(m): the only m-sized state
    of the walk.  The orbit of 1 comes first, and its size is ord_m(2)."""
    seen = bytearray(m)
    for t in range(1, m):
        if not seen[t]:
            orbit = _orbit(t, m)
            for u in orbit:
                seen[u] = 1
            yield orbit


def _effective_roots_mod(orbits, h: int, modulus: int, powers: list) -> list[int]:
    """Z_j = (prod_{t in C_j} (1 - w^t))^(h/h_j) mod M for each orbit C_j of
    `orbits`, in one pass of modular.crt_passes: powers[t] = w^t mod M, with
    w of order m in every prime field of M.  Since 2^h == 1 (mod m), Z_j is
    also the product of 1 - w^(t 2^i) over any h consecutive i, for any t in
    C_j: one whole period of F_t(2^v) = prod_{i<v} (1 - w^(t 2^i)), so
    F_t(2^(k h + s)) = Z_j^k F_t(2^s).  The mirror orbit -C_j has
    Z = (-1)^h Z_j, since 1 - w^(-u) = -w^(-u) (1 - w^u) and the w^(-u)
    multiply to 1 over a period.  Costs one product per residue of the
    orbits and one power per orbit, and holds one residue per orbit."""
    roots = []
    for orbit in orbits:
        z = 1
        for t in orbit:
            z = z * (1 - powers[t]) % modulus
        roots.append(pow(z, h // len(orbit), modulus))
    return roots


def cyclotomic_cosets(m: int) -> CosetDecomposition:
    """Every orbit of t -> 2t (mod m) on {1, ..., m-1}, ordered by smallest
    element, held at once: m - 1 ints in all.  A caller that needs one orbit
    at a time walks _orbits(m) instead."""
    _check_odd_modulus(m)
    cosets = tuple(_orbits(m))
    sizes = tuple(len(c) for c in cosets)
    h = sizes[0]  # ord_m(2), the size of the orbit of 1
    return CosetDecomposition(
        m=m,
        cosets=cosets,
        representatives=tuple(c[0] for c in cosets),
        sizes=sizes,
        r=len(cosets),
        h=h,
        ord2=h,
    )


def _classify(p: int, factors: list[int]) -> PrimeClassification:
    """Classify the odd prime p, given the distinct prime factors of p - 1.

    ord_p(2) divides p - 1: strip each prime q from d = p - 1 while
    2^(d/q) == 1 (mod p), which leaves the least such d.
    """
    d = p - 1
    for q in factors:
        while d % q == 0 and pow(2, d // q, p) == 1:
            d //= q
    # -1 lies in the orbit of 2 iff the orbit has even size and its unique
    # element of order 2, namely 2**(d/2), is -1.
    minus_one = d % 2 == 0 and pow(2, d // 2, p) == p - 1
    if d == p - 1:
        cls = PRIMITIVE
    elif 2 * d == p - 1 and not minus_one:
        cls = SEMIPRIMITIVE
    else:
        cls = NEITHER
    return PrimeClassification(p=p, classification=cls, ord2=d, minus_one_solvable=minus_one)


def classify_prime(p: int) -> PrimeClassification:
    """Classify an odd prime by the behaviour of 2 in its unit group.

    primitive: 2 generates the full group (ord = p-1);
    semiprimitive: ord = (p-1)/2 and 2**x == -1 (mod p) has no solution.

    p - 1 is factored by trial division, so p is capped at PRIMALITY_BOUND.
    """
    if p > PRIMALITY_BOUND:
        raise ValueError(f"classify_prime factors p - 1 by trial division, "
                         f"supported only up to {PRIMALITY_BOUND}, got p={p}")
    if not is_prime(p) or p == 2:
        raise ValueError(f"classify_prime needs an odd prime, got {p}")
    return _classify(p, prime_factors(p - 1))


def _closed_prime(p: int) -> float:
    """ln p / ((p-1) ln 2): alpha(p) for a prime p with 2 primitive or
    semiprimitive, and the `scan --with-alpha` column."""
    return math.log(p) / ((p - 1) * math.log(2))


def _least_factor_sieve(limit: int) -> array:
    """spf[n] = the least prime factor of composite n <= limit, 0 for primes.

    Each prime q <= sqrt(limit) marks its multiples from q^2 on, largest q
    first, so the smallest prime factor is written last.
    """
    spf = array("I", [0]) * (limit + 1)
    small = [q for q in range(2, math.isqrt(limit) + 1) if is_prime(q)]
    for q in reversed(small):
        spf[q * q :: q] = array("I", [q]) * len(range(q * q, limit + 1, q))
    return spf


def scan_primes(limit: int, classification: str) -> list[int]:
    """Odd primes p <= limit whose classification matches, ascending.

    One least-factor sieve up to limit gives both the primes and the prime
    factors of each p - 1, so the scan costs O(limit log log limit) for the
    sieve plus a few modular powers per prime.
    """
    if limit < 2:
        raise ValueError(f"scan limit must be >= 2, got {limit}")
    if classification not in (PRIMITIVE, SEMIPRIMITIVE, NEITHER):
        raise ValueError(f"unknown classification {classification!r}")
    spf = _least_factor_sieve(limit)
    out = []
    for p in range(3, limit + 1, 2):
        if spf[p]:
            continue
        factors = []
        n = p - 1
        while n > 1:
            q = spf[n] or n
            factors.append(q)
            while n % q == 0:
                n //= q
        if _classify(p, factors).classification == classification:
            out.append(p)
    return out
