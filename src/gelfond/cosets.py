"""Cyclotomic cosets of 2 modulo odd m, and primitive/semiprimitive roots.

A coset is the orbit of a residue t under doubling mod m.  The cosets
partition {1, ..., m-1}; `h`, the lcm of their sizes, equals the
multiplicative order of 2 mod m.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple

from .modular import prime_factors

#: Trial division is exact and fast up to this bound; larger inputs are refused.
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


def _odd_part(m: int) -> int:
    """m with every factor 2 removed, for m >= 1."""
    return m >> ((m & -m).bit_length() - 1)


def _check_odd_modulus(m: int) -> None:
    if m < 3 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got m={m}")


def multiplicative_order(base: int, m: int) -> int:
    """Least k >= 1 with base**k == 1 (mod m); m odd >= 3, gcd(base, m) = 1."""
    _check_odd_modulus(m)
    if math.gcd(base, m) != 1:
        raise ValueError(f"base {base} is not coprime to modulus {m}")
    k = 1
    v = base % m
    while v != 1:
        v = v * base % m
        k += 1
    return k


def cyclotomic_cosets(m: int) -> CosetDecomposition:
    """Orbits of t -> 2t (mod m) on {1, ..., m-1}, ordered by smallest element."""
    _check_odd_modulus(m)
    seen = bytearray(m)
    cosets = []
    for t in range(1, m):
        if seen[t]:
            continue
        orbit = []
        u = t
        while not seen[u]:
            seen[u] = 1
            orbit.append(u)
            u = 2 * u % m
        cosets.append(tuple(orbit))
    sizes = tuple(len(c) for c in cosets)
    h = math.lcm(*sizes)  # ord_m(2): 2^k fixes every t iff each orbit size divides k
    return CosetDecomposition(
        m=m,
        cosets=tuple(cosets),
        representatives=tuple(c[0] for c in cosets),
        sizes=sizes,
        r=len(cosets),
        h=h,
        ord2=h,
    )


def is_prime(n: int) -> bool:
    """Deterministic trial division; only supported up to PRIMALITY_BOUND."""
    if n > PRIMALITY_BOUND:
        raise ValueError(f"primality test supported only up to {PRIMALITY_BOUND}")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"classify_prime needs an odd prime, got {p}")
    return _classify(p, prime_factors(p - 1))


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


def scan_semiprimitive(limit: int) -> list[int]:
    """All odd primes p <= limit for which 2 is a semiprimitive root."""
    return scan_primes(limit, SEMIPRIMITIVE)
