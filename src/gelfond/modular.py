"""Exact modular machinery: split primes with roots of unity, and CRT.

A prime p == 1 (mod m) splits the m-th cyclotomic field completely, so F_p
holds an element w of exact multiplicative order m.  Any integer identity
that is a polynomial in e^{2 pi i/m} with integer coefficients then holds
mod p with w in place of that root, and the integer itself is recovered
exactly by CRT from enough such primes.

Primality is decided by Miller-Rabin on the 13 prime bases 2 .. 41, which
has no strong pseudoprime below PSI_13 = 3317044064679887385961981
(Sorenson and Webster, Math. Comp. 86, 2017), so it is exact for every
n < 2^62 used here.  Everything is stdlib integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import gcd, prod

#: The first 13 primes: the Miller-Rabin bases.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Least strong pseudoprime to every base in MR_BASES.
PSI_13 = 3317044064679887385961981

#: Split primes are drawn from below 2^PRIME_BITS, largest first.
PRIME_BITS = 62

#: Product of the primes below 100: one gcd discards most composite candidates.
_SMALL_PRODUCT = prod((*MR_BASES, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97))


def miller_rabin(n: int) -> bool:
    """Deterministic primality of n < PSI_13 by strong tests to MR_BASES."""
    if n >= PSI_13:
        raise ValueError(f"n={n} is beyond the deterministic range n < {PSI_13}")
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in MR_BASES:
        y = pow(base, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 by trial division."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


def split_primes(m: int, bits: int) -> Iterator[tuple[int, int]]:
    """Pairs (p, w): p prime, p == 1 (mod m), p < 2^62, w of order exactly m
    in F_p, largest p first, until the product of the p exceeds 2^bits.

    Raises ValueError if the primes below 2^62 run out first.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got m={m}")
    cofactors = [m // q for q in prime_factors(m)]
    product = 1
    k = ((1 << PRIME_BITS) - 2) // m
    while product <= 1 << bits:
        p = k * m + 1
        if p <= m:
            raise ValueError(f"fewer split primes below 2^{PRIME_BITS} for m={m} "
                             f"than {bits} bits need")
        k -= 1
        if gcd(p, _SMALL_PRODUCT) != 1 or not miller_rabin(p):
            continue
        g = 2
        while True:
            w = pow(g, (p - 1) // m, p)
            if all(pow(w, c, p) != 1 for c in cofactors):
                break
            g += 1
        product *= p
        yield p, w


def crt_symmetric(residues: Iterable[tuple[int, int]]) -> int:
    """The integer V with |V| < M/2 and V == r (mod p) for every (r, p),
    M the product of the (pairwise coprime) p, by Garner's mixed radix."""
    value, modulus = 0, 1
    for r, p in residues:
        value += modulus * ((r - value) * pow(modulus, -1, p) % p)
        modulus *= p
    return value - modulus if 2 * value > modulus else value
