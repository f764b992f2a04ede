"""Exact modular machinery: split primes with roots of unity, and CRT.

A prime p == 1 (mod m) splits the m-th cyclotomic field completely, so F_p
holds an element w of exact multiplicative order m.  Any integer identity
that is a polynomial in e^{2 pi i/m} with integer coefficients then holds
mod p with w in place of that root, and the integer itself is recovered
exactly by CRT from enough such primes.  split_primes remembers the primes
of each modulus for the life of the process, so each is searched for once.

Primality is decided by Miller-Rabin on the seven bases of MR_BASES, which
have no common strong pseudoprime below 2^64 (Sinclair 2011, checked
against the Feitsma-Galway table of base-2 pseudoprimes), so it is exact
for every n < 2^62 used here.  Everything is stdlib integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from math import gcd, prod

#: Miller-Rabin bases with no common strong pseudoprime below MR_LIMIT.
MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

#: Miller-Rabin on MR_BASES decides primality exactly below this bound.
MR_LIMIT = 1 << 64

#: Split primes are drawn from below 2^PRIME_BITS, largest first.
PRIME_BITS = 62

#: The primes below 100, tried as divisors before any strong test.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)

#: Their product: one gcd discards most composite candidates.
_SMALL_PRODUCT = prod(_SMALL_PRIMES)


def miller_rabin(n: int) -> bool:
    """Deterministic primality of n < MR_LIMIT by strong tests to MR_BASES.
    A base divisible by n says nothing about n and is skipped."""
    if n >= MR_LIMIT:
        raise ValueError(f"n={n} is beyond the deterministic range n < 2^64")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in MR_BASES:
        base %= n
        if base == 0:
            continue
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


#: Per modulus m: the (p, w) pairs found so far, largest p first, and the
#: k of the next candidate p = k m + 1.  Each extension is published as one
#: new tuple, so a reader never sees a half-built entry; when two callers
#: race to extend an entry the last write wins, which costs a repeated
#: search but never a wrong pair.
_FOUND: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}


def split_primes(m: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Pairs (p, w): p prime, p == 1 (mod m), p < 2^62, w of order exactly m
    in F_p, largest p first, until the product of the p exceeds 2^bits.

    The pairs are remembered per modulus for the life of the process: a
    later call reads them back, and a call that needs more bits resumes the
    search where the last one stopped.  Raises ValueError if the primes
    below 2^62 run out first.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got m={m}")
    found, k = _FOUND.get(m, ((), ((1 << PRIME_BITS) - 2) // m))
    limit = 1 << bits
    product = 1
    for n, (p, _) in enumerate(found):
        product *= p
        if product > limit:
            return found[: n + 1]
    cofactors = [m // q for q in prime_factors(m)]
    while product <= limit:
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
        found += ((p, w),)
    _FOUND[m] = found, k
    return found


#: Split primes whose product is the modulus of one pass of crt_passes.  A
#: product mod M costs least per prime near four to eight 62-bit primes, so
#: more primes take one pass per group of this many.  Best of three at 4, 8
#: and 16 (2-CPU Xeon, Python 3.11): coefficients_spectral(4095), 74 primes,
#: 0.92, 1.02 and 1.29 s; newman_sum_explicit at m = 63 with a 2000-bit x,
#: 33 primes, 0.76, 0.78 and 0.91 s.  At 4 a five-prime sum takes two
#: passes and runs about 10% slower (m = 1001, 280-bit x: 0.28 against 0.26 s).
PASS_PRIMES = 8


#: Time of split_primes' first search for one prime: its candidates k m + 1,
#: their Miller-Rabin tests and its root w, about 0.15 ms a prime on a 2-CPU
#: Xeon with Python 3.11.7 (30-40 ms for the 231 primes of a 14k-bit sum).
SEARCH_NS = 150_000


def crt_cost(m: int, bits: int) -> tuple[int, int]:
    """(passes, ns) of crt_passes(m, bits, ...) before any evaluation: its
    number of passes, each prime carrying at least PRIME_BITS - 1 bits, and
    the predicted time of the search for the primes not yet remembered for
    m, SEARCH_NS each."""
    primes = bits // (PRIME_BITS - 1) + 1
    searched = primes - len(_FOUND.get(m, ((), 0))[0])
    return -(-primes // PASS_PRIMES), SEARCH_NS * max(searched, 0)


def crt_passes(m: int, bits: int, evaluate: Callable[[int, list], list]) -> list[int]:
    """The integers V_i, |V_i| < 2^(bits-1), of an identity in e^{2 pi i/m},
    from evaluate(M, powers), which returns each V_i mod M.

    The split primes of m whose product exceeds 2^bits are dealt into
    passes of at most PASS_PRIMES.  Z/M, M the product of a pass's primes,
    is the product of their fields F_p, so powers[t] = w^t mod M, w the CRT
    lift of their roots of order m, stands for e^{2 pi i t/m} in all of
    them at once.  The V_i are the symmetric CRT join of the passes.
    """
    primes = split_primes(m, bits)
    passes = -(-len(primes) // PASS_PRIMES)
    residues = []
    for group in (primes[i::passes] for i in range(passes)):
        modulus = prod(p for p, _ in group)
        w = crt_symmetric((w, p) for p, w in group)
        powers = [1] * m
        for t in range(1, m):
            powers[t] = powers[t - 1] * w % modulus
        residues.append([(v, modulus) for v in evaluate(modulus, powers)])
    return [crt_symmetric(column) for column in zip(*residues)]


def crt_symmetric(residues: Iterable[tuple[int, int]]) -> int:
    """The integer V with |V| < M/2 and V == r (mod p) for every (r, p),
    M the product of the (pairwise coprime) p, by Garner's mixed radix."""
    value, modulus = 0, 1
    for r, p in residues:
        value += modulus * ((r - value) * pow(modulus, -1, p) % p)
        modulus *= p
    return value - modulus if 2 * value > modulus else value
