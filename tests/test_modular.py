import random

import pytest

from gelfond.modular import (
    MR_BASES,
    PRIME_BITS,
    PSI_13,
    crt_symmetric,
    miller_rabin,
    prime_factors,
    split_primes,
)


def sieve(n):
    flags = bytearray([1]) * n
    flags[0:2] = b"\x00\x00"
    for q in range(2, int(n**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = bytearray(len(range(q * q, n, q)))
    return flags


def strong_probable_prime(n, base):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    y = pow(base, d, n)
    if y in (1, n - 1):
        return True
    for _ in range(s - 1):
        y = y * y % n
        if y == n - 1:
            return True
    return False


def test_miller_rabin_agrees_with_sieve():
    flags = sieve(200_000)
    for n in range(200_000):
        assert miller_rabin(n) == bool(flags[n]), n


def test_miller_rabin_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n, fooled in ((3215031751, 4), (3825123056546413051, 9),
                      (318665857834031151167461, 12)):
        assert all(strong_probable_prime(n, b) for b in MR_BASES[:fooled]), n
        assert not miller_rabin(n), n
    # only base 41 exposes the last one
    assert not strong_probable_prime(318665857834031151167461, 41)
    assert miller_rabin((1 << 61) - 1)
    with pytest.raises(ValueError):
        miller_rabin(PSI_13)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(1001) == [7, 11, 13]
    assert prime_factors(2**10 * 3**4) == [2, 3]
    assert prime_factors(65537) == [65537]


@pytest.mark.parametrize("m", [1, 3, 15, 63, 255, 1001])
def test_split_primes_carry_roots_of_exact_order(m):
    bits = 200
    pairs = list(split_primes(m, bits))
    product = 1
    for p, w in pairs:
        assert (p - 1) % m == 0 and p < 1 << PRIME_BITS and miller_rabin(p), (m, p)
        # the order of w, by brute force
        y, order = w, 1
        while y != 1:
            y = y * w % p
            order += 1
        assert order == m, (m, p)
        product *= p
    assert len({p for p, _ in pairs}) == len(pairs)
    assert product > 1 << bits >= product // pairs[-1][0]


def test_crt_symmetric_recovers_signed_values():
    rng = random.Random(21)
    primes = [p for p, _ in split_primes(7, 300)]
    modulus = 1
    for p in primes:
        modulus *= p
    for _ in range(200):
        value = rng.randrange(-(modulus // 2), modulus // 2)
        assert crt_symmetric((value % p, p) for p in primes) == value
    assert crt_symmetric([]) == 0
