import math
import random
import sys
import threading

import pytest

from gelfond import modular
from gelfond.modular import (
    MR_BASES,
    MR_LIMIT,
    PRIME_BITS,
    crt_passes,
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
    # strong pseudoprimes to the first 4 and the first 9 prime bases
    prime_bases = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for n, fooled in ((3215031751, 4), (3825123056546413051, 9)):
        assert all(strong_probable_prime(n, b) for b in prime_bases[:fooled]), n
        assert not miller_rabin(n), n
    assert miller_rabin((1 << 61) - 1)
    assert MR_LIMIT == 1 << 64
    with pytest.raises(ValueError):
        miller_rabin(1 << 64)


def test_miller_rabin_skips_bases_divisible_by_n():
    # 407521 divides the base 9780504 and 299210837 divides 1795265022:
    # a strong test to a base == 0 (mod n) would call these primes composite
    for base in MR_BASES:
        for q in prime_factors(base):
            assert miller_rabin(q), (base, q)
    assert 9780504 % 407521 == 0 and miller_rabin(407521)
    assert 1795265022 % 299210837 == 0 and miller_rabin(299210837)


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


def test_split_primes_memo_extends_like_a_fresh_search(monkeypatch):
    tested = []
    probe = modular.miller_rabin
    monkeypatch.setattr(modular, "miller_rabin", lambda n: tested.append(n) or probe(n))
    monkeypatch.setattr(modular, "_FOUND", {})
    short = split_primes(255, 100)
    searched = len(tested)
    assert split_primes(255, 60) == short[:1]  # a prefix, read back with no search
    assert len(tested) == searched
    extended = split_primes(255, 600)
    # the extension resumed below the last prime found, testing none twice
    assert extended[: len(short)] == short and len(extended) > len(short)
    assert all(n < short[-1][0] for n in tested[searched:])
    primes = [p for p, _ in extended]
    assert primes == sorted(primes, reverse=True)
    monkeypatch.setattr(modular, "_FOUND", {})
    assert split_primes(255, 600) == extended


def test_split_primes_memo_under_threads(monkeypatch):
    # racing extensions may redo a search, but every caller must get the
    # exact prefix a serial search gives
    monkeypatch.setattr(modular, "_FOUND", {})
    expected = {m: split_primes(m, 500) for m in (3, 31, 255)}
    monkeypatch.setattr(modular, "_FOUND", {})
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(30):
            m, bits = rng.choice((3, 31, 255)), rng.randrange(1, 500)
            got = split_primes(m, bits)
            product = 1
            for p, _ in got:
                product *= p
            if got != expected[m][: len(got)] or not (
                    product > 1 << bits >= product // got[-1][0]):
                wrong.append((m, bits, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


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


@pytest.mark.parametrize("m", [3, 17, 63])
def test_crt_passes_hand_each_pass_a_root_of_order_m(m):
    # 1200 bits take 20 primes, so three passes of at most PASS_PRIMES
    bits = 1200
    primes = dict(split_primes(m, bits))
    rng = random.Random(m)
    values = [rng.randrange(-(1 << (bits - 1)) + 1, 1 << (bits - 1)) for _ in range(5)]
    values += [0, 1, -1]
    passes = []

    def evaluate(modulus, powers):
        passes.append((modulus, powers))
        return [v % modulus for v in values]

    assert crt_passes(m, bits, evaluate) == values
    assert len(passes) == -(-len(primes) // modular.PASS_PRIMES) == 3
    assert math.prod(modulus for modulus, _ in passes) == math.prod(primes)
    for modulus, powers in passes:
        assert len(powers) == m
        assert all(powers[t] == pow(powers[1], t, modulus) for t in range(m))
        group = [p for p in primes if modulus % p == 0]
        assert 0 < len(group) <= modular.PASS_PRIMES
        assert math.prod(group) == modulus
        for p in group:
            w = powers[1] % p
            assert w == primes[p]
            assert pow(w, m, p) == 1
            assert all(pow(w, m // q, p) != 1 for q in prime_factors(m))
