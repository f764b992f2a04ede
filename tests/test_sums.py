import random
import tracemalloc

import pytest

from gelfond import sums
from gelfond import (
    ENUMERATION_CAP,
    EnumerationCapError,
    LAMBDA,
    ParityCount,
    dyadic_sums,
    newman_sum_dp,
    newman_sum_enumerate,
    parity_counts,
    newman_sum_explicit,
)
from gelfond.sums import _half_levels, _levels, _set_bits


def unfolded_sums(m, a, xs):
    """[S(m, a, x) for x in xs] from one pass over the levels of _levels(m)
    itself, with no folding of an even m: the reference for the fold."""
    wanted = [[] for _ in range(max(x.bit_length() for x in xs))]
    for j, x in enumerate(xs):
        for i, p, sign in _set_bits(m, x):
            wanted[i].append((j, (a - p) % m, sign))
    out = [0] * len(xs)
    for terms, d in zip(wanted, _levels(m)):
        for j, c, sign in terms:
            out[j] += sign * d[c]
    return out


def halving_sum(m, a, x):
    """S(m, a, x) by the halving identity S(m, a, 2x) = (-1)^a S(m/2, a//2, x)
    for even m, one factor 2 at a time: an odd x peels its last term
    n = x - 1, then x -> x >> 1 and the sign flips with a's low bit; the odd
    part goes to newman_sum_dp.  The reference for the closed-form fold."""
    total, sign = 0, 1
    while m % 2 == 0:
        if x & 1 and (x - 1) % m == a:
            total += sign * (-1 if (x - 1).bit_count() & 1 else 1)
        m, a, x, sign = m // 2, a // 2, x >> 1, -sign if a & 1 else sign
    return total + sign * newman_sum_dp(m, a, x)


def brute_sum(m, a, x):
    """Definition of the sum, written independently of the library paths."""
    total = 0
    for n in range(x):
        if n % m == a:
            total += -1 if bin(n).count("1") % 2 else 1
    return total


def test_enumerate_known_values():
    assert newman_sum_enumerate(3, 2, 16) == -3
    assert newman_sum_enumerate(17, 0, 2) == 1
    assert newman_sum_enumerate(7, 5, 0) == 0
    assert newman_sum_enumerate(1, 0, 4) == 0


def test_enumerate_matches_definition():
    rng = random.Random(3)
    for _ in range(150):
        m = rng.randrange(1, 12)
        a = rng.randrange(m)
        x = rng.randrange(400)
        assert newman_sum_enumerate(m, a, x) == brute_sum(m, a, x)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        newman_sum_enumerate(3, 0, ENUMERATION_CAP + 1)
    # configurable: a smaller cap bites, a larger one admits
    with pytest.raises(EnumerationCapError):
        newman_sum_enumerate(3, 0, 1000, cap=999)
    assert newman_sum_enumerate(3, 0, 1000, cap=1000) == brute_sum(3, 0, 1000)


def test_input_validation():
    for fn in (newman_sum_enumerate, newman_sum_dp, parity_counts):
        with pytest.raises(ValueError):
            fn(0, 0, 5)
        with pytest.raises(ValueError):
            fn(5, 5, 5)
        with pytest.raises(ValueError):
            fn(5, -1, 5)
        with pytest.raises(ValueError):
            fn(5, 1, -1)


def test_dp_equals_enumerate_exhaustive_small():
    for m in range(1, 9):
        for a in range(m):
            for x in range(260):
                assert newman_sum_dp(m, a, x) == newman_sum_enumerate(m, a, x)


def test_dp_equals_enumerate_random():
    rng = random.Random(4)
    for m in range(1, 22, 2):
        for a in range(m):
            for _ in range(25):
                x = rng.randrange(1 << 14)
                assert newman_sum_dp(m, a, x) == newman_sum_enumerate(m, a, x), (m, a, x)


def test_streaming_dp_equals_enumerate_random_moduli():
    # even and odd moduli, the trivial modulus m = 1 and the empty range x = 0
    rng = random.Random(7)
    queries = [(1, 0, 0), (1, 0, 1), (1, 0, 12345), (5, 3, 0), (64, 63, 0)]
    for _ in range(300):
        m = rng.randrange(1, 80)
        queries.append((m, rng.randrange(m), rng.randrange(1 << rng.randrange(1, 17))))
    for m, a, x in queries:
        assert newman_sum_dp(m, a, x) == brute_sum(m, a, x), (m, a, x)


def test_dyadic_sums_are_the_dp_at_powers_of_two():
    for m, a, n_max in ((1, 0, 12), (3, 2, 40), (17, 5, 40), (30, 29, 40), (127, 1, 30)):
        assert dyadic_sums(m, a, n_max) == [newman_sum_dp(m, a, 1 << n) for n in range(n_max + 1)]
    assert dyadic_sums(7, 3, 0) == [0]
    assert dyadic_sums(7, 0, 0) == [1]
    with pytest.raises(ValueError):
        dyadic_sums(7, 3, -1)
    with pytest.raises(ValueError):
        dyadic_sums(7, 7, 4)


def test_folded_dp_equals_enumerate_for_every_even_modulus():
    rng = random.Random(11)
    for m in range(2, 65, 2):
        for a in range(m):
            xs = [0, 1, a, a + 1]
            xs += [2 * rng.randrange(2500) for _ in range(3)]
            xs += [2 * rng.randrange(2500) + 1 for _ in range(3)]
            for x in xs:
                assert newman_sum_dp(m, a, x) == newman_sum_enumerate(m, a, x), (m, a, x)
            t_even, t_odd = parity_counts(m, a, xs[-1])
            assert t_even + t_odd == len(range(a, xs[-1], m))
            assert t_even - t_odd == newman_sum_enumerate(m, a, xs[-1])


@pytest.mark.parametrize("m", [1000, 1024, 3 << 10, 4008])
def test_folded_dp_equals_unfolded_pass(m):
    rng = random.Random(m)
    a = rng.randrange(m)
    top = rng.getrandbits(1000) | 1 << 999
    xs = [top & ~1, top | 1]
    assert [newman_sum_dp(m, a, x) for x in xs] == unfolded_sums(m, a, xs)
    assert dyadic_sums(m, a, 1000) == unfolded_sums(m, a, [1 << n for n in range(1001)])
    # n_max below v2(m): every level comes from the halving steps alone
    assert dyadic_sums(m, a, 2) == unfolded_sums(m, a, [1, 2, 4])


def test_half_state_levels_equal_the_full_dp():
    for m in range(1, 100, 2):
        for i, read, d in zip(range(15), _half_levels(m), _levels(m)):
            assert [read(c) for c in range(m)] == d, (m, i)


def test_small_moduli_through_the_half_pass(monkeypatch):
    # with the crossover at 1 every odd part takes the half pass, m' = 1 too;
    # unfolded_sums reads the full pass of the unfolded m, never the half one
    monkeypatch.setattr(sums, "_HALF_PASS_MIN", 1)
    rng = random.Random(23)
    for m in range(1, 100):
        a = rng.randrange(m)
        xs = [0, a, a + 1] + [rng.randrange(1 << 13) for _ in range(4)]
        expected = [newman_sum_enumerate(m, a, x) for x in xs]
        assert [newman_sum_dp(m, a, x) for x in xs] == unfolded_sums(m, a, xs) == expected, m
        for x, s in zip(xs, expected):
            t_even, t_odd = parity_counts(m, a, x)
            assert (t_even - t_odd, t_even + t_odd) == (s, len(range(a, x, m))), (m, x)
        powers = [1 << n for n in range(14)]
        assert dyadic_sums(m, a, 13) == unfolded_sums(m, a, powers) == [
            newman_sum_enumerate(m, a, x) for x in powers], m
        top = rng.getrandbits(300) | 1 << 299
        assert [newman_sum_dp(m, a, top), dyadic_sums(m, a, 300)[-1]] == unfolded_sums(
            m, a, [top, 1 << 300]), m


def test_folded_dp_at_a_large_power_of_two_factor():
    # the unfolded pass over 3 * 2^20 classes is out of reach; the explicit
    # route shares the closed-form fold but sums characters mod primes, so
    # enumeration below 2^26 (about 22 class members) checks the fold itself
    m = 3 << 20
    rng = random.Random(12)
    for a in (0, 5, m - 1, rng.randrange(m)):
        top = rng.getrandbits(1000) | 1 << 999
        for x in (top & ~1, top | 1):
            assert newman_sum_dp(m, a, x) == newman_sum_explicit(m, a, x), (a, x)
        for x in (a, a + 1, rng.randrange(1 << 26), (1 << 26) - 1):
            expected = newman_sum_enumerate(m, a, x)
            assert newman_sum_dp(m, a, x) == expected, (a, x)
            assert newman_sum_explicit(m, a, x) == expected, (a, x)
    assert dyadic_sums(m, 5, 40) == [newman_sum_explicit(m, 5, 1 << n) for n in range(41)]
    assert dyadic_sums(m, 5, 25) == [newman_sum_enumerate(m, 5, 1 << n) for n in range(26)]


@pytest.mark.parametrize("k", range(21))
def test_closed_form_fold_equals_the_halving_steps(k):
    m = (1, 3)[k % 2] << k  # small odd parts keep the 1000-bit explicit sums cheap
    rng = random.Random(k)
    top = rng.getrandbits(1000) | 1 << 999
    for a in sorted({0, 1 % m, (1 << k) - 1, m - 1, rng.randrange(m)}):
        for x in (top & ~1, top | 1):
            expected = halving_sum(m, a, x)
            assert newman_sum_dp(m, a, x) == expected, (a, x)
            assert newman_sum_explicit(m, a, x) == expected, (a, x)
        assert dyadic_sums(m, a, k + 3) == [halving_sum(m, a, 1 << n) for n in range(k + 4)], a


def test_set_bits_matches_its_definition():
    rng = random.Random(13)
    for _ in range(300):
        m = rng.randrange(1, 200)
        x = rng.getrandbits(rng.randrange(0, 300))
        bits = _set_bits(m, x)
        assert [i for i, _, _ in bits] == [i for i in range(x.bit_length()) if x >> i & 1]
        for i, p, sign in bits:
            head = x >> (i + 1)
            assert p == (head << (i + 1)) % m, (m, x, i)
            assert sign == (-1) ** head.bit_count(), (m, x, i)


def test_dp_memory_is_linear_in_m():
    # O(m) live integers: about 0.1 MiB here, where keeping every level took 18 MiB
    x = random.Random(8).getrandbits(200) | 1 << 199
    tracemalloc.start()
    try:
        newman_sum_dp(1001, 5, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dp_handles_huge_bounds():
    # far beyond the enumeration cap; sanity: |S| bounded by the class count
    x = (1 << 90) + 12345
    s = newman_sum_dp(7, 3, x)
    assert abs(s) <= x // 7 + 1


def test_parity_counts_examples():
    assert parity_counts(3, 2, 16) == ParityCount(1, 4)
    assert parity_counts(1, 0, 4) == ParityCount(2, 2)
    assert parity_counts(9, 4, 0) == ParityCount(0, 0)


def test_parity_counts_identities():
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randrange(1, 16)
        a = rng.randrange(m)
        x = rng.randrange(3000)
        t_even, t_odd = parity_counts(m, a, x)
        assert t_even - t_odd == newman_sum_enumerate(m, a, x)
        assert t_even + t_odd == len(range(a, x, m))
    # the class count stays exact past the machine word
    x = (1 << 300) + 7
    for m, a in ((7, 3), (10, 9), (1, 0)):
        t_even, t_odd = parity_counts(m, a, x)
        assert t_even + t_odd == (x - a + m - 1) // m
        assert t_even - t_odd == newman_sum_dp(m, a, x)


def test_gelfond_bound_sanity():
    # |t_even - x/(2m)| <= 5 x^lambda at powers of two (loose constant)
    for m in (3, 5, 7):
        for k in range(1, 21):
            x = 1 << k
            t_even, _ = parity_counts(m, 0, x)
            assert abs(t_even - x / (2 * m)) <= 5 * x**LAMBDA


def test_thread_safety_smoke():
    # pure functions: concurrent evaluation must match the serial answers
    from concurrent.futures import ThreadPoolExecutor

    queries = [(m, a, x) for m in (3, 7, 12) for a in range(m) for x in (0, 97, 4096)]
    serial = [newman_sum_dp(*q) for q in queries]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda q: newman_sum_dp(*q), queries))
    assert parallel == serial
