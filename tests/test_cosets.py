import math

import pytest

from gelfond import (
    NEITHER,
    PRIMITIVE,
    SEMIPRIMITIVE,
    classify_prime,
    cyclotomic_cosets,
    is_prime,
    scan_primes,
)
from gelfond.cosets import PRIMALITY_BOUND, _orbit

CLASSES = (PRIMITIVE, SEMIPRIMITIVE, NEITHER)

SEMIPRIMITIVE_TO_263 = [7, 23, 47, 71, 79, 103, 167, 191, 199, 239, 263]


def _order_of_two(m):
    """ord_m(2), the least k >= 1 with 2^k == 1 (mod m), by stepping k."""
    k, v = 1, 2 % m
    while v != 1:
        k, v = k + 1, 2 * v % m
    return k


def test_order_of_two_is_the_size_of_the_orbit_of_one():
    assert [cyclotomic_cosets(m).h for m in (17, 3, 15)] == [8, 2, 4]
    for m in range(3, 400, 2):
        assert cyclotomic_cosets(m).h == len(_orbit(1, m)) == _order_of_two(m), m


def test_orbit_is_the_coset_rotated_to_start_at_l():
    for m in range(3, 400, 2):
        for coset in cyclotomic_cosets(m).cosets:
            for i, l in enumerate(coset):
                assert _orbit(l, m) == coset[i:] + coset[:i], (m, l)


def test_cosets_m15():
    dec = cyclotomic_cosets(15)
    assert [list(c) for c in dec.cosets] == [
        [1, 2, 4, 8],
        [3, 6, 12, 9],
        [5, 10],
        [7, 14, 13, 11],
    ]
    assert dec.r == 4
    assert dec.h == 4


def test_cosets_m17():
    dec = cyclotomic_cosets(17)
    assert [list(c) for c in dec.cosets] == [
        [1, 2, 4, 8, 16, 15, 13, 9],
        [3, 6, 12, 7, 14, 11, 5, 10],
    ]
    assert dec.r == 2
    assert dec.h == 8


def test_cosets_m3():
    dec = cyclotomic_cosets(3)
    assert [list(c) for c in dec.cosets] == [[1, 2]]
    assert dec.r == 1
    assert dec.h == 2


def test_cosets_validation():
    for bad in (1, 2, 4, 100):
        with pytest.raises(ValueError):
            cyclotomic_cosets(bad)


def test_coset_invariants_sweep():
    for m in range(3, 1000, 2):
        dec = cyclotomic_cosets(m)
        elements = [t for c in dec.cosets for t in c]
        assert sorted(elements) == list(range(1, m))  # partition of {1..m-1}
        assert sum(dec.sizes) == m - 1
        assert dec.r == len(dec.cosets)
        assert dec.h == dec.ord2 == _order_of_two(m)
        assert dec.h == math.lcm(*dec.sizes)
        for coset in dec.cosets:
            assert set(2 * t % m for t in coset) == set(coset)  # doubling-closed
            assert coset[0] == min(coset)
        for size in dec.sizes:
            assert dec.h % size == 0
        assert list(dec.representatives) == sorted(dec.representatives)


def test_classify_examples():
    c17 = classify_prime(17)
    assert c17.classification == NEITHER
    assert c17.minus_one_solvable  # 2^4 == -1 (mod 17)
    assert c17.ord2 == 8

    c7 = classify_prime(7)
    assert c7.classification == SEMIPRIMITIVE
    assert not c7.minus_one_solvable

    c3 = classify_prime(3)
    assert c3.classification == PRIMITIVE
    assert c3.ord2 == 2


def test_classify_validation():
    for bad in (9, 4, 1, 2, 15):
        with pytest.raises(ValueError):
            classify_prime(bad)


def test_minus_one_solvable_against_orbit_search():
    for p in range(3, 1000, 2):
        if not is_prime(p):
            continue
        orbit = set()
        v = 2 % p
        while v not in orbit:
            orbit.add(v)
            v = v * 2 % p
        assert classify_prime(p).minus_one_solvable == (p - 1 in orbit), p


def test_classification_coset_structure():
    # primitive -> one coset; semiprimitive -> two cosets with C1 = -C2 (mod p)
    for p in range(3, 264, 2):
        if not is_prime(p):
            continue
        cls = classify_prime(p)
        dec = cyclotomic_cosets(p)
        if cls.classification == PRIMITIVE:
            assert dec.r == 1
        elif cls.classification == SEMIPRIMITIVE:
            assert dec.r == 2
            negated = sorted((-t) % p for t in dec.cosets[1])
            assert negated == sorted(dec.cosets[0])


def test_scan_semiprimitive():
    assert scan_primes(263, SEMIPRIMITIVE) == SEMIPRIMITIVE_TO_263
    assert scan_primes(6, SEMIPRIMITIVE) == []
    assert scan_primes(50, SEMIPRIMITIVE) == [7, 23, 47]


def test_scan_primitive_prefix():
    # classical list of primes with primitive root 2
    assert scan_primes(70, PRIMITIVE) == [3, 5, 11, 13, 19, 29, 37, 53, 59, 61, 67]


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_primes(1, PRIMITIVE)
    with pytest.raises(ValueError):
        scan_primes(100, "weird")


def test_primality_bound_documented_and_enforced():
    # the bound caps classify_prime's trial factoring of p - 1, not primality
    assert PRIMALITY_BOUND == 10**7
    assert is_prime(9999991)  # largest prime under the bound
    assert is_prime(10000019)  # least prime over it
    assert not is_prime(PRIMALITY_BOUND + 1)  # 11 * 909091
    assert classify_prime(9999991).p == 9999991
    with pytest.raises(ValueError, match="trial division"):
        classify_prime(10000019)


def _reference_class(p):
    """The class of an odd prime from the O(p) loop of _order_of_two."""
    d = _order_of_two(p)
    minus_one = d % 2 == 0 and pow(2, d // 2, p) == p - 1
    if d == p - 1:
        return PRIMITIVE
    if 2 * d == p - 1 and not minus_one:
        return SEMIPRIMITIVE
    return NEITHER


@pytest.fixture(scope="module")
def reference_classes():
    """(p, class) for the odd primes p <= 20000, by Miller-Rabin and the
    orbit walk."""
    return [(p, _reference_class(p)) for p in range(3, 20001, 2) if is_prime(p)]


def test_scan_equals_brute_force(reference_classes):
    def expected(limit, cls):
        return [p for p, c in reference_classes if p <= limit and c == cls]

    # every limit up to 3000, the class cycling with it, covers each prime,
    # each square of a sieving prime and the limits on either side of them
    for limit in range(2, 3001):
        cls = CLASSES[limit % 3]
        assert scan_primes(limit, cls) == expected(limit, cls), (limit, cls)
    for cls in CLASSES:
        assert scan_primes(20000, cls) == expected(20000, cls), cls


def test_classify_order_equals_orbit_walk(reference_classes):
    for p, cls in reference_classes:
        if p >= 5000:
            break
        c = classify_prime(p)
        assert c.ord2 == _order_of_two(p), p
        assert c.classification == cls, p
    # Fermat primes: p - 1 = 2^k, where only the factor 2 is stripped
    assert classify_prime(257).ord2 == _order_of_two(257) == 16
    assert classify_prime(65537).ord2 == _order_of_two(65537) == 32
