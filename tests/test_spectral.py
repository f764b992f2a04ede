import cmath
import math
import os
import random
import subprocess
import sys

import pytest

from gelfond import exponent, modular, spectral, sums
from gelfond import (
    alpha,
    cyclotomic_cosets,
    newman_sum_dp,
    newman_sum_enumerate,
    newman_sum_explicit,
)


def test_explicit_known_values():
    assert newman_sum_explicit(17, 0, 1 << 10) == 29
    assert newman_sum_explicit(3, 2, 16) == -3
    assert newman_sum_explicit(9, 5, 5000) == newman_sum_dp(9, 5, 5000)
    assert newman_sum_explicit(5, 0, 0) == 0


def test_explicit_equals_dp_random_odd():
    rng = random.Random(14)
    for _ in range(250):
        m = rng.choice([3, 5, 7, 9, 11, 13, 15, 17, 19, 21])
        a = rng.randrange(m)
        x = rng.randrange(1 << 16)
        assert newman_sum_explicit(m, a, x) == newman_sum_dp(m, a, x), (m, a, x)


def test_explicit_even_and_unit_moduli():
    rng = random.Random(15)
    for _ in range(150):
        m = rng.choice([1, 2, 4, 6, 10, 12, 20])
        a = rng.randrange(m)
        x = rng.randrange(1 << 11)
        assert newman_sum_explicit(m, a, x) == newman_sum_enumerate(m, a, x), (m, a, x)


def test_explicit_huge_bound_extended_precision():
    # far past the double range: the split-prime CRT must carry every bit
    x = (1 << 300) + 54321
    assert newman_sum_explicit(17, 3, x) == newman_sum_dp(17, 3, x)


def test_explicit_equals_dp_random_large():
    rng = random.Random(17)
    cases = [(rng.randrange(1, 201), rng.randrange(1, 300)) for _ in range(60)]
    cases += [(1, 2000), (2, 2000), (3, 2000), (7, 1500), (96, 1200), (199, 400)]
    for m, bits in cases:
        a = rng.randrange(m)
        x = rng.getrandbits(bits) | 1 << (bits - 1)
        assert newman_sum_explicit(m, a, x) == newman_sum_dp(m, a, x), (m, a, bits)


def test_explicit_periods_and_mirrors_equal_the_dp():
    # x of 3h + 1 and 5h + 2 bits, h = ord_m(2), spans every phase s < h and
    # the powers Z_j^k up to k = 3 and 5, with both signs (-1)^v of the mirror
    # pairs t, -t; 200 bits is one more length, and bit 0 is set and clear.
    # Even m (x shifted past the folded bits) and m = 1 reach the same passes
    # through the fold.  The DP reference is newman_sum_dp's pass, run once
    # for the six x.
    rng = random.Random(28)
    for m in [*range(1, 64, 2), 2, 12, 46]:
        k = (m & -m).bit_length() - 1
        odd = m >> k
        h = cyclotomic_cosets(odd).h if odd > 1 else 1
        xs = []
        for bits in (3 * h + 1, 5 * h + 2, 200):
            y = rng.getrandbits(bits) | 1 << (bits - 1)
            xs += [(y | 1) << k | rng.getrandbits(k), (y & ~1) << k | rng.getrandbits(k)]
        for a in range(m):
            expected = sums._sums_in_one_pass(m, a, xs)
            assert [newman_sum_explicit(m, a, x) for x in xs] == expected, (m, a)


def test_explicit_passes_group_the_split_primes(monkeypatch):
    # a 1000-bit x needs 17 split primes: one pass per group of k or fewer
    m, a, x = 5, 3, (1 << 1000) + 12345
    expected = newman_sum_dp(m, a, x)
    primes = modular.split_primes(m, spectral._sum_bits(m, x))
    assert len(primes) == 17
    moduli = []
    one_pass = spectral._character_sum_mod
    monkeypatch.setattr(spectral, "_character_sum_mod",
                        lambda *args: moduli.append(args[4]) or one_pass(*args))
    for k, passes in ((1, 17), (3, 6), (modular.PASS_PRIMES, 3), (17, 1)):
        monkeypatch.setattr(modular, "PASS_PRIMES", k)
        moduli.clear()
        assert newman_sum_explicit(m, a, x) == expected, k
        assert len(moduli) == passes, k
        assert math.prod(moduli) == math.prod(p for p, _ in primes)


def test_explicit_cost_counts_the_levels_the_route_steps():
    # ord_1001(2) = 60: the one set bit of 2^14040 lies in phase 0, so the
    # route steps no level, and that of 2^14039 in phase 59, so it steps 60
    assert spectral.explicit_cost_ns(1001, 0, 1 << 14040) < spectral.explicit_cost_ns(1001, 0, 1 << 14039) / 5


def test_plan_reads_h_only_where_the_cut_walk_reaches_it():
    # the doubling walk stops at the bit length of x; a plan cut short has
    # only k = 0, so no Z_j, the one reader of h, is formed
    for m in range(1, 130, 2):
        order = cyclotomic_cosets(m).h if m > 1 else 1
        for bits in {0, 1, order - 1, order, order + 1, 2 * order + 1}:
            *_, ks, h, _ = spectral._plan(m, 0, (1 << bits) - 1)
            assert h == order or (h == max(bits, 1) and ks == [0]), (m, bits)


def test_explicit_leaves_mpmath_unloaded():
    code = ("import sys; from gelfond.spectral import newman_sum_explicit; "
            "newman_sum_explicit(17, 3, 2**300 + 54321); "
            "print('mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_explicit_never_reads_the_dp(monkeypatch):
    rng = random.Random(18)
    cases = [(m, rng.randrange(m), rng.getrandbits(300)) for m in (17, 48, 1024, 3 << 20)]
    expected = [newman_sum_explicit(m, a, x) for m, a, x in cases]

    def refuse(*args):
        raise AssertionError("the explicit route read the digit DP")

    for name in ("_levels", "_half_levels", "_sums_in_one_pass", "_dyadic_stream"):
        monkeypatch.setattr(sums, name, refuse)
    assert [newman_sum_explicit(m, a, x) for m, a, x in cases] == expected


def test_pow2_known_values():
    assert newman_sum_explicit(17, 0, 1 << 17) == 697
    assert newman_sum_explicit(17, 0, 1 << 2) == 1
    assert newman_sum_explicit(5, 3, 1 << 10) == newman_sum_dp(5, 3, 1 << 10)


def test_pow2_random_matches_dp():
    rng = random.Random(16)
    for _ in range(100):
        m = rng.choice([3, 5, 7, 9, 11, 15, 21, 63])
        a = rng.randrange(m)
        nu = rng.randrange(1, 301)
        assert newman_sum_explicit(m, a, 1 << nu) == newman_sum_dp(m, a, 1 << nu), (m, a, nu)


def test_pow2_validation():
    with pytest.raises(ValueError):
        newman_sum_explicit(17, 17, 1 << 3)


# The coset root spectrum z_j, Z_j = z_j^(h/h_j), v and eta, which
# exponent.alpha computes one orbit at a time.


def _roots(dec):
    """z_j, one per coset of dec, by exponent._orbit_root."""
    return [exponent._orbit_root(coset, dec.m) for coset in dec.cosets]


def _effective_roots(dec):
    return [z ** (dec.h // size) for z, size in zip(_roots(dec), dec.sizes)]


def test_roots_m3():
    assert _roots(cyclotomic_cosets(3))[0] == pytest.approx(3.0)
    report = alpha(3)
    assert 2**report.log2_v == pytest.approx(math.sqrt(3))
    assert report.eta == 1


def test_roots_m17():
    z1, z2 = _effective_roots(cyclotomic_cosets(17))
    assert z1 + z2 == pytest.approx(34.0, abs=1e-9)
    assert z1 * z2 == pytest.approx(17.0, abs=1e-9)
    report = alpha(17)
    assert 2**report.log2_v == pytest.approx((17 + 4 * math.sqrt(17)) ** 0.125, abs=1e-12)
    assert report.eta == 1


def test_roots_coincide_for_eta_cases():
    # the two unit-coset roots of m=15 are both exactly -1
    assert alpha(15).eta == 2
    effective = _effective_roots(cyclotomic_cosets(15))
    assert sorted(round(z.real) for z in effective) == [-1, -1, 5, 9]
    # m=45 piles four effective roots at -1
    assert alpha(45).eta == 4


def _table_roots(dec):
    """z_j, log2 v and eta as they were computed with an m-entry table of
    e^{2 pi i t/m}."""
    m = dec.m
    table = [cmath.exp(2j * math.pi * t / m) for t in range(m)]
    roots = []
    for coset in dec.cosets:
        z = 1 + 0j
        for t in coset:
            z *= 1 - table[t]
        roots.append(z)
    effective = [z ** (dec.h // size) for z, size in zip(roots, dec.sizes)]
    v = max(abs(z) ** (1.0 / dec.h) for z in effective)
    return roots, math.log2(v), exponent._cluster_max(effective, exponent.CLUSTER_RTOL)


def test_roots_equal_the_table_oracle_exactly():
    for m in [*range(3, 300, 2), 65537]:
        dec = cyclotomic_cosets(m)
        report = alpha(m)
        assert (_roots(dec), report.log2_v, report.eta) == _table_roots(dec), m


def test_root_product_equals_modulus():
    for m in range(3, 100, 2):
        prod = 1 + 0j
        for z in _roots(cyclotomic_cosets(m)):
            prod *= z
        assert abs(prod - m) <= 1e-12 * m, m


def test_root_magnitude_sine_products():
    # |z_j| = prod over the coset of 2 sin(pi t / m)
    for m in range(3, 100, 2):
        dec = cyclotomic_cosets(m)
        for coset, z in zip(dec.cosets, _roots(dec)):
            sines = math.prod(2 * math.sin(math.pi * t / m) for t in coset)
            assert abs(z) == pytest.approx(sines, rel=1e-9), (m, coset)


def test_dominant_magnitude_matches_sine_form():
    # v = 2 max_l (prod_{k<h} |sin(pi l 2^k / m)|)^(1/h)
    for m in (9, 15, 17, 21, 33, 47):
        dec = cyclotomic_cosets(m)
        best = 0.0
        for l in range(1, m):
            prod = 1.0
            u = l
            for _ in range(dec.h):
                prod *= abs(math.sin(math.pi * u / m))
                u = 2 * u % m
            best = max(best, 2 * prod ** (1 / dec.h))
        assert 2**alpha(m).log2_v == pytest.approx(best, rel=1e-12)


def test_explicit_cost_prices_the_first_prime_search(monkeypatch):
    # m' = 107 of 1712 = 16 * 107 needs 227 split primes at 2^14069: a first
    # call searches them (about 0.15 ms each), a later one reads them back
    m, x = 1712, 1 << 14069
    monkeypatch.setattr(modular, "_FOUND", {})
    first = spectral.explicit_cost_ns(m, 0, x)
    bits = spectral._plan(m, 0, x)[-1]
    primes = modular.split_primes(107, bits)
    assert len(primes) == 227
    later = spectral.explicit_cost_ns(m, 0, x)
    assert first - later == modular.SEARCH_NS * len(primes)
    del modular._FOUND[107]
    assert spectral.explicit_cost_ns(m, 0, x) == first
