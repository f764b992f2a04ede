import cmath
import math
import tracemalloc

import pytest

from gelfond import exponent
from gelfond import (
    LAMBDA,
    PRIMITIVE,
    SEMIPRIMITIVE,
    alpha,
    alpha_for_rep,
    classify_prime,
    cyclotomic_cosets,
    is_prime,
    newman_sum_dp,
)
from gelfond.exponent import ExponentReport

PRIMITIVE_SAMPLE = [3, 5, 11, 13, 19, 29, 37, 53, 59, 61, 67]
SEMIPRIMITIVE_SAMPLE = [7, 23, 47, 71, 79, 103]


def test_lambda_value():
    assert LAMBDA == pytest.approx(0.79248125, abs=1e-8)


def test_alpha_for_rep_m17():
    assert alpha_for_rep(17, 1) == pytest.approx(-0.12228749, abs=1e-6)
    assert alpha_for_rep(17, 3) == pytest.approx(0.63322035, abs=1e-6)


def test_alpha_for_rep_orbit_of_three_mod_nine():
    # orbit {3, 6}: every sine is sqrt(3)/2, so the value collapses to lambda
    assert alpha_for_rep(9, 3) == pytest.approx(math.log(3) / (2 * math.log(2)), abs=1e-12)


def test_alpha_for_rep_validation():
    with pytest.raises(ValueError):
        alpha_for_rep(4, 1)
    with pytest.raises(ValueError):
        alpha_for_rep(9, 0)
    with pytest.raises(ValueError):
        alpha_for_rep(9, 9)


def test_alpha_m17_report():
    report = alpha(17)
    assert report.alpha == pytest.approx(
        math.log(17 + 4 * math.sqrt(17)) / math.log(256), abs=1e-9
    )
    assert report.argmax_rep == 3
    assert dict(report.per_rep)[1] == pytest.approx(-0.12228749, abs=1e-6)
    assert report.closed_form is None  # 17 is neither primitive nor semiprimitive
    assert report.log2_v == pytest.approx(report.alpha, abs=1e-9)


def test_mirror_orbits_tie_and_argmax_is_the_least_attaining_rep():
    # the orbits of l and -l have the same exponent, bit for bit, so alpha
    # names the least representative that attains it
    for m in range(3, 400, 2):
        report = alpha(m)
        value_of = {t: value for coset, (_, value)
                    in zip(cyclotomic_cosets(m).cosets, report.per_rep) for t in coset}
        for rep, value in report.per_rep:
            assert repr(value_of[m - rep]) == repr(value), (m, rep)
        assert report.argmax_rep == min(rep for rep, value in report.per_rep
                                        if value == report.alpha), m
    assert [alpha(m).argmax_rep for m in (7, 31, 47)] == [1, 5, 1]


def test_alpha_published_values():
    # published values are truncations, not roundings
    assert math.floor(alpha(3).alpha * 10**4) == 7924
    assert math.floor(alpha(47).alpha * 10**4) == 1207
    assert alpha(15).alpha == pytest.approx(LAMBDA, abs=1e-9)


def test_alpha_validation():
    assert alpha(1).bounded
    assert alpha(10) == alpha(5)


def test_full_range_mode_agrees():
    # 1091 and 4099 are primes with 2 primitive, as in the benchmark's pool
    for m in (9, 15, 17, 21, 47, 1091, 4099):
        report = alpha(m, full_range=True)
        assert report.alpha == alpha(m).alpha


def test_full_range_sweep_equals_naive_max():
    for m in range(3, 300, 2):
        naive = max(alpha_for_rep(m, l) for l in range(1, m))
        h = cyclotomic_cosets(m).h
        assert exponent._full_range_max(m, h) == pytest.approx(naive, abs=1e-12), m


def test_full_range_sweep_catches_a_missing_coset(monkeypatch):
    real = exponent._orbits

    def without_argmax(m):
        return (c for c in real(m) if 3 not in c)  # the argmax coset of 17

    monkeypatch.setattr(exponent, "_orbits", without_argmax)
    assert alpha(17).argmax_rep == 1  # the coset route alone cannot tell
    with pytest.raises(ArithmeticError):
        alpha(17, full_range=True)


@pytest.fixture(scope="module")
def traced_65537():
    """alpha(65537) and the tracemalloc peak of computing it."""
    tracemalloc.start()
    try:
        report = alpha(65537)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def _per_rep_by_alpha_for_rep(report):
    return tuple((rep, alpha_for_rep(report.m, rep)) for rep, _ in report.per_rep)


def test_per_rep_equals_alpha_for_rep_exactly(traced_65537):
    for m in [*range(3, 300, 2), 4095]:
        report = alpha(m)
        assert [rep for rep, _ in report.per_rep] == list(cyclotomic_cosets(m).representatives)
        assert report.per_rep == _per_rep_by_alpha_for_rep(report), m
    report, _ = traced_65537
    assert report.per_rep == _per_rep_by_alpha_for_rep(report)


def test_alpha_keeps_no_modulus_sized_table(traced_65537):
    # alpha walks the cosets one orbit at a time, so the orbit walk's
    # bytearray(m) (64 KiB) is its only m-sized state: the peak is about
    # 0.65 MiB.  Holding all cosets of 65537 at once, as cyclotomic_cosets
    # does, takes about 2.8 MiB, and an m-entry table of complex roots or
    # log-sines another 2.5 MiB
    _, peak = traced_65537
    assert peak < 1.25 * 2**20


def _reference_alpha(m):
    """alpha(m) composed from the whole decomposition: cyclotomic_cosets,
    then _orbit_exponent and _orbit_root per coset, and v and eta of the
    effective roots Z_j = z_j^(h/h_j) taken here."""
    while m % 2 == 0:
        m //= 2
    if m == 1:
        return ExponentReport(m=1, per_rep=(), alpha=0.0, argmax_rep=None,
                              closed_form=None, lam=LAMBDA, log2_v=None, bounded=True)
    dec = cyclotomic_cosets(m)
    per_rep = tuple((c[0], exponent._orbit_exponent(c, m)) for c in dec.cosets)
    best = max(per_rep, key=lambda item: item[1])
    effective = [exponent._orbit_root(c, m) ** (dec.h // size)
                 for c, size in zip(dec.cosets, dec.sizes)]
    return ExponentReport(
        m=m,
        per_rep=per_rep,
        alpha=best[1],
        argmax_rep=best[0],
        closed_form=exponent._closed_form(m, dec.h, dec.r),
        lam=LAMBDA,
        log2_v=math.log2(max(abs(z) ** (1.0 / dec.h) for z in effective)),
        eta=exponent._cluster_max(effective, exponent.CLUSTER_RTOL),
    )


def test_orbit_walk_equals_the_whole_decomposition(traced_65537):
    # field by field, every float bit for bit: repr tells floats apart that
    # == would not (0.0 and -0.0)
    for m in [*range(1, 301), 4095]:
        assert repr(alpha(m)) == repr(_reference_alpha(m)), m
    report, _ = traced_65537
    assert repr(report) == repr(_reference_alpha(65537))


#: eta, the largest cluster of coincident effective roots, of every odd
#: m < 300 and of 4095 where it is not 1.
ETA_ABOVE_ONE = {
    15: 2, 21: 2, 35: 2, 39: 2, 45: 4, 51: 2, 55: 2, 63: 2, 69: 2, 75: 4, 77: 2,
    85: 2, 87: 2, 91: 2, 93: 2, 95: 2, 105: 4, 111: 2, 115: 2, 117: 2, 119: 2,
    123: 2, 133: 2, 135: 6, 141: 2, 143: 2, 147: 4, 153: 2, 155: 2, 159: 2,
    165: 2, 175: 4, 183: 2, 187: 2, 189: 2, 195: 2, 203: 2, 207: 4, 213: 2,
    215: 2, 219: 2, 221: 2, 225: 8, 231: 2, 235: 2, 237: 2, 245: 4, 247: 2,
    253: 2, 255: 2, 259: 2, 261: 4, 267: 2, 273: 4, 275: 2, 279: 2, 285: 2,
    287: 2, 291: 4, 295: 2, 299: 2, 4095: 6,
}


def test_alpha_reports_eta():
    for m in [*range(3, 300, 2), 4095]:
        assert alpha(m).eta == ETA_ABOVE_ONE.get(m, 1), m
    assert alpha(30).eta == alpha(15).eta  # reported on the odd part
    assert alpha(8).eta is None  # bounded: no roots


def _phase_numerators(m):
    """(n_j, N_j) per coset C_j of m, in coset order, with arg z_j =
    pi n_j/(2m) and arg Z_j = pi N_j/(2m) exactly.

    1 - e^(2 pi i t/m) = 2 sin(pi t/m) e^(i(pi t/m - pi/2)), and the sine is
    positive for 0 < t < m, so arg z_j = pi (2 T_j - h_j m)/(2m), with T_j
    the sum of C_j; raising to h/h_j multiplies the angle, taken mod 4m."""
    dec = cyclotomic_cosets(m)
    out = []
    for coset in dec.cosets:
        n = 2 * sum(coset) - len(coset) * m
        out.append((n, dec.h // len(coset) * n % (4 * m)))
    return out


def _angle_gap(phase, numerator, m):
    """Distance on the circle from phase to pi numerator/(2m)."""
    gap = (phase - math.pi * numerator / (2 * m)) % (2 * math.pi)
    return min(gap, 2 * math.pi - gap)


def test_root_phases_are_exact_integer_multiples_of_pi_over_2m():
    worst = 0.0
    for m in range(3, 400, 2):
        dec = cyclotomic_cosets(m)
        for coset, (n, big_n) in zip(dec.cosets, _phase_numerators(m)):
            z = exponent._orbit_root(coset, m)
            worst = max(worst, _angle_gap(cmath.phase(z), n, m),
                        _angle_gap(cmath.phase(z ** (dec.h // len(coset))), big_n, m))
    assert worst < 1e-9


def _eta_from_exact_phases(m):
    """eta with the phases read exactly: Z_j coincide only within a group
    of equal N_j, and there exactly when their magnitudes 2^(h e_j) do, with
    e_j the coset's exponent.  Within a group the exponents are sorted and
    chained while neighbouring magnitudes agree to CLUSTER_RTOL."""
    report, h = alpha(m), cyclotomic_cosets(m).h
    groups = {}
    for (_, e), (_, big_n) in zip(report.per_rep, _phase_numerators(m)):
        groups.setdefault(big_n, []).append(e)
    eta = 1
    for exponents in groups.values():
        exponents.sort()
        run = 1
        for lo, hi in zip(exponents, exponents[1:]):
            close = -math.expm1(-h * math.log(2) * (hi - lo)) <= exponent.CLUSTER_RTOL
            run = run + 1 if close else 1
            eta = max(eta, run)
    return eta


def test_exact_phase_groups_give_eta():
    for m in [*range(3, 400, 2), 4095]:
        assert _eta_from_exact_phases(m) == alpha(m).eta, m


#: Moduli where h alpha(m) > 1024, so that the largest |Z_j| = 2^(h alpha)
#: leaves the float range.  A multiple of 3 is among them once h > 1292,
#: since its coset {m/3, 2m/3} has |Z| = 3^(h/2): 2187 = 3^7 (the least
#: such modulus) and 3903 = 3 * 1301 (the next).  Then 5^5, 3 * 5^5 and
#: 80459 = 61 * 1319.
OVERFLOWING_MODULI = [2187, 3125, 3903, 9375, 80459]


@pytest.mark.xfail(strict=True, raises=OverflowError,
                   reason="z ** (h // size) overflows a complex where h alpha(m) > 1024")
@pytest.mark.parametrize("m", OVERFLOWING_MODULI)
def test_alpha_where_h_alpha_exceeds_1024(m):
    report = alpha(m)
    h = cyclotomic_cosets(m).h
    assert report.alpha == pytest.approx(exponent._full_range_max(m, h), abs=1e-12)
    assert report.log2_v == pytest.approx(report.alpha, abs=1e-9)


def test_alpha_value_is_alpha_without_the_root_spectrum():
    # the exponent alone, bit for bit, for every m (even and bounded ones
    # too), and where alpha's roots overflow it is still the sweep's maximum
    for m in range(1, 1200):
        assert exponent._alpha_value(m) == alpha(m).alpha, m
    for m in OVERFLOWING_MODULI:
        h = cyclotomic_cosets(m).h
        assert exponent._alpha_value(m) == pytest.approx(exponent._full_range_max(m, h),
                                                         abs=1e-12), m
    assert exponent._alpha_value(2 * 2187) == pytest.approx(LAMBDA, abs=1e-15)


def test_alpha_constant_on_cosets():
    for m in range(3, 100, 2):
        dec = cyclotomic_cosets(m)
        for coset in dec.cosets:
            values = [alpha_for_rep(m, l) for l in coset]
            assert max(values) - min(values) <= 1e-12, (m, coset)


def test_alpha_negation_symmetry():
    for m in (9, 13, 17, 21, 33, 45, 99):
        for l in range(1, m):
            assert alpha_for_rep(m, l) == alpha_for_rep(m, m - l), (m, l)


def test_representative_max_equals_full_max():
    for m in range(3, 100, 2):
        report = alpha(m)
        full = max(alpha_for_rep(m, l) for l in range(1, m))
        assert report.alpha == pytest.approx(full, abs=1e-12), m


def test_lambda_iff_multiple_of_three():
    for m in range(3, 100, 2):
        value = alpha(m).alpha
        if m % 3 == 0:
            assert abs(value - LAMBDA) <= 1e-9, m
        else:
            assert abs(value - LAMBDA) > 1e-6, m


@pytest.mark.parametrize("p", PRIMITIVE_SAMPLE + SEMIPRIMITIVE_SAMPLE)
def test_closed_form_agreement(p):
    closed = math.log(p) / ((p - 1) * math.log(2))
    assert alpha(p).alpha == pytest.approx(closed, abs=1e-9)
    assert alpha(p).closed_form == pytest.approx(closed, abs=1e-15)


def test_closed_form_reads_the_cosets_like_the_prime_classification():
    # the reference rule: lambda when 3 | m, else the prime closed form when
    # m is a prime with 2 primitive or semiprimitive
    def by_classification(m):
        if m % 3 == 0:
            return LAMBDA
        if is_prime(m) and classify_prime(m).classification in (PRIMITIVE, SEMIPRIMITIVE):
            return math.log(m) / ((m - 1) * math.log(2))
        return None

    closed = 0
    for m in range(3, 3000, 2):
        expected = by_classification(m)
        dec = cyclotomic_cosets(m)
        assert exponent._closed_form(m, dec.h, dec.r) == expected, m
        closed += expected is not None and m % 3 != 0
    assert closed == 250  # 166 primitive and 84 semiprimitive primes 5 <= p < 3000
    # through alpha, on the odd part: 2 is primitive mod 2027, semiprimitive mod 2999
    for p in (2027, 2999):
        assert alpha(2 * p).closed_form == pytest.approx(alpha(p).alpha, abs=1e-9)


def test_closed_form_rejects_other_primes():
    assert alpha(17).closed_form is None  # 2 has order 8 mod 17: neither class


def test_sine_product_identity_direct():
    # prod sin(l pi / p) = p / 2^(p-1), checked by direct multiplication
    for p in PRIMITIVE_SAMPLE + SEMIPRIMITIVE_SAMPLE:
        prod = math.prod(math.sin(l * math.pi / p) for l in range(1, p))
        closed = p / 2 ** (p - 1)
        assert abs(prod - closed) / closed <= 1e-10, p


def test_alpha_even_reductions():
    assert alpha(6).alpha == pytest.approx(alpha(3).alpha, abs=1e-15)
    assert alpha(12).alpha == pytest.approx(alpha(3).alpha, abs=1e-15)
    assert alpha(12).m == 3  # report describes the odd part


def test_alpha_routes_every_modulus_through_its_odd_part():
    # the reference routing: halve while even, then report on the odd part,
    # with a bounded report when nothing odd is left
    bounded = ExponentReport(m=1, per_rep=(), alpha=0.0, argmax_rep=None,
                             closed_form=None, lam=LAMBDA, log2_v=None, bounded=True)
    odd_reports = {m: alpha(m) for m in range(3, 1025, 2)}
    for m in range(1, 1025):
        odd = m
        while odd % 2 == 0:
            odd //= 2
        assert alpha(m) == odd_reports.get(odd, bounded), m


def test_alpha_even_power_of_two_is_bounded():
    report = alpha(4)
    assert report.bounded
    assert report.alpha == 0.0
    assert report.per_rep == ()
    assert all(alpha(1 << k).bounded for k in range(11))
    # every partial sum S(2^k, a, x), x < 2^12, lies in {-1, 0, 1}
    # (S(2, 0, 5) = S(1, 0, 3) = -1), counted from the definition
    for m in (1, 2, 4, 8, 16):
        sums = [0] * m
        for n in range(1 << 12):
            assert set(sums) <= {-1, 0, 1}, (m, n)  # the sums S(m, a, n)
            sums[n % m] += -1 if n.bit_count() & 1 else 1
        assert set(sums) <= {-1, 0, 1}, m
    assert newman_sum_dp(2, 0, 5) == newman_sum_dp(1, 0, 3) == -1


def test_alpha_even_validation():
    for m in (0, -3, -8):
        with pytest.raises(ValueError, match=f"modulus must be >= 1, got m={m}$"):
            alpha(m)


def test_alpha_matches_log2_v_sweep():
    for m in range(3, 100, 2):
        report = alpha(m)
        assert abs(report.alpha - report.log2_v) <= 1e-9, m
