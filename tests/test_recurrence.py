import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from gelfond import (
    RecurrenceDefectError,
    RecurrenceSpec,
    SingularSystemError,
    alpha,
    coefficients_from_sums,
    coefficients_spectral,
    cyclotomic_cosets,
    dyadic_sums,
    newman_sum_dp,
    newman_sum_enumerate,
    newman_sum_explicit,
    verify_recurrence,
)
from gelfond import modular, recurrence
from gelfond.recurrence import _minimal_polynomial


def test_coefficients_m17():
    spec = coefficients_spectral(cyclotomic_cosets(17))
    assert spec.coefficients == (-34, 17)
    assert spec.r == 2 and spec.h == 8
    assert coefficients_from_sums(17, 0).coefficients == (-34, 17)


def test_coefficients_m3():
    assert coefficients_spectral(cyclotomic_cosets(3)).coefficients == (-3,)
    assert coefficients_from_sums(3, 2).coefficients == (-3,)


@pytest.mark.parametrize("p", [3, 5, 11, 13])
def test_primitive_prime_has_c1_minus_p(p):
    spec = coefficients_spectral(cyclotomic_cosets(p))
    assert spec.coefficients == (-p,)
    assert spec.r == 1 and spec.h == p - 1


def test_effective_roots_drive_m9():
    # coset {3,6} has size 2 < h = 6; raw roots would give (-6, 9) which fails
    spec = coefficients_spectral(cyclotomic_cosets(9))
    assert spec.coefficients == (-30, 81)
    verify_recurrence(spec, 0, depth=6, multipliers=(1, 3))
    wrong = RecurrenceSpec(m=9, r=2, h=6, coefficients=(-6, 9))
    with pytest.raises(RecurrenceDefectError):
        verify_recurrence(wrong, 0, depth=3, multipliers=(1,))


def test_verify_rejects_wrong_coefficients():
    wrong = RecurrenceSpec(m=17, r=2, h=8, coefficients=(-34, 16))
    with pytest.raises(RecurrenceDefectError):
        verify_recurrence(wrong, 0, depth=2, multipliers=(1,))


def test_verify_checks_the_multiplier_identity_on_its_own():
    # fitted to the offset identity at n = 0, 1 only: it passes there and
    # must be caught by the multiplier identity at u = 3
    fake = RecurrenceSpec(m=5, r=2, h=3, coefficients=(-10, 30))
    assert verify_recurrence(fake, 0, depth=1, multipliers=(1,)).checks == 3
    defect = sum(
        c * newman_sum_enumerate(5, 0, 3 << k) for c, k in ((1, 7), (-10, 4), (30, 1))
    )
    assert defect != 0
    with pytest.raises(RecurrenceDefectError, match=f"u=3 with defect {defect}$"):
        verify_recurrence(fake, 0, depth=1, multipliers=(1, 3))


def test_verify_m17_paper_instances():
    # S(2^(n+17)) = 34 S(2^(n+9)) - 17 S(2^(n+1)) for n = 0..12,
    # and the same with dyadic bounds scaled by x in {1,3,5,7}
    for n in range(13):
        lhs = newman_sum_dp(17, 0, 1 << (n + 17))
        rhs = 34 * newman_sum_dp(17, 0, 1 << (n + 9)) - 17 * newman_sum_dp(17, 0, 1 << (n + 1))
        assert lhs == rhs, n
    for x in (1, 3, 5, 7):
        lhs = newman_sum_dp(17, 0, (1 << 17) * x)
        rhs = 34 * newman_sum_dp(17, 0, (1 << 9) * x) - 17 * newman_sum_dp(17, 0, 2 * x)
        assert lhs == rhs, x


def test_m3_simple_recurrence_all_multipliers():
    # S(8u) = 3 S(2u) for the residue-2 class
    for u in range(1, 101):
        assert newman_sum_enumerate(3, 2, 8 * u) == 3 * newman_sum_enumerate(3, 2, 2 * u)


def test_cross_method_equality_small_sweep():
    # Singular sums are genuine findings: when effective roots coincide
    # (eta > 1, here m = 15 and 21) no h-phase reaches minimal order r.  The
    # recurrence itself must still hold, so verification is the arbiter there.
    singular = []
    for m in range(3, 32, 2):
        spectral = coefficients_spectral(cyclotomic_cosets(m))
        for a in (0, 1, m - 1):
            try:
                sums = coefficients_from_sums(m, a)
            except SingularSystemError:
                singular.append((m, a))
                verify_recurrence(spectral, a, depth=4, multipliers=(1, 3))
                continue
            assert sums.coefficients == spectral.coefficients, (m, a)
    assert singular == [(15, 0), (15, 1), (15, 14), (21, 0), (21, 1), (21, 20)]


def test_singular_system_reported_for_m15():
    with pytest.raises(SingularSystemError):
        coefficients_from_sums(15, 0)


@pytest.mark.parametrize("m,a", [(27, 26), (31, 1), (31, 30), (127, 1)])
def test_from_sums_recovers_a_residue_with_a_short_phase(m, a):
    # the step-1 offset systems of these residues were singular, because
    # they mix h-phases.  Phase 0 has minimal order r for (31, 1) and
    # (127, 1); it is identically zero for (27, 26) and (31, 30), whose first
    # phases of order r are 7 and 1.  That phase's polynomial is the spectral one.
    spectral = coefficients_spectral(cyclotomic_cosets(m))
    assert coefficients_from_sums(m, a) == spectral


def test_from_sums_equals_spectral_or_reports_coincident_roots():
    for m in range(3, 64, 2):
        dec = cyclotomic_cosets(m)
        spectral = coefficients_spectral(dec)
        coincident = alpha(m).eta > 1
        for a in range(m):
            if coincident:
                with pytest.raises(SingularSystemError, match=f"of {dec.r},"):
                    coefficients_from_sums(m, a)
            else:
                assert coefficients_from_sums(m, a) == spectral, (m, a)


def test_verification_small_sweep():
    for m in range(3, 32, 2):
        spec = coefficients_spectral(cyclotomic_cosets(m))
        for a in (0, 1):
            report = verify_recurrence(spec, a, depth=8, multipliers=(1, 3, 5))
            assert report.max_defect == 0
            assert report.checks == 12


def _identities(spec, a, depth, multipliers):
    """(offsets, multiplier identities) of verify_recurrence, each a list of
    (name, value) in the order checked, summed directly from dyadic_sums
    and newman_sum_dp."""
    m, r, h = spec.m, spec.r, spec.h
    weights = (1, *spec.coefficients)
    ks = [(r - q) * h + 1 for q in range(r + 1)]
    seq = dyadic_sums(m, a, depth + r * h + 1)
    offsets = [(f"offset identity fails at n={n}",
                sum(c * seq[n + k] for c, k in zip(weights, ks))) for n in range(depth + 1)]
    scaled = [(f"multiplier identity fails at u={u}",
               sum(c * newman_sum_dp(m, a, u << k) for c, k in zip(weights, ks)))
              for u in multipliers]
    return offsets, scaled


def test_windowed_check_equals_the_identities_summed_directly():
    # the offsets are checked from a window of the last rh + 2 sums of one
    # pass, which slides once at depth 1, rh times at rh and 3rh + 2 times
    # at 3rh + 2
    multipliers = (1, 3, 5, 7)
    for m in range(3, 64, 2):
        spec = coefficients_spectral(cyclotomic_cosets(m))
        rh = spec.r * spec.h
        for a in range(m):
            offsets, scaled = _identities(spec, a, 3 * rh + 2, multipliers)
            assert not any(value for _, value in offsets + scaled), (m, a)
            for depth in (1, rh, 3 * rh + 2):
                report = verify_recurrence(spec, a, depth, multipliers)
                assert report == (m, a, depth, multipliers, depth + 5, 0), (m, a, depth)


def test_a_coefficient_off_by_one_raises_the_first_defect():
    # offsets are checked before multipliers, each in order, and the first
    # nonzero identity is the one named; a coefficient whose terms all
    # vanish for this residue is not caught, and must not be
    caught = []
    for m in (3, 9, 17, 21, 31, 43, 63):
        spec = coefficients_spectral(cyclotomic_cosets(m))
        for q in range(spec.r):
            c = list(spec.coefficients)
            c[q] += 1
            wrong = spec._replace(coefficients=tuple(c))
            for a in (0, m // 2, m - 1):
                for depth, multipliers in ((spec.r * spec.h, (1, 3, 5, 7)), (1, (7, 5))):
                    offsets, scaled = _identities(wrong, a, depth, multipliers)
                    failing = [(name, value) for name, value in offsets + scaled if value]
                    if not failing:
                        assert verify_recurrence(wrong, a, depth, multipliers).max_defect == 0
                        continue
                    name, value = failing[0]
                    caught.append(name.split()[0])
                    with pytest.raises(RecurrenceDefectError) as info:
                        verify_recurrence(wrong, a, depth, multipliers)
                    assert str(info.value) == f"m={m}, a={a}: {name} with defect {value}"
    assert len(caught) > 170 and "multiplier" in caught  # of 186, 4 of them multipliers
    wrong = RecurrenceSpec(m=17, r=2, h=8, coefficients=(-34, 18))
    with pytest.raises(RecurrenceDefectError,
                       match="^m=17, a=0: offset identity fails at n=0 with defect 1$"):
        verify_recurrence(wrong, 0)


def test_verify_memory_does_not_grow_with_the_kept_sums():
    # the window holds rh + 2 = 4 sums of at most depth + 3 bits at m = 3;
    # keeping all depth + 4 sums of the pass grew the peak 6.3-7.5-fold from
    # depth 2000 to 8000, the window 1.6-1.7-fold
    spec = coefficients_spectral(cyclotomic_cosets(3))
    for a in range(3):
        peaks = []
        for depth in (2000, 8000):
            tracemalloc.start()
            try:
                verify_recurrence(spec, a, depth)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 6 * peaks[0], (a, peaks)


def test_trailing_coefficient_is_modulus():
    # c_r = (-1)^r m exactly when every coset has full size h
    for m in range(3, 100, 2):
        dec = cyclotomic_cosets(m)
        if all(size == dec.h for size in dec.sizes):
            spec = coefficients_spectral(dec)
            assert spec.coefficients[-1] == (-1) ** dec.r * m, m


def test_recurrence_root_ties_to_spectral_growth():
    # dominant root of the monic polynomial equals v^h
    import mpmath

    for m in range(3, 64, 2):
        dec = cyclotomic_cosets(m)
        spec = coefficients_spectral(dec)
        v = 2 ** alpha(m).log2_v
        # coincident roots (m = 21, 35, 45, 51, 63) slow the root finder's
        # convergence, hence the extra steps and working precision
        roots = mpmath.polyroots([1, *spec.coefficients], maxsteps=500, extraprec=300)
        dominant = max(abs(z) for z in roots)
        assert dominant == pytest.approx(v**spec.h, rel=1e-6), m


def _mpmath_coefficients(dec):
    """Reference c_1..c_r: prod (z - Z_j) expanded in mpmath at a precision
    that leaves about 30 fractional digits below the bound 2^(r (h+1))."""
    import mpmath

    with mpmath.workdps(int((dec.r * (dec.h + 1) + 8) * 0.302) + 30):
        poly = [mpmath.mpc(1)]
        for coset, size in zip(dec.cosets, dec.sizes):
            z = mpmath.mpc(1)
            for t in coset:
                z *= 1 - mpmath.expjpi(mpmath.mpf(2 * t) / dec.m)
            z **= dec.h // size
            poly = [c - z * d for c, d in zip([*poly, 0], [0, *poly])]
        coeffs = tuple(int(mpmath.nint(c.real)) for c in poly[1:])
        assert max(abs(c - k) for c, k in zip(poly[1:], coeffs)) < 1e-10
    return coeffs


@pytest.mark.parametrize("m", [3, 5, 7, 9, 15, 17, 19, 21, 31, 63, 77, 81, 243, 255, 511])
def test_exact_fallback_equals_mpmath_expansion(m, monkeypatch):
    # the split-prime expansion is the only route, for small m as for large;
    # at 243 = 3^5 the orbit powers h/h_j run 1, 3, 9, 27 and 81
    used = []
    split_primes = modular.split_primes
    monkeypatch.setattr(modular, "split_primes",
                        lambda *args: used.append(args) or split_primes(*args))
    dec = cyclotomic_cosets(m)
    spec = coefficients_spectral(dec)
    # enough primes for |c_i| <= C(r, i) 2^(h i) < 2^(r (h+1))
    assert used == [(m, dec.r * (dec.h + 1) + 1)]
    assert spec.coefficients == _mpmath_coefficients(dec)
    for a in (0, 1, m - 1):
        assert verify_recurrence(spec, a).max_defect == 0


def test_spectral_passes_group_the_split_primes(monkeypatch):
    # one pass per group of at most PASS_PRIMES primes, joined by CRT: the
    # coefficients must not depend on the grouping
    passes = []
    crt_passes = modular.crt_passes
    monkeypatch.setattr(recurrence, "crt_passes", lambda m, bits, evaluate: crt_passes(
        m, bits, lambda modulus, powers: passes.append(modulus) or evaluate(modulus, powers)))
    for m in (511, 683, 1023):
        dec = cyclotomic_cosets(m)
        primes = modular.split_primes(m, dec.r * (dec.h + 1) + 1)
        expected = coefficients_spectral(dec).coefficients
        for k in (1, 3, 8, 100):
            monkeypatch.setattr(modular, "PASS_PRIMES", k)
            passes.clear()
            assert coefficients_spectral(dec).coefficients == expected, (m, k)
            assert len(passes) == -(-len(primes) // k), (m, k)
            assert math.prod(passes) == math.prod(p for p, _ in primes), (m, k)


def test_second_call_reuses_the_split_primes(monkeypatch):
    # the first calls search for the primes of each m; later calls for the
    # same m must not run a single primality test
    cases = [(m, a, 3 << 40) for m, a in ((5, 1), (17, 3), (77, 0), (255, 7))]
    first = [(coefficients_spectral(cyclotomic_cosets(m)), newman_sum_explicit(m, a, x))
             for m, a, x in cases]

    def no_search(n):
        raise AssertionError(f"split primes searched again ({n})")

    monkeypatch.setattr(modular, "miller_rabin", no_search)
    again = [(coefficients_spectral(cyclotomic_cosets(m)), newman_sum_explicit(m, a, x))
             for m, a, x in cases]
    assert again == first
    assert [s for _, s in again] == [newman_sum_dp(m, a, x) for m, a, x in cases]


def test_primitive_prime_c1_is_minus_p():
    # 2 primitive mod p: one coset, and Z = prod_{t<p} (1 - zeta^t) = p, so
    # c_1 = -p.  The multiplier identity at u = max(a, 1) reads it off one
    # sum: n = a is the one term of S(p, a, 2u), so S(p, a, 2u) = (-1)^s(a)
    # and (-1)^(s(a)+1) S(p, a, 2^p u) = -p
    for p in (3, 5, 11, 13):
        assert coefficients_spectral(cyclotomic_cosets(p)).coefficients == (-p,), p
        for a in range(p):
            sign = 1 if a.bit_count() & 1 else -1
            assert sign * newman_sum_dp(p, a, max(a, 1) << p) == -p, (p, a)


def test_from_sums_validation():
    with pytest.raises(ValueError):
        coefficients_from_sums(15, 15)
    with pytest.raises(ValueError):
        coefficients_from_sums(8, 1)


def _massey_fractions(seq):
    """Reference: Massey's algorithm over Fractions, (L, [1, c_1, ..., c_L])."""
    c, prev = [Fraction(1)], [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    for n in range(len(seq)):
        d = sum(c[i] * seq[n - i] for i in range(min(len(c), n + 1)))
        if d == 0:
            shift += 1
            continue
        old = c
        c = c + [Fraction(0)] * (shift + len(prev) - len(c))
        for i, y in enumerate(prev):
            c[i + shift] -= d / last * y
        if 2 * length <= n:
            prev, last, length, shift = old, d, n + 1 - length, 1
        else:
            shift += 1
    assert not any(c[length + 1 :])
    return length, c[: length + 1]


def test_minimal_polynomial_equals_fraction_massey():
    rng = random.Random(13)
    planted = []
    cases = [[], [0] * 9, [0, 0, 0, 5], [0, 0, 1, 0, 0, 0]]
    for trial in range(400):
        order = rng.randrange(1, 7)
        poly = [rng.randint(-9, 9) for _ in range(order - 1)] + [rng.choice((-3, -1, 2, 7))]
        seq = [rng.randint(-20, 20) for _ in range(order)]
        size = 2 * order + rng.randrange(4)
        while len(seq) < size:
            seq.append(-sum(q * v for q, v in zip(poly, reversed(seq))))
        if trial % 3:
            planted.append((seq, poly))
        else:
            cases.append([0] * rng.randrange(1, 4) + seq)  # leading zeros
    recovered = 0
    for seq in cases + [seq for seq, _ in planted]:
        length, c = _minimal_polynomial(seq)
        expected_length, expected = _massey_fractions(seq)
        assert length == expected_length, seq
        assert [Fraction(v, c[0]) for v in c] == expected, seq
        assert math.gcd(*c) == 1, seq
        for n in range(length, len(seq)):
            assert sum(v * seq[n - i] for i, v in enumerate(c)) == 0, (seq, n)
    for seq, poly in planted:
        # 2L terms of an order-L recurrence fix it whenever they reach order L
        length, c = _minimal_polynomial(seq)
        if length == len(poly):
            recovered += 1
            assert [Fraction(v, c[0]) for v in c[1:]] == poly, seq
    assert recovered > 0.9 * len(planted)
    assert _minimal_polynomial([0] * 9) == (0, [1])
    assert _minimal_polynomial([0, 0, 0, 5]) == (4, [1, 0, 0, 0, -5])
