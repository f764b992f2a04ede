import random
from fractions import Fraction

import pytest

from gelfond import (
    RecurrenceDefectError,
    RecurrenceSpec,
    SingularSystemError,
    characteristic_roots,
    coefficients_from_sums,
    coefficients_spectral,
    cyclotomic_cosets,
    newman_sum_dp,
    newman_sum_enumerate,
    simple_prime_c1,
    verify_recurrence,
)
from gelfond import recurrence
from gelfond.recurrence import _solve_integer_system


def test_coefficients_m17():
    spec = coefficients_spectral(cyclotomic_cosets(17))
    assert spec.coefficients == (-34, 17)
    assert spec.r == 2 and spec.h == 8
    assert max(spec.residuals) < 1e-9
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
    wrong = RecurrenceSpec(m=9, r=2, h=6, coefficients=(-6, 9), residuals=(0.0, 0.0))
    with pytest.raises(RecurrenceDefectError):
        verify_recurrence(wrong, 0, depth=3, multipliers=(1,))


def test_verify_rejects_wrong_coefficients():
    wrong = RecurrenceSpec(m=17, r=2, h=8, coefficients=(-34, 16), residuals=(0.0, 0.0))
    with pytest.raises(RecurrenceDefectError):
        verify_recurrence(wrong, 0, depth=2, multipliers=(1,))


def test_verify_checks_the_multiplier_identity_on_its_own():
    # fitted to the offset identity at n = 0, 1 only: it passes there and
    # must be caught by the multiplier identity at u = 3
    fake = RecurrenceSpec(m=5, r=2, h=3, coefficients=(-10, 30), residuals=(0.0, 0.0))
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
    # Singular systems are genuine findings: they arise for every residue
    # when effective roots coincide (eta > 1) and for isolated residues whose
    # expansion misses a root (e.g. m=27, a=26).  The recurrence itself must
    # still hold, so verification is the arbiter in those cases.
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
    assert singular == [(15, 0), (15, 1), (15, 14), (21, 0), (21, 1), (21, 20),
                        (27, 26), (31, 1), (31, 30)]


def test_singular_system_reported_for_m15():
    with pytest.raises(SingularSystemError):
        coefficients_from_sums(15, 0)


@pytest.mark.parametrize("m,a", [(27, 26), (127, 1)])
def test_singular_system_reported_for_missed_root(m, a):
    with pytest.raises(SingularSystemError):
        coefficients_from_sums(m, a)


def test_verification_small_sweep():
    for m in range(3, 32, 2):
        spec = coefficients_spectral(cyclotomic_cosets(m))
        for a in (0, 1):
            report = verify_recurrence(spec, a, depth=8, multipliers=(1, 3, 5))
            assert report.max_defect == 0
            assert report.checks == 12


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
        spectrum = characteristic_roots(dec)
        # coincident roots (m = 21, 35, 45, 51, 63) slow the root finder's
        # convergence, hence the extra steps and working precision
        roots = mpmath.polyroots([1, *spec.coefficients], maxsteps=500, extraprec=300)
        dominant = max(abs(z) for z in roots)
        assert dominant == pytest.approx(spectrum.v**spec.h, rel=1e-6), m


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


@pytest.mark.parametrize("m", [77, 81, 255, 511])
def test_exact_fallback_equals_mpmath_expansion(m, monkeypatch):
    # the float residual test fails at these m, so the split primes run
    used = []
    split_primes = recurrence.split_primes
    monkeypatch.setattr(recurrence, "split_primes",
                        lambda *args: used.append(args) or split_primes(*args))
    dec = cyclotomic_cosets(m)
    spec = coefficients_spectral(dec)
    # enough primes for |c_i| <= C(r, i) 2^(h i) < 2^(r (h+1))
    assert used == [(m, dec.r * (dec.h + 1) + 1)]
    assert spec.residuals == (0.0,) * dec.r
    assert spec.coefficients == _mpmath_coefficients(dec)
    for a in (0, 1, m - 1):
        assert verify_recurrence(spec, a).max_defect == 0


def test_small_moduli_keep_the_float_route(monkeypatch):
    # the profiles of small m call coefficients_spectral, where a prime
    # search would cost ten times the float expansion
    def no_primes(*args):
        raise AssertionError("the split-prime route must not run")

    monkeypatch.setattr(recurrence, "split_primes", no_primes)
    for m in (3, 5, 7, 9, 17, 19):
        spec = coefficients_spectral(cyclotomic_cosets(m))
        assert max(spec.residuals) < 1e-6, m
        assert verify_recurrence(spec, 1, depth=2).max_defect == 0, m


def test_simple_prime_c1_examples():
    assert simple_prime_c1(3, 2) == -3
    assert simple_prime_c1(3, 0) == -3
    assert simple_prime_c1(5, 1) == -5


def test_simple_prime_c1_all_residues():
    for p in (3, 5, 11, 13):
        for a in range(p):
            assert simple_prime_c1(p, a) == -p, (p, a)


def test_simple_prime_c1_validation():
    with pytest.raises(ValueError):
        simple_prime_c1(17, 0)  # 2 is not primitive mod 17
    with pytest.raises(ValueError):
        simple_prime_c1(5, 5)


def test_from_sums_validation():
    with pytest.raises(ValueError):
        coefficients_from_sums(15, 15)
    with pytest.raises(ValueError):
        coefficients_from_sums(8, 1)


def _solve_fractions(rows, rhs):
    """Reference: Gauss-Jordan over Fractions, None if singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for i in range(n):
            if i != col:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    return [row[n] for row in aug]


def test_integer_solver_equals_fraction_gauss_jordan():
    rng = random.Random(7)
    singular = 0
    for n in range(1, 9):
        for trial in range(40):
            rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
            if trial % 4 == 0 and n > 1:  # a dependent row
                rows[-1] = [u - 2 * v for u, v in zip(rows[0], rows[1 % (n - 1)])]
            if trial % 5 == 0:  # a zero leading column forces a row swap or singularity
                for row in rows[: n // 2 + 1]:
                    row[0] = 0
            rhs = [rng.randint(-30, 30) for _ in range(n)]
            expected = _solve_fractions(rows, rhs)
            got = _solve_integer_system(rows, rhs)
            if expected is None:
                singular += 1
                assert got is None
            else:
                numerators, d = got
                assert [Fraction(v, d) for v in numerators] == expected
    assert singular > 20
