import math
import random

import pytest

import gelfond.empirical as empirical
from gelfond import (
    LAMBDA,
    BlockSup,
    DyadicProfile,
    alpha,
    dyadic_profile,
    default_window,
    envelope_check,
    fit_exponent,
    gelfond_remainder_check,
    newman_sum_dp,
    newman_sum_enumerate,
)


def test_profile_m3_small():
    profile = dyadic_profile(3, 0, 4)
    assert profile.blocks == (
        BlockSup(1, 1, 1),
        BlockSup(2, 1, 2),
        BlockSup(3, 3, 7),
        BlockSup(4, 5, 13),
    )
    assert profile.boundary_sums == (1, 1, 2, 3, 6)


def test_profile_m3_newman_positivity_small():
    # classical positivity: the running sums for the zero class never dip below 0
    running = 0
    for n in range(16):
        if n % 3 == 0:
            running += -1 if bin(n).count("1") % 2 else 1
        assert running >= 0
    assert dyadic_profile(3, 0, 4).blocks[3].sup >= 1


def test_profile_trivial_modulus_bounded():
    profile = dyadic_profile(1, 0, 12)
    assert all(b.sup <= 1 for b in profile.blocks)
    assert all(s in (0, 1) for s in profile.boundary_sums)


def test_profile_m17_block_over_697():
    profile = dyadic_profile(17, 0, 18)
    block = next(b for b in profile.blocks if b.nu == 18)
    assert block.sup >= 697  # S(2^17) enters this block


def test_boundaries_match_dp():
    rng = random.Random(21)
    for _ in range(8):
        m = rng.randrange(1, 24)
        a = rng.randrange(m)
        profile = dyadic_profile(m, a, 13)
        for nu, value in enumerate(profile.boundary_sums):
            assert value == newman_sum_dp(m, a, 1 << nu), (m, a, nu)


def _enumerated_profile(m, a, max_exp):
    """(blocks, boundary_sums) of dyadic_profile by visiting every x."""
    values = [0]  # values[x] = S(m, a, x)
    for n in range(1 << max_exp):
        values.append(values[-1] + (n % m == a) * (1 - 2 * (n.bit_count() & 1)))
    blocks = []
    for nu in range(1, max_exp + 1):
        block = range(1 << (nu - 1), 1 << nu)
        sup = max(abs(values[x]) for x in block)
        first = next(x for x in block if abs(values[x]) == sup)
        blocks.append(BlockSup(nu, sup, first))
    return tuple(blocks), tuple(values[1 << nu] for nu in range(max_exp + 1))


def test_profile_equals_enumeration_oracle():
    # both exact routes and the public choice between them: every block sup,
    # first argmax x and boundary sum, odd and even m
    for m in range(1, 24):
        for a in range(m):
            blocks, boundary = _enumerated_profile(m, a, 14)
            for max_exp in (1, 2, 7, 14):
                want = (blocks[:max_exp], boundary[:max_exp + 1])
                profile = dyadic_profile(m, a, max_exp)
                assert (profile.blocks, profile.boundary_sums) == want, (m, a, max_exp)
                assert empirical._maxplus_profile(m, a, max_exp) == want, (m, a, max_exp)
                assert empirical._walk_profile(m, a, max_exp) == want, (m, a, max_exp)


def test_profile_routes_agree_at_large_m():
    rng = random.Random(5)
    for m in (1000, 1001, 4096, 4487):
        a = rng.randrange(m)
        assert empirical._maxplus_profile(m, a, 24) == empirical._walk_profile(m, a, 24), (m, a)


def test_large_m_profile_walks_the_class(monkeypatch):
    # m^2 * nu far above 2^nu: the max-plus DP would take seconds, the walk
    # visits 2^32 / 100003 members
    def no_dp(*args):
        raise AssertionError("the max-plus DP must not run")

    monkeypatch.setattr(empirical, "_maxplus_profile", no_dp)
    profile = dyadic_profile(100003, 1, 32)
    assert profile.boundary_sums[-1] == newman_sum_dp(100003, 1, 1 << 32)
    block = profile.blocks[-1]
    assert abs(newman_sum_dp(100003, 1, block.argmax_x)) == block.sup
    # the small profiles of the benchmark and the tests keep the DP
    with pytest.raises(AssertionError, match="max-plus"):
        dyadic_profile(19, 3, 26)


def test_large_m_remainder_check_walks_the_class(monkeypatch):
    # m * 28 digit-DP cells cost more than the 2^28 / m class members here
    def no_dp(*args):
        raise AssertionError("the digit DP must not run")

    monkeypatch.setattr(empirical, "dyadic_sums", no_dp)
    for m, a in ((7919, 5), (600000, 1), (1572864, 0)):
        report = gelfond_remainder_check(m, a, 28)
        for nu, ratio in enumerate(report.ratios, start=1):
            x = 1 << nu
            s = newman_sum_enumerate(m, a, x, cap=x)
            t_even = (len(range(a, x, m)) + s) // 2
            assert ratio == abs(2 * m * t_even - x) / (2 * m * x**LAMBDA), (m, a, nu)


def test_deep_profiles_corroborate_alpha():
    # at nu = 256 the calibration window holds many quasi-periods h, so every
    # residue fits alpha(m) closely and stays inside the envelope, including
    # the m = 23 residues and (17, 14) that fail the envelope at nu <= 26
    for m in (3, 17, 23, 43):
        alpha_value = alpha(m).alpha
        for a in range(m):
            profile = dyadic_profile(m, a, 256)
            fit = fit_exponent(profile)
            assert abs(fit.exponent_estimate - alpha_value) <= 0.005, (m, a, fit)
            report = envelope_check(profile, alpha_value)
            assert report.upper_violations == (), (m, a)


def test_profile_argmax_is_first_attainer():
    profile = dyadic_profile(3, 0, 10)
    for block in profile.blocks:
        lo = 1 << (block.nu - 1)
        assert lo <= block.argmax_x < 1 << block.nu
        assert abs(newman_sum_dp(3, 0, block.argmax_x)) == block.sup
        for x in range(lo, block.argmax_x):
            assert abs(newman_sum_dp(3, 0, x)) < block.sup


def test_profile_validation():
    with pytest.raises(ValueError):
        dyadic_profile(3, 0, 257)
    with pytest.raises(ValueError):
        dyadic_profile(3, 0, 0)
    with pytest.raises(ValueError):
        dyadic_profile(3, 3, 10)


def test_default_window():
    assert default_window(28) == (15, 28)
    assert default_window(16) == (9, 16)
    # clamped so the window always holds the 4 blocks a fit needs
    assert default_window(10) == (7, 10)
    assert default_window(4) == (1, 4)
    # never below the first block with a nonzero sup, even if under 4 remain
    assert default_window(12, first=9) == (9, 12)
    assert default_window(10, first=3) == (7, 10)
    assert default_window(5, first=3) == (3, 5)
    assert default_window(4, first=5) == (5, 4)


def test_fit_constant_profile_has_zero_slope():
    blocks = tuple(BlockSup(nu, 7, 1 << (nu - 1)) for nu in range(1, 9))
    profile = DyadicProfile(m=1, a=0, max_exp=8, blocks=blocks,
                            boundary_sums=(0,) * 9)
    fit = fit_exponent(profile, (1, 8))
    assert fit.exponent_estimate == pytest.approx(0.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_recovers_exact_power_law():
    blocks = tuple(BlockSup(nu, 2 ** (2 * nu), 1) for nu in range(1, 10))
    profile = DyadicProfile(m=1, a=0, max_exp=9, blocks=blocks,
                            boundary_sums=(0,) * 10)
    fit = fit_exponent(profile, (2, 9))
    assert fit.exponent_estimate == pytest.approx(2.0, abs=1e-9)


def test_fit_m3_tracks_alpha():
    profile = dyadic_profile(3, 0, 20)
    fit = fit_exponent(profile)
    assert fit.window == (11, 20)
    assert 0.70 <= fit.exponent_estimate <= 0.90


def test_fit_multiples_of_three_near_lambda():
    # deep scans: the fitted slope settles near ln3/ln4 for 3 | m
    lam = math.log(3) / math.log(4)
    for m in (3, 9, 15):
        fit = fit_exponent(dyadic_profile(m, 0, 28))
        assert abs(fit.exponent_estimate - lam) <= 0.08, (m, fit)


def test_fit_window_errors():
    profile = dyadic_profile(3, 0, 12)
    with pytest.raises(ValueError):
        fit_exponent(profile, (9, 11))  # 3 blocks < 4
    with pytest.raises(ValueError):
        fit_exponent(profile, (5, 20))  # outside profile
    zero_blocks = tuple(BlockSup(nu, 0 if nu == 3 else 4, 1) for nu in range(1, 9))
    zero_profile = DyadicProfile(m=1, a=0, max_exp=8, blocks=zero_blocks,
                                 boundary_sums=(0,) * 9)
    with pytest.raises(ValueError, match="zero sups"):
        fit_exponent(zero_profile, (1, 8))


def test_remainder_check_m3_bounded():
    report = gelfond_remainder_check(3, 0, 20)
    assert report.max_ratio < 5.0
    assert not report.monotone_top
    assert len(report.ratios) == 20


def test_remainder_check_m5_decreasing():
    # true exponent 0.58 < lambda, so the scaled remainder melts away
    report = gelfond_remainder_check(5, 0, 20)
    assert max(report.ratios[-3:]) < report.max_ratio / 2
    assert not report.monotone_top


def test_remainder_check_validation():
    with pytest.raises(ValueError):
        gelfond_remainder_check(3, 0, 29)
    with pytest.raises(ValueError):
        gelfond_remainder_check(3, 0, 0)


def test_envelope_m17():
    profile = dyadic_profile(17, 0, 20)
    report = envelope_check(profile, alpha(17).alpha)
    assert report.upper_violations == ()
    assert report.omega_attained
    assert report.omega_margin > 1.0


def test_envelope_multiple_of_three():
    # the hidden 3/m constant is why the lower reference is calibrated
    profile = dyadic_profile(15, 0, 22)
    report = envelope_check(profile, alpha(15).alpha)
    assert report.upper_violations == ()
    assert report.omega_attained


def test_envelope_flags_fabricated_blowup():
    profile = dyadic_profile(17, 0, 18)
    fake_blocks = list(profile.blocks)
    top = fake_blocks[-1]
    fake_blocks[-1] = BlockSup(top.nu, top.sup * 50, top.argmax_x)
    fake = DyadicProfile(m=17, a=0, max_exp=18, blocks=tuple(fake_blocks),
                         boundary_sums=profile.boundary_sums)
    report = envelope_check(fake, alpha(17).alpha)
    assert report.upper_violations != ()
