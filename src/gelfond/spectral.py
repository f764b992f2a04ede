"""Complex-exponential evaluation of Newman-like sums and their root spectrum.

For beta = t/m the partial sums factor through

    F_beta(N) = sum_{n < N} (-1)^s(n) e^{2 pi i beta n},

which has a closed form over the binary expansion N = 2^v0 + ... + 2^vs:
each set bit contributes a signed phase times the product
prod_{k < v_g} (1 - e^{2 pi i beta 2^k}).  Averaging F_{t/m} against the
character e^{-2 pi i t a / m} over t recovers S(m, a, N) exactly, so the
rounded value is cross-checked against a residual tolerance and re-evaluated
in extended precision before anything is ever rounded silently.

The doubling orbit of t also yields the coset root spectrum: per coset
z_j = prod_{t in C_j} (1 - e^{2 pi i t/m}), and the h-step products collapse
to the effective roots Z_j = z_j^(h/h_j) that drive the integer recurrence.

All phases are reduced to exact rationals (t * 2^k mod m) / m by integer
arithmetic before any complex exponential is taken, so there is no phase
drift for large k.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .cosets import CosetDecomposition
from .sums import _check_query, binary_exponents

#: Minimum decimal digits used by the extended-precision fallback (~166 bits);
#: raised adaptively when the target integer itself is larger than that.
MP_DPS = 50

#: Absolute residual the extended-precision value must meet to be rounded.
MP_ABS_TOL = 1e-10

#: Two effective roots closer than this (relatively) count as coincident.
CLUSTER_RTOL = 1e-8


class ResidualError(ArithmeticError):
    """A value that must be an integer is not close enough to one."""


@dataclass(frozen=True)
class SpectralRoots:
    m: int
    h: int
    representatives: tuple[int, ...]
    roots: tuple[complex, ...]            # z_j, one per coset
    effective_roots: tuple[complex, ...]  # Z_j = z_j^(h/h_j)
    magnitudes: tuple[float, ...]         # |Z_j|^(1/h)
    v: float                              # max of magnitudes
    eta: int                              # largest cluster of coincident Z_j


def unit_root(t: int, m: int) -> complex:
    """e^{2 pi i t / m} with the phase reduced mod m first."""
    return cmath.exp(2j * math.pi * (t % m) / m)


def _unit_table(m: int) -> list[complex]:
    return [cmath.exp(2j * math.pi * t / m) for t in range(m)]


def _unit_table_mp(m: int) -> list:
    import mpmath

    return [mpmath.expjpi(mpmath.mpf(2 * t) / m) for t in range(m)]


def _f_beta_table(table, m: int, t: int, n: int):
    """F_{t/m}(n) from the binary expansion of n, in the table's arithmetic."""
    exps = binary_exponents(n)
    top = exps[0]
    # cumulative products prod_{k < v} (1 - zeta^(t 2^k)), v = 0 .. top
    prods = [table[0] * 0 + 1]
    u = t % m
    acc = prods[0]
    for _ in range(top):
        acc = acc * (1 - table[u])
        u = 2 * u % m
        prods.append(acc)
    total = table[0] * 0
    prefix = 0  # (2^v0 + ... + 2^v_{g-1}) mod m
    sign = 1
    for v in exps:
        total = total + sign * table[(t * prefix) % m] * prods[v]
        prefix = (prefix + pow(2, v, m)) % m
        sign = -sign
    return total


def f_beta(t: int, m: int, n: int) -> complex:
    """F_{t/m}(n) = sum_{k < n} (-1)^s(k) e^{2 pi i t k / m}, n >= 1."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got m={m}")
    if n < 1:
        raise ValueError(f"f_beta needs n >= 1, got {n}")
    return _f_beta_table(_unit_table(m), m, t % m, n)


def _character_average(table, m: int, a: int, n: int):
    total = table[0] * 0
    for t in range(m):
        total = total + table[(-t * a) % m] * _f_beta_table(table, m, t, n)
    return total / m


def _dps_for_bits(magnitude_bits: int) -> int:
    """Working precision so that a value of the given bit size still carries
    ~30 correct fractional digits."""
    return max(MP_DPS, int(magnitude_bits * 0.302) + 30)


def _round_checked(value, tol: float, what: str, retry, magnitude_bits: int):
    """Round a complex value to the nearest integer, guarding the residual.

    On a tolerance breach the `retry` callable re-evaluates in extended
    precision sized to `magnitude_bits` (a bound on the result's bit size);
    only if that also misses the absolute tolerance is ResidualError raised.
    Values past 2^52 (or non-finite ones) skip straight to the retry, since
    doubles can no longer separate adjacent integers there.
    """
    resid = math.inf
    if math.isfinite(value.real) and abs(value.real) < 2.0**52:
        nearest = round(float(value.real))
        resid = abs(value - nearest)
        if resid <= tol:
            return nearest, float(resid)
    import mpmath  # only this fallback needs it; importing it costs the CLI start

    dps = _dps_for_bits(magnitude_bits)
    with mpmath.workdps(dps):
        mp_value = retry()
        mp_nearest = int(mpmath.nint(mp_value.real))
        mp_resid = abs(mp_value - mp_nearest)
        if mp_resid <= MP_ABS_TOL:
            return mp_nearest, float(mp_resid)
    raise ResidualError(
        f"{what}: residual {float(resid):.3e} (machine) / {float(mp_resid):.3e} "
        f"(at {dps} digits) exceeds tolerance; refusing to round"
    )


def _sum_tolerance(m: int, x: int) -> float:
    return 1e-6 * max(1.0, m * math.log2(max(x, 2)))


def newman_sum_explicit(m: int, a: int, x: int) -> int:
    """S(m, a, x) via the character average of F_{t/m}(x).

    Even moduli are folded down by the halving identity
    S(2m', a, 2x') = (-1)^a S(m', a//2, x') (peeling one term when x is odd),
    so any m >= 1 is accepted; the complex evaluation itself runs on odd m.
    """
    _check_query(m, a, x)
    if x == 0:
        return 0
    total = 0
    sign = 1
    while m % 2 == 0:
        if x & 1:
            last = x - 1
            if last % m == a:
                total += sign * (-1 if last.bit_count() & 1 else 1)
            x -= 1
            if x == 0:
                return total
        if a & 1:
            sign = -sign
        m //= 2
        a //= 2
        x //= 2
    value = _character_average(_unit_table(m), m, a, x)
    rounded, _ = _round_checked(
        value,
        _sum_tolerance(m, x),
        f"S({m},{a},{x}) explicit",
        lambda: _character_average(_unit_table_mp(m), m, a, x),
        magnitude_bits=x.bit_length(),
    )
    return total + sign * rounded


def _pow2_total(table, m: int, a: int, nu: int):
    total = table[0] * 0
    for t in range(1, m):
        prod = table[0] * 0 + 1
        u = t
        for _ in range(nu):
            prod = prod * (1 - table[u])
            u = 2 * u % m
        total = total + table[(-t * a) % m] * prod
    return total / m


def newman_sum_pow2(m: int, a: int, nu: int) -> int:
    """S(m, a, 2^nu) via the product formula over t = 1 .. m-1 (nu >= 1).

    The t = 0 term vanishes exactly when nu >= 1, which is why it is dropped
    from the sum and why nu = 0 is rejected.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got m={m}")
    if not 0 <= a < m:
        raise ValueError(f"residue must satisfy 0 <= a < m, got a={a}, m={m}")
    if nu < 1:
        raise ValueError(f"newman_sum_pow2 needs nu >= 1, got {nu}")
    value = _pow2_total(_unit_table(m), m, a, nu)
    rounded, _ = _round_checked(
        value,
        _sum_tolerance(m, 1 << nu),
        f"S({m},{a},2^{nu}) pow2",
        lambda: _pow2_total(_unit_table_mp(m), m, a, nu),
        magnitude_bits=nu + 1,
    )
    return rounded


def _cluster_max(points: list[complex], rtol: float) -> int:
    """Largest group of points pairwise-linked by |p - q| <= rtol*max(|p|,|q|)."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= rtol * max(abs(points[i]), abs(points[j])):
                parent[find(i)] = find(j)
    counts: dict[int, int] = {}
    for i in range(n):
        root = find(i)
        counts[root] = counts.get(root, 0) + 1
    return max(counts.values())


def characteristic_roots(dec: CosetDecomposition) -> SpectralRoots:
    """Per-coset roots z_j, effective roots Z_j, dominant magnitude and
    multiplicity of the h-step recurrence spectrum."""
    m = dec.m
    table = _unit_table(m)
    roots = []
    for coset in dec.cosets:
        z = 1 + 0j
        for t in coset:
            z *= 1 - table[t]
        roots.append(z)
    effective = [z ** (dec.h // size) for z, size in zip(roots, dec.sizes)]
    magnitudes = tuple(abs(z) ** (1.0 / dec.h) for z in effective)
    return SpectralRoots(
        m=m,
        h=dec.h,
        representatives=dec.representatives,
        roots=tuple(roots),
        effective_roots=tuple(effective),
        magnitudes=magnitudes,
        v=max(magnitudes),
        eta=_cluster_max(effective, CLUSTER_RTOL),
    )
