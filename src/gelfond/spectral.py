"""Character-sum evaluation of Newman-like sums and their root spectrum.

For beta = t/m the partial sums factor through

    F_beta(N) = sum_{n < N} (-1)^s(n) e^{2 pi i beta n},

which has a closed form over the binary expansion N = 2^v0 + ... + 2^vs:
each set bit contributes a signed phase times the product
prod_{k < v_g} (1 - e^{2 pi i beta 2^k}).  Averaging F_{t/m} against the
character e^{-2 pi i t a / m} over t recovers S(m, a, N) exactly.

newman_sum_explicit and newman_sum_pow2 evaluate that average with integer
arithmetic only: mod split primes p == 1 (mod m), where an element w of
order m stands for e^{2 pi i/m}, with enough primes that CRT recovers the
integer from the bound |S(m, a, N)| <= ceil(N/m).  Nothing is rounded, the
cost is O(m log N) products mod p per prime with O(log N / 62) primes, and
the route reads only the bits of N and w, never the digit DP, so it stays
an independent check on it.  f_beta is the same closed form in complex
doubles.

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
from typing import NamedTuple

from .cosets import CosetDecomposition, _check_odd_modulus
from .modular import PRIME_BITS, crt_symmetric, power_table, split_primes
from .sums import _check_query

#: Two effective roots closer than this (relatively) count as coincident.
CLUSTER_RTOL = 1e-8

#: Time of one step (one t, one level of x, one split prime) of the modular
#: character sum, measured for m from 1 to 10^5 on a 2-CPU Xeon with
#: Python 3.11.
EXPLICIT_STEP_NS = 250


class SpectralRoots(NamedTuple):
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


def _bit_terms(m: int, n: int) -> dict[int, tuple[int, int]]:
    """The closed form of F_{t/m}(n) over the set bits v_0 > v_1 > ... of n:

        F_{t/m}(n) = sum_g (-1)^g e^{2 pi i t P_g / m} F_{t/m}(2^{v_g}),

    with P_g = 2^{v_0} + ... + 2^{v_{g-1}}.  Maps each v_g to ((-1)^g, P_g mod m).
    """
    terms = {}
    prefix, sign = 0, 1
    for v in range(n.bit_length() - 1, -1, -1):
        if n >> v & 1:
            terms[v] = (sign, prefix)
            prefix = (prefix + pow(2, v, m)) % m
            sign = -sign
    return terms


def f_beta(t: int, m: int, n: int) -> complex:
    """F_{t/m}(n) = sum_{k < n} (-1)^s(k) e^{2 pi i t k / m}, n >= 1."""
    _check_query(m, 0, n)
    if n < 1:
        raise ValueError(f"f_beta needs n >= 1, got {n}")
    table = _unit_table(m)
    terms = _bit_terms(m, n)
    total = 0j
    prod = 1 + 0j  # F_{t/m}(2^v) = prod_{k < v} (1 - zeta^(t 2^k))
    u = t % m      # t 2^v mod m
    for v in range(n.bit_length()):
        if v in terms:
            sign, prefix = terms[v]
            total += sign * table[t * prefix % m] * prod
        prod *= 1 - table[u]
        u = 2 * u % m
    return total


def _character_sum_mod(m: int, a: int, terms: dict, top: int, p: int, w: int) -> int:
    """S(m, a, n) mod p as (1/m) sum_t w^(-ta) F_t(n), w of order m in F_p
    standing for e^{2 pi i/m}; `terms` is _bit_terms(m, n), `top` is n's top bit.

    All m values of t advance level by level together, so one step is one
    product mod p for each t.
    """
    powers = power_table(w, m, p)
    factors = [1 - z for z in powers]   # 1 - w^(t 2^v) at level v, by t
    double = [2 * t % m for t in range(m)]
    prods = [1] * m                     # F_t(2^v) mod p
    total = 0
    for v in range(top + 1):
        if v in terms:
            sign, prefix = terms[v]
            c = (prefix - a) % m
            total += sign * sum([z * powers[t * c % m] for t, z in enumerate(prods)])
        if v < top:
            prods = [z * f % p for z, f in zip(prods, factors)]
            factors = [factors[i] for i in double]
    return total * pow(m, -1, p) % p


def _sum_bits(m: int, x: int) -> int:
    """Bits that bound 2 |S(m, a, x)|: S counts at most ceil(x/m) terms."""
    return (-(-x // m)).bit_length() + 1


def _explicit_odd(m: int, a: int, x: int) -> int:
    """S(m, a, x) for odd m and x >= 1, exactly, from the character average
    mod split primes whose product exceeds 2 |S|."""
    terms = _bit_terms(m, x)
    top = x.bit_length() - 1
    return crt_symmetric(
        (_character_sum_mod(m, a, terms, top, p, w), p)
        for p, w in split_primes(m, _sum_bits(m, x))
    )


def explicit_cost_ns(m: int, x: int) -> int:
    """Predicted time of newman_sum_explicit(m, a, x).

    After the even fold, each split prime costs one step per t for every
    level of x and again for every set bit.  Each level also pays about four
    steps of fixed overhead, and the tables about two levels.  The primes
    are drawn from just below 2^PRIME_BITS, so each carries at least
    PRIME_BITS - 1 bits, which bounds their count.
    """
    _check_query(m, 0, x)
    shift = (m & -m).bit_length() - 1
    m, x = m >> shift, x >> shift
    primes = _sum_bits(m, x) // (PRIME_BITS - 1) + 1
    return EXPLICIT_STEP_NS * (m + 4) * (x.bit_length() + x.bit_count() + 2) * primes


def newman_sum_explicit(m: int, a: int, x: int) -> int:
    """S(m, a, x) via the character average of F_{t/m}(x), evaluated exactly
    mod split primes and recovered by CRT.

    Even moduli are folded down by the halving identity
    S(2m', a, 2x') = (-1)^a S(m', a//2, x') (peeling one term when x is odd),
    so any m >= 1 is accepted; the character average itself runs on odd m.
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
    return total + sign * _explicit_odd(m, a, x)


def newman_sum_pow2(m: int, a: int, nu: int) -> int:
    """S(m, a, 2^nu) via the product formula: the character average of
    F_{t/m}(2^nu) = prod_{k < nu} (1 - e^{2 pi i t 2^k / m}) (nu >= 1).

    The t = 0 term vanishes exactly when nu >= 1, which is why nu = 0 is
    rejected.
    """
    _check_odd_modulus(m)
    _check_query(m, a, 0)
    if nu < 1:
        raise ValueError(f"newman_sum_pow2 needs nu >= 1, got {nu}")
    return _explicit_odd(m, a, 1 << nu)


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
