"""Exact growth exponent of the remainder term in Gelfond's digit theorem.

For odd m >= 3 the exponent is

    alpha(m) = max over l of  1 + (1/(h ln 2)) * sum_{k<h} ln|sin(pi l 2^k / m)|,

where h is the multiplicative order of 2 mod m and it suffices to let l run
over coset representatives (the k-sum traverses the doubling orbit of l).
alpha(m) always equals log2 of the dominant root magnitude v of the root
spectrum below, and collapses to closed forms in special cases:
ln3/ln4 whenever 3 | m, and ln p / ((p-1) ln 2) for primes where 2 is a
primitive or semiprimitive root.  An even m has the exponent of its odd
part; a power of two, m = 1 included, has bounded partial sums.

This module also owns the floating-point root spectrum of the cosets: per
coset z_j = prod_{t in C_j} (1 - e^{2 pi i t/m}), whose h-step products
collapse to the effective roots Z_j = z_j^(h/h_j) of the integer recurrence.
alpha reports their dominant magnitude v = max |Z_j|^(1/h) as log2_v and
their largest cluster of coincident roots as eta.  The phases t/m are
reduced mod m by integer arithmetic before any complex exponential is
taken, so there is no phase drift for large k.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .cosets import _check_odd_modulus, _closed_prime, _odd_part, _orbit, _orbits

#: Gelfond's universal remainder exponent ln 3 / ln 4.
LAMBDA = math.log(3) / math.log(4)

#: Two effective roots closer than this (relatively) count as coincident.
CLUSTER_RTOL = 1e-8


class ExponentReport(NamedTuple):
    m: int
    per_rep: tuple[tuple[int, float], ...]
    alpha: float
    argmax_rep: int | None  # the least representative whose exponent is alpha
    closed_form: float | None
    lam: float
    log2_v: float | None
    bounded: bool = False  # power-of-two modulus: partial sums stay in {-1, 0, 1}
    eta: int | None = None  # largest cluster of coincident Z_j; None when bounded


def _log_sine(t: int, m: int) -> float:
    """ln|sin(pi t/m)| for 0 < t < m, the one formula for every orbit term,
    read at min(t, m - t) so that t and m - t give the same float."""
    if 2 * t > m:
        t = m - t
    return math.log(math.sin(math.pi * t / m))


def _orbit_exponent(orbit: tuple[int, ...], m: int) -> float:
    """1 + (1/(h ln 2)) sum_{k<h} ln|sin(pi l 2^k/m)| for the doubling orbit
    l, 2l, ... of l mod m.  The k-sum is the orbit's sum repeated h/len(orbit)
    times, so this is 1 + sum over the orbit / (len(orbit) ln 2).  fsum
    rounds that sum correctly, and the orbits of l and -l have the same
    terms, so their exponents tie exactly."""
    return 1.0 + math.fsum(_log_sine(t, m) for t in orbit) / (len(orbit) * math.log(2))


def _orbit_root(orbit: tuple[int, ...], m: int) -> complex:
    """z = prod over the orbit of (1 - e^{2 pi i t/m}), in walk order."""
    z = 1 + 0j
    for t in orbit:
        z *= 1 - cmath.exp(2j * math.pi * t / m)
    return z


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


def _alpha_value(m: int) -> float:
    """alpha(m).alpha alone, for every m >= 1: the largest orbit exponent of
    the odd part of m, 0.0 when that is 1.  No root spectrum is formed, so
    it also runs where alpha's float roots overflow."""
    m = _odd_part(m)
    return max((_orbit_exponent(orbit, m) for orbit in _orbits(m)), default=0.0)


def alpha_for_rep(m: int, l: int) -> float:
    """The per-residue exponent; the sine arguments l*2^k are reduced mod m
    as integers, so no argument is ever spoiled for large k."""
    _check_odd_modulus(m)
    if not 1 <= l <= m - 1:
        raise ValueError(f"representative must satisfy 1 <= l <= m-1, got {l}")
    return _orbit_exponent(_orbit(l, m), m)


def _full_range_max(m: int, h: int) -> float:
    """max over l in [1, m-1] of alpha_for_rep(m, l), given h = ord_m(2),
    from one table of ln|sin(pi t/m)|.

    The orbit sums S_k(l) = sum_{i<k} ln|sin(pi l 2^i/m)| are built by binary
    splitting, S_{2k}(l) = S_k(l) + S_k(l 2^k mod m) and
    S_{k+1}(l) = S_k(l) + S_1(l 2^k mod m), one pass over l per bit of h: m
    logarithms and O(m log h) additions in place of m h of each.
    """
    ones = [_log_sine(l, m) if l else 0.0 for l in range(m)]  # S_1 by l; slot 0 stays 0
    sums, k = ones, 1
    for bit in bin(h)[3:]:
        c = pow(2, k, m)
        sums = [s + sums[l * c % m] for l, s in enumerate(sums)]
        k *= 2
        if bit == "1":
            c = pow(2, k, m)
            sums = [s + ones[l * c % m] for l, s in enumerate(sums)]
            k += 1
    return 1.0 + max(sums[1:]) / (h * math.log(2))


def _closed_form(m: int, h: int, r: int) -> float | None:
    """LAMBDA when 3 | m; ln m / ((m-1) ln 2) when m is a prime with 2
    primitive (one coset, h = m - 1) or semiprimitive (r = 2 cosets of size
    (m-1)/2, and -1 not a power of 2).  -1 is a power of 2 exactly when
    2^(h//2) == m - 1: for even h that power is the one element of order 2
    in the orbit of 1, and for odd h it is not -1, since 2^(h-1) != 1.
    Either shape forces m prime: doubling keeps gcd(t, m), so for a
    composite m the units and the non-units of each gcd would need more
    cosets, or for m = p^2 two of unequal sizes."""
    if m % 3 == 0:
        return LAMBDA
    if h == m - 1 or (r == 2 and 2 * h == m - 1 and pow(2, h // 2, m) != m - 1):
        return _closed_prime(m)
    return None


def alpha(m: int, full_range: bool = False) -> ExponentReport:
    """Exact exponent for m >= 1, reported on the odd part m' of m.

    The even fold of sums._odd_query keeps the growth exponent.  For m' = 1
    the partial sums stay in {-1, 0, 1} and the report is `bounded`.  Else
    one representative per cyclotomic coset of m' is evaluated: one walk of
    the doubling orbits (cosets._orbits) gives h, the size of the first
    orbit, then each orbit's exponent and its effective root Z_j in turn,
    and v and eta are read from the r roots.  The orbits of l and -l have
    equal exponents, so argmax_rep is by rule the least representative
    whose exponent is the maximum.
    Only the walk's bytearray(m') is m'-sized, and no coset is kept.  With
    full_range=True every l in [1, m'-1] is swept as well, with the walk's h
    (m' logarithms and O(m' log h) additions, independent of the cosets),
    and the two maxima must agree to 1e-9.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got m={m}")
    m = _odd_part(m)
    if m == 1:
        return ExponentReport(
            m=1,
            per_rep=(),
            alpha=0.0,
            argmax_rep=None,
            closed_form=None,
            lam=LAMBDA,
            log2_v=None,
            bounded=True,
        )
    per_rep, effective = [], []
    for orbit in _orbits(m):
        if not per_rep:  # the orbit of 1 comes first, and its size is h = ord_m(2)
            h = len(orbit)
        per_rep.append((orbit[0], _orbit_exponent(orbit, m)))
        effective.append(_orbit_root(orbit, m) ** (h // len(orbit)))
    best = max(per_rep, key=lambda item: item[1])
    if full_range:
        full_max = _full_range_max(m, h)
        if abs(full_max - best[1]) > 1e-9:
            raise ArithmeticError(
                f"representative maximum {best[1]!r} disagrees with full-range "
                f"maximum {full_max!r} for m={m}"
            )
    return ExponentReport(
        m=m,
        per_rep=tuple(per_rep),
        alpha=best[1],
        argmax_rep=best[0],
        closed_form=_closed_form(m, h, len(per_rep)),
        lam=LAMBDA,
        log2_v=math.log2(max(abs(z) ** (1.0 / h) for z in effective)),
        eta=_cluster_max(effective, CLUSTER_RTOL),
    )
