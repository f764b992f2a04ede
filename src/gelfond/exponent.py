"""Exact growth exponent of the remainder term in Gelfond's digit theorem.

For odd m >= 3 the exponent is

    alpha(m) = max over l of  1 + (1/(h ln 2)) * sum_{k<h} ln|sin(pi l 2^k / m)|,

where h is the multiplicative order of 2 mod m and it suffices to let l run
over coset representatives (the k-sum traverses the doubling orbit of l).
alpha(m) always equals log2 of the dominant root magnitude v of the
spectral module, and collapses to closed forms in special cases:
ln3/ln4 whenever 3 | m, and ln p / ((p-1) ln 2) for primes where 2 is a
primitive or semiprimitive root.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cosets import (
    PRIMALITY_BOUND,
    PRIMITIVE,
    SEMIPRIMITIVE,
    _check_odd_modulus,
    _odd_part,
    classify_prime,
    cyclotomic_cosets,
    is_prime,
    multiplicative_order,
)
from .spectral import characteristic_roots

#: Gelfond's universal remainder exponent ln 3 / ln 4.
LAMBDA = math.log(3) / math.log(4)


class ExponentReport(NamedTuple):
    m: int
    per_rep: tuple[tuple[int, float], ...]
    alpha: float
    argmax_rep: int | None
    closed_form: float | None
    lam: float
    log2_v: float | None
    bounded: bool = False  # power-of-two modulus: partial sums stay in {0, 1}


def alpha_for_rep(m: int, l: int) -> float:
    """The per-residue exponent; the sine arguments l*2^k are reduced mod m
    as integers, so no argument is ever spoiled for large k."""
    _check_odd_modulus(m)
    if not 1 <= l <= m - 1:
        raise ValueError(f"representative must satisfy 1 <= l <= m-1, got {l}")
    h = multiplicative_order(2, m)
    acc = 0.0
    u = l
    for _ in range(h):
        acc += math.log(abs(math.sin(math.pi * u / m)))
        u = 2 * u % m
    return 1.0 + acc / (h * math.log(2))


def _closed_prime(p: int) -> float:
    """ln p / ((p-1) ln 2): alpha(p) for a prime p with 2 primitive or
    semiprimitive, and the `scan --with-alpha` column."""
    return math.log(p) / ((p - 1) * math.log(2))


def _closed_form(m: int) -> float | None:
    if m % 3 == 0:
        return LAMBDA
    if m <= PRIMALITY_BOUND and is_prime(m):
        cls = classify_prime(m)
        if cls.classification in (PRIMITIVE, SEMIPRIMITIVE):
            return _closed_prime(m)
    return None


def alpha(m: int, full_range: bool = False) -> ExponentReport:
    """Exact exponent for odd m >= 3.

    Evaluates one representative per cyclotomic coset; with full_range=True
    additionally sweeps every l in [1, m-1] (O(m*h) work) and insists the two
    maxima agree to 1e-9.
    """
    dec = cyclotomic_cosets(m)
    per_rep = tuple((rep, alpha_for_rep(m, rep)) for rep in dec.representatives)
    best = max(per_rep, key=lambda item: item[1])
    if full_range:
        full_max = max(alpha_for_rep(m, l) for l in range(1, m))
        if abs(full_max - best[1]) > 1e-9:
            raise ArithmeticError(
                f"representative maximum {best[1]!r} disagrees with full-range "
                f"maximum {full_max!r} for m={m}"
            )
    spectrum = characteristic_roots(dec)
    return ExponentReport(
        m=m,
        per_rep=per_rep,
        alpha=best[1],
        argmax_rep=best[0],
        closed_form=_closed_form(m),
        lam=LAMBDA,
        log2_v=math.log2(spectrum.v),
    )


def alpha_closed_prime(p: int) -> float:
    """ln p / ((p-1) ln 2), valid when 2 is a primitive or semiprimitive root.

    Also validates the sine-product identity
    prod_{l=1}^{p-1} sin(l pi / p) = p / 2^(p-1) (in log space, so large p
    cannot underflow) before returning.
    """
    cls = classify_prime(p)
    if cls.classification not in (PRIMITIVE, SEMIPRIMITIVE):
        raise ValueError(
            f"2 is neither a primitive nor a semiprimitive root of {p} "
            f"(class {cls.classification})"
        )
    log_prod = sum(math.log(math.sin(math.pi * l / p)) for l in range(1, p))
    log_closed = math.log(p) - (p - 1) * math.log(2)
    rel_err = abs(math.expm1(log_prod - log_closed))
    if rel_err > 1e-10:
        raise ArithmeticError(
            f"sine-product identity violated at p={p}: relative error {rel_err:.3e}"
        )
    return _closed_prime(p)


def alpha_even(m: int, full_range: bool = False) -> ExponentReport:
    """Strip factors of 2 (each halving preserves the growth exponent) and
    report on the odd part, as alpha(odd part, full_range) does; a pure power
    of two has bounded partial sums."""
    if m < 2 or m % 2:
        raise ValueError(f"alpha_even needs an even modulus >= 2, got m={m}")
    odd = _odd_part(m)
    if odd == 1:
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
    return alpha(odd, full_range)
