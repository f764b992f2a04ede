"""Exact character-sum evaluation of Newman-like sums.

For beta = t/m the partial sums factor through

    F_beta(N) = sum_{n < N} (-1)^s(n) e^{2 pi i beta n},

which has a closed form over the binary expansion N = 2^v0 + ... + 2^vs:
each set bit contributes a signed phase times the product
prod_{k < v_g} (1 - e^{2 pi i beta 2^k}).  Averaging F_{t/m} against the
character e^{-2 pi i t a / m} over t recovers S(m, a, N) exactly.

newman_sum_explicit evaluates that average with integer arithmetic only,
in the split-prime passes of modular.crt_passes, with primes enough that the
symmetric residue is the integer by the bound |S(m, a, N)| <= ceil(N/m).
Nothing is rounded.  One pass costs O(m log N) products, and one pass
serves every N below about 2^490.  An even m = 2^k m' is folded to its
odd part in closed form by sums._odd_query, and the blocks P_g are those
of sums._set_bits, the split the DP reads too.  Past that shared front end
the route reads only the bits of N and the roots of unity, never the digit
DP, so it stays an independent check on it.  The floating-point root
spectrum of the same cosets is exponent.alpha's.
"""

from __future__ import annotations

from .modular import PRIME_BITS, crt_passes
from .sums import _check_query, _odd_query, _set_bits

#: Time of one step (one t, one level of x, one split prime) of the modular
#: character sum, measured for m from 1 to 10^5 on a 2-CPU Xeon with
#: Python 3.11.  A pass mod the product of k <= modular.PASS_PRIMES primes
#: costs no more per step than k steps, so the constant stands for the pass.
EXPLICIT_STEP_NS = 250

def _character_sum_mod(m: int, a: int, terms: dict, top: int, p: int, powers: list) -> int:
    """S(m, a, n) mod p as (1/m) sum_t w^(-ta) F_t(n), for one pass of
    modular.crt_passes: p its modulus, powers[t] = w^t mod p.  `terms`
    maps each set bit v of n to (-1)^s(P) and P mod m, P the bits of n above
    v, as _set_bits(m, n) gives them; `top` is n's top bit.  Then
    F_t(n) = sum over v of (-1)^s(P) w^(t P) F_t(2^v).

    All m values of t advance level by level together, so one step is one
    product mod p for each t.
    """
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


def explicit_cost_ns(m: int, x: int) -> int:
    """Predicted time of newman_sum_explicit(m, a, x).

    After the even fold, the passes cost one step per t and per split prime
    for every level of x and again for every set bit: a pass mod the product
    of k primes costs at most k steps per t and level.  Each level also pays
    about four steps of fixed overhead, and the tables about two levels.
    The primes are drawn from just below 2^PRIME_BITS, so each carries at
    least PRIME_BITS - 1 bits, which bounds their count.
    """
    _check_query(m, 0, x)
    _, m, _, k, _ = _odd_query(m, 0)
    x >>= k
    primes = _sum_bits(m, x) // (PRIME_BITS - 1) + 1
    return EXPLICIT_STEP_NS * (m + 4) * (x.bit_length() + x.bit_count() + 2) * primes


def newman_sum_explicit(m: int, a: int, x: int) -> int:
    """S(m, a, x) via the character average of F_{t/m}(x), evaluated exactly
    mod split primes whose product exceeds 2 |S|, in the passes of
    modular.crt_passes.

    Any m >= 1 is accepted: an even m = 2^k m' is folded by the closed form
    S(m, a, x) = (-1)^s(a0) S(m', a >> k, (x + 2^k - 1 - a0) >> k) with
    a0 = a mod 2^k (sums._odd_query), and the character average runs on m'.
    """
    _check_query(m, a, x)
    sign, m, a, k, pad = _odd_query(m, a)
    x = (x + pad) >> k
    if x == 0:
        return 0
    terms = {i: (s, prefix) for i, prefix, s in _set_bits(m, x)}
    [value] = crt_passes(m, _sum_bits(m, x), lambda modulus, powers: [
        _character_sum_mod(m, a, terms, x.bit_length() - 1, modulus, powers)])
    return sign * value
