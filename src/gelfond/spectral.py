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
Nothing is rounded.  The products repeat with the period h = ord_m(2) and
pair t with -t, so a pass steps about m/2 products per level only up to the
highest phase v mod h of a set bit v of N, plus about m/2 per set bit, and
one pass serves every N below about 2^490.  One plan of that work, _plan, is
read by the route and by its cost model, explicit_cost_ns.  An even
m = 2^k m' is folded to its odd part by sums._odd_query, and the blocks P_g
are those of sums._set_bits, the split the DP reads too.  Past that shared
front end the route reads only the bits of N, the doubling orbits and the
roots of unity, never the digit DP, so it stays an independent check on it.
The floating-point root spectrum of the same cosets is exponent.alpha's.
"""

from __future__ import annotations

from itertools import accumulate

from .cosets import _effective_roots_mod, _orbits
from .modular import crt_cost, crt_passes
from .sums import _check_query, _odd_query, _set_bits

#: Time of one product of the modular character sum mod one pass's modulus,
#: its list and index work included.  Up to modular.PASS_PRIMES primes a
#: product costs about the same, so explicit_cost_ns counts products per
#: pass.  Random queries with m up to 10^5 and x up to 14265 bits, predicted
#: at 0.1-1.5 s before the prime search was priced (modular.crt_cost), ran
#: in 0.3-1.4 times the prediction on their first call, that search
#: included, on a 2-CPU Xeon with Python 3.11.7 (about 1.5 times slower when
#: the host is in its slow state).
EXPLICIT_STEP_NS = 500


def _character_sum_mod(orbits: list, h: int, phases: list, ks: list, p: int,
                       powers: list) -> int:
    """The blocks v >= 1 of S(m, a, n) mod p, as (1/m) sum_t w^(-ta) F_t(n),
    for one pass of modular.crt_passes: p its modulus, powers[t] = w^t mod p,
    m = len(powers) odd.  phases[s] lists (k, (-1)^s(P), c, d, v even) for
    each set bit v = k h + s of n, with c = (P - a) mod m and
    d = (1 - c - 2^v) mod m, P the bits of n above v; ks lists 0 and every
    k that occurs, ascending.

    F_t(2^v) = prod_{i<v} (1 - w^(t 2^i)) is 0 at t = 0, and two identities
    give every other F_t(2^v) from the first h levels:
      period: F_t(2^(k h + s)) = Z_j^k F_t(2^s), for t in the orbit C_j, since
        2^h == 1 (mod m) and h levels multiply to Z_j
        (cosets._effective_roots_mod);
      mirror: F_{-t}(2^v) = (-1)^v w^(-t (2^v - 1)) F_t(2^v), so the pair
        t, -t contributes F_t(2^v) (w^(t c) + (-1)^v w^(t d)).
    `orbits` holds one orbit of each mirror pair C, -C, and each C = -C; of
    the latter only the first half is stepped, since t 2^(h_j/2) = -t.  So
    about m/2 values of t advance through len(phases) <= h levels, a set bit
    costs one product per t and one per orbit, and nothing is stepped past
    level h.  Z_j^k is formed once per pass for each k of ks, from the last
    one by a power.  Memory: O(m) residues, plus one Z_j^k for every orbit
    kept and every k of ks, which are at most floor(log2 n / h) + 1 and at
    most the number of set bits of n.
    """
    m = len(powers)
    stepped = [o[: len(o) // 2] if o[0] + max(o) == m else o for o in orbits]
    ts = [t for part in stepped for t in part]
    ends = list(accumulate(map(len, stepped)))
    bounds = list(zip([0, *ends], ends))
    roots = _effective_roots_mod(orbits, h, p, powers) if len(ks) > 1 else []
    table, last = {0: [1] * len(roots)}, 0     # table[k][j] = Z_j^k
    for k in ks[1:]:
        table[k] = [y * pow(z, k - last, p) % p for y, z in zip(table[last], roots)]
        last = k
    one_minus = [1 - z for z in powers]
    negated = [-z for z in powers]
    prods, level = [1] * len(ts), ts    # F_t(2^s) and t 2^s mod m, by t
    total = 0
    for s, blocks in enumerate(phases):
        if s:
            prods = [z * one_minus[u] % p for z, u in zip(prods, level)]
            level = [2 * u % m for u in level]
        for k, sign, c, d, even in blocks:
            mirror = powers if even else negated
            vals = [z * (powers[t * c % m] + mirror[t * d % m]) for z, t in zip(prods, ts)]
            if k:
                vals = [y * sum(vals[lo:hi]) for y, (lo, hi) in zip(table[k], bounds)]
            total += sign * sum(vals)
    return total * pow(m, -1, p) % p


def _sum_bits(m: int, x: int) -> int:
    """Bits that bound 2 |S(m, a, x)|: S counts at most ceil(x/m) terms."""
    return (-(-x // m)).bit_length() + 1


def _plan(m: int, a: int, x: int) -> tuple:
    """newman_sum_explicit's work, read by it and by explicit_cost_ns:
    (sign, m', value, phases, ks, h, bits).  sign and m' fold x to
    x' = (x + pad) >> k (sums._odd_query); value is the bit-0 block, the one
    integer P, counted when P == a (mod m'); phases and ks, trailing empty
    phases dropped, are the blocks above it for _character_sum_mod, and
    bits = _sum_bits(m', x') sizes its primes.  h = ord_m'(2) comes from a
    doubling walk cut off at the bit length of x': when the cut stops it,
    every v is below h, so ks = [0] and h, read only for the Z_j, is unread.
    """
    sign, m, a, k, pad = _odd_query(m, a)
    x = (x + pad) >> k
    h, u = 1, 2 % m
    while h < x.bit_length() and u != 1 % m:
        h, u = h + 1, 2 * u % m
    phases = [[] for _ in range(h)]
    value = 0
    for i, prefix, s in _set_bits(m, x):
        c = (prefix - a) % m
        if i:
            phases[i % h].append((i // h, s, c, (1 - c - pow(2, i, m)) % m, i % 2 == 0))
        elif c == 0:
            value = s
    while phases and not phases[-1]:
        phases.pop()
    ks = sorted({0, *(k for blocks in phases for k, *_ in blocks)})
    return sign, m, value, phases, ks, h, _sum_bits(m, x)


def explicit_cost_ns(m: int, a: int, x: int) -> int:
    """Predicted time of newman_sum_explicit(m, a, x), from the levels, set
    bits and periods of its _plan.  A pass steps about m/2 values of t per
    level, counted twice, since each product is also reduced mod the pass's
    modulus.  Each set bit costs one product per stepped t and one per orbit
    kept, which the model puts at m/h + 1, and each period's Z_j^k one per
    orbit.  Each level and set bit also pays about four products of fixed
    overhead, and the power table, the orbits and the Z_j about four m.
    The passes and the first call's prime search are modular.crt_cost's.
    A plan with no phase runs no pass and costs nothing.
    """
    _check_query(m, a, x)
    _, m, _, phases, ks, h, bits = _plan(m, a, x)
    if not phases:
        return 0
    levels, ones = len(phases), sum(map(len, phases))
    products = (m // 2 + 4) * (2 * levels + ones) + (m // h + 1) * (ones + len(ks)) + 4 * m
    passes, search_ns = crt_cost(m, bits)
    return EXPLICIT_STEP_NS * products * passes + search_ns


def newman_sum_explicit(m: int, a: int, x: int) -> int:
    """S(m, a, x) for any m >= 1 via the character average of F_{t/m}(x),
    evaluated exactly mod split primes whose product exceeds 2 |S|, in the
    passes of modular.crt_passes: the bit-0 block of _plan, counted
    directly, plus the blocks above it (see _character_sum_mod)."""
    _check_query(m, a, x)
    sign, m, value, phases, ks, h, bits = _plan(m, a, x)
    if not phases:
        return sign * value
    # one orbit of each mirror pair: C is kept when min C <= min(-C) = m - max C
    orbits = [o for o in _orbits(m) if o[0] + max(o) <= m]
    [rest] = crt_passes(m, bits, lambda modulus, powers: [
        _character_sum_mod(orbits, h, phases, ks, modulus, powers)])
    return sign * (value + rest)
