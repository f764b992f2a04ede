"""Reference values the benchmark checks gelfond's outputs against.

Everything here is written independently of the package: a streaming
signed digit DP in O(m) live integers, brute-force enumeration for small
x, a sieve, ord_p(2) from the factorisation of p - 1, and the paper's
published values.  Nothing is a stored copy of gelfond's own output.
"""

from __future__ import annotations

import math

LAMBDA = math.log(3) / math.log(4)

#: alpha(m) truncated to four decimals, as published in the paper's closing table.
PAPER_ALPHA_4DEC = {
    3: "0.7924", 5: "0.5804", 7: "0.4678", 11: "0.3459", 13: "0.3083",
    17: "0.6332", 19: "0.2359", 23: "0.2056", 29: "0.1734", 31: "0.6358",
    37: "0.1447", 41: "0.4339", 43: "0.6337", 47: "0.1207",
}

#: The paper's worked example: S(17, a, 2^(n+17)) - 34 S(2^(n+9)) + 17 S(2^(n+1)) = 0.
M17_COEFFICIENTS = (-34, 17)


class CheckError(AssertionError):
    """An output disagreed with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ------------------------------------------------------------ digit sums


def newman_sum(m: int, a: int, x: int) -> int:
    """S(m, a, x), scanning the bits of x least significant first.

    D[c] = sum of (-1)^s(y) over y < 2^i with y == c (mod m); each set bit i
    of x contributes the block of n that agree with x above bit i, have bit
    i clear, and are free below it.
    """
    d = [0] * m
    d[0] = 1
    total = 0
    pw = 1 % m
    for i in range(x.bit_length()):
        if (x >> i) & 1:
            head = (x >> (i + 1)) << (i + 1)
            term = d[(a - head) % m]
            total += -term if (head.bit_count() & 1) else term
        d = [d[c] - d[c - pw] for c in range(m)]
        pw = 2 * pw % m
    return total


def dyadic_sums(m: int, a: int, n_max: int) -> list[int]:
    """[S(m, a, 2^n) for n = 0 .. n_max] in one pass of the same DP."""
    d = [0] * m
    d[0] = 1
    out = [d[a]]
    pw = 1 % m
    for _ in range(n_max):
        d = [d[c] - d[c - pw] for c in range(m)]
        pw = 2 * pw % m
        out.append(d[a])
    return out


def enumerate_sum(m: int, a: int, x: int) -> int:
    """S(m, a, x) by walking every n < x in the class (small x only)."""
    return sum(-1 if n.bit_count() & 1 else 1 for n in range(a, x, m))


def class_count(m: int, a: int, x: int) -> int:
    """#{0 <= n < x : n == a (mod m)}."""
    return (x - a + m - 1) // m if x > a else 0


def m3_dyadic(nu: int) -> int:
    """S(3, 0, 2^nu): 3^((nu-1)/2) for odd nu, 2 * 3^((nu-2)/2) for even nu >= 2."""
    if nu == 0:
        return 1
    return 3 ** ((nu - 1) // 2) if nu % 2 else 2 * 3 ** ((nu - 2) // 2)


def check_recurrence(coeffs, m: int, a: int, h: int, depth: int) -> None:
    """The offset identity on the exact sequence, offsets n = 0 .. depth."""
    r = len(coeffs)
    seq = dyadic_sums(m, a, depth + r * h + 1)
    for n in range(depth + 1):
        defect = seq[n + r * h + 1] + sum(
            c * seq[n + (r - q) * h + 1] for q, c in enumerate(coeffs, start=1)
        )
        expect(defect == 0, f"recurrence {coeffs} fails for m={m}, a={a} at n={n}")


# ---------------------------------------------------------- number theory


def odd_primes_upto(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(3, limit + 1, 2) if sieve[p]]


def prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def order_of_two(m: int) -> int:
    """ord_m(2) for odd m: start from the exponent of (Z/mZ)^* (the lcm of
    phi(q^k) over the prime powers of m, which is p - 1 for a prime) and
    strip each prime factor while 2 stays a root of unity, by pow checks."""
    exponent = 1
    n = m
    for q in prime_factors(m):
        k = 0
        while n % q == 0:
            n //= q
            k += 1
        exponent = math.lcm(exponent, (q - 1) * q ** (k - 1))
    order = exponent
    for q in prime_factors(exponent):
        while order % q == 0 and pow(2, order // q, m) == 1:
            order //= q
    return order


def prime_class(p: int) -> str:
    """'primitive', 'semiprimitive' or 'neither' for an odd prime p."""
    d = order_of_two(p)
    if d == p - 1:
        return "primitive"
    # -1 is the unique element of order 2, so it lies in <2> iff |<2>| is even
    if 2 * d == p - 1 and d % 2 == 1:
        return "semiprimitive"
    return "neither"


def cosets(m: int) -> list[list[int]]:
    """Orbits of t -> 2t (mod m) on 1 .. m-1, by smallest element."""
    seen = set()
    out = []
    for t in range(1, m):
        if t in seen:
            continue
        orbit = [t]
        u = 2 * t % m
        while u != t:
            orbit.append(u)
            u = 2 * u % m
        seen.update(orbit)
        out.append(orbit)
    return out


def alpha_max(m: int) -> float:
    """max over coset representatives of 1 + sum log|sin(pi l 2^k/m)| / (h ln 2)."""
    best = -math.inf
    for orbit in cosets(m):
        h = len(orbit)
        s = math.fsum(math.log(abs(math.sin(math.pi * u / m))) for u in orbit)
        best = max(best, 1.0 + s / (h * math.log(2)))
    return best


def closed_alpha(m: int) -> float | None:
    """ln3/ln4 when 3 | m; ln p/((p-1) ln 2) for a prime with 2 (semi)primitive."""
    if m % 3 == 0:
        return LAMBDA
    if m > 2 and prime_factors(m) == [m] and prime_class(m) != "neither":
        return math.log(m) / ((m - 1) * math.log(2))
    return None


def truncate4(x: float) -> str:
    s = f"{x:.10f}"
    return s[: s.index(".") + 5]


def check_alpha(m: int, value: float, log2_v: float | None, tol: float = 1e-9) -> None:
    """alpha <= ln3/ln4, alpha = log2 v, the closed form where one exists and
    the coset maximum; `tol` allows for values the CLI rounded to 8 decimals."""
    expect(value <= LAMBDA + tol, f"alpha({m}) = {value} exceeds ln3/ln4")
    if log2_v is not None:
        expect(abs(value - log2_v) <= tol, f"alpha({m}) = {value} but log2 v = {log2_v}")
    closed = closed_alpha(m)
    if closed is not None:
        expect(abs(value - closed) <= tol, f"alpha({m}) = {value}, closed form {closed}")
    expect(abs(value - alpha_max(m)) <= tol, f"alpha({m}) = {value} vs coset maximum")
    if m in PAPER_ALPHA_4DEC:
        expect(truncate4(value) == PAPER_ALPHA_4DEC[m], f"alpha({m}) = {value} vs paper")


# --------------------------------------------------------------- profiles


def block_sups(m: int, a: int, max_exp: int) -> list[tuple[int, int, int]]:
    """(nu, sup |S(x)|, first argmax x) over x in [2^(nu-1), 2^nu), by walking n."""
    out = []
    running = 1 if a == 0 else 0  # S(1)
    x = 1
    for nu in range(1, max_exp + 1):
        hi = 1 << nu
        sup, arg = abs(running), x
        while x < hi:
            # S(x + 1) = S(x) + term for n = x
            if x % m == a:
                running += -1 if x.bit_count() & 1 else 1
            x += 1
            if x < hi and abs(running) > sup:
                sup, arg = abs(running), x
        out.append((nu, sup, arg))
    return out


def check_blocks(m: int, a: int, blocks, brute_to: int) -> None:
    """Each sup is attained at its argmax; blocks nu <= brute_to are exact."""
    for nu, sup, arg in blocks:
        expect((1 << (nu - 1)) <= arg < (1 << nu), f"argmax {arg} outside block {nu}")
        expect(abs(newman_sum(m, a, arg)) == sup, f"|S({m},{a},{arg})| != sup at nu={nu}")
    shallow = [tuple(b) for b in blocks if b[0] <= brute_to]
    expect(shallow == block_sups(m, a, len(shallow)), f"block sups for ({m},{a}) differ")


def least_squares(xs, ys) -> tuple[float, float]:
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx
