"""The four workloads: each a fixed list of operations drawn from a seed.

An operation is one call into gelfond (or one CLI invocation) plus the check
its output must pass.  Every round of a run repeats the same list, so the
share of failed operations is the same in every run, whatever the seed.
Sizes are chosen so that the cost of a round hardly depends on the seed:
moduli are drawn from narrow ranges and x has a fixed bit length.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import gelfond as G
import gelfond.cli as gcli

import reference as R
from reference import expect

@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # a known fault: the class name of the exception it raises, or the message
    # of the check its output is known to fail
    expect_error: str | None = None


class CliError(RuntimeError):
    """A CLI call exited non-zero or printed a malformed envelope."""


class CliRunner:
    """Runs CLI calls in-process or as subprocesses and totals their cost."""

    def __init__(self, subprocess_call=None):
        self.subprocess_call = subprocess_call  # argv -> (code, stdout, wall_s)
        self.reset()

    def reset(self):
        self.calls = 0
        self.compute_s = 0.0
        self.overhead_s = 0.0

    def __call__(self, argv):
        argv = [str(v) for v in argv]
        if self.subprocess_call is None:
            buf = io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(buf):
                code = gcli.main(argv)
            wall = time.perf_counter() - start
            out = buf.getvalue()
        else:
            code, out, wall = self.subprocess_call(argv)
        if code != 0:
            raise CliError(f"gelfond {' '.join(argv)} exited {code}")
        csv_mode = "csv" in argv or "--csv" in argv
        if csv_mode:
            compute = 0.0
            result = [row for row in csv.reader(io.StringIO(out))]
        else:
            env = json.loads(out)
            for key in ("schema_version", "command", "inputs", "result", "timing_ms"):
                if key not in env:
                    raise CliError(f"gelfond {' '.join(argv)}: envelope lacks {key!r}")
            compute = env["timing_ms"] / 1000
            result = env["result"]
        self.calls += 1
        self.compute_s += compute
        self.overhead_s += wall - compute
        return result


# ---------------------------------------------------------------- helpers


def _bits(rng, n):
    return rng.getrandbits(n) | (1 << (n - 1))


def _query(rng, m_lo, m_hi, x):
    """(m, a, x) with m drawn from [m_lo, m_hi) and a residue mod m."""
    m = rng.randrange(m_lo, m_hi)
    return m, rng.randrange(m), x


def _sum_op(m, a, x, fn_name):
    def check(value):
        expect(value == R.newman_sum(m, a, x), f"{fn_name}({m},{a},<{x.bit_length()} bits>)")
        if x < 1 << 17:
            expect(value == R.enumerate_sum(m, a, x), f"{fn_name} vs enumeration")

    return Op(f"{fn_name}({m},{a},{x.bit_length()}b)",
              lambda: getattr(G, fn_name)(m, a, x), check)


def _counts_op(m, a, x):
    def check(pc):
        expect(pc.t_even - pc.t_odd == R.newman_sum(m, a, x), "t_even - t_odd != S")
        expect(pc.t_even + pc.t_odd == R.class_count(m, a, x), "t_even + t_odd != class size")

    return Op(f"parity_counts({m},{a},{x.bit_length()}b)",
              lambda: G.parity_counts(m, a, x), check)


def _spec_check(m, residues, depth=2):
    def check(spec):
        dec = R.cosets(m)
        expect((spec.m, spec.r, spec.h) == (m, len(dec), R.order_of_two(m)), f"spec shape m={m}")
        if m == 17:
            expect(spec.coefficients == R.M17_COEFFICIENTS, "m=17 coefficients")
        for a in residues:
            R.check_recurrence(spec.coefficients, m, a, spec.h, depth)

    return check


def _spectral_op(m, residues):
    return Op(f"coefficients_spectral({m})",
              lambda: G.coefficients_spectral(G.cyclotomic_cosets(m)), _spec_check(m, residues))


def _from_sums_op(m, a, expect_error=None):
    spectral = {}

    def check(spec):
        _spec_check(m, (a,))(spec)
        if "c" not in spectral:  # outside the timed region: the other route
            spectral["c"] = G.coefficients_spectral(G.cyclotomic_cosets(m)).coefficients
        expect(spec.coefficients == spectral["c"], f"routes disagree for m={m}, a={a}")

    return Op(f"coefficients_from_sums({m},{a})", lambda: G.coefficients_from_sums(m, a),
              check, expect_error)


def _verify_op(m, a, depth, multipliers):
    def run():
        spec = G.coefficients_spectral(G.cyclotomic_cosets(m))
        return spec.coefficients, G.verify_recurrence(spec, a, depth, multipliers)

    def check(value):
        coeffs, report = value
        expect(report.max_defect == 0, f"verify_recurrence defect for m={m}")
        expect((report.m, report.a, report.depth, report.multipliers)
               == (m, a, depth, multipliers), "verification inputs echoed wrongly")
        expect(report.checks == depth + 1 + len(multipliers), "verification check count")
        R.check_recurrence(coeffs, m, a, R.order_of_two(m), 1)

    return Op(f"verify_recurrence({m},{a},depth={depth})", run, check)


def _alpha_op(m, full_range=False):
    def check(rep):
        expect(rep.m == m, "alpha report modulus")
        R.check_alpha(m, rep.alpha, rep.log2_v)
        expect(len(rep.per_rep) == len(R.cosets(m)), f"alpha({m}) representative count")

    return Op(f"alpha({m}{', full_range' if full_range else ''})",
              lambda: G.alpha(m, full_range=full_range), check)


def _remainder_op(m, a, max_exp):
    def check(rc):
        expect((rc.m, rc.a, rc.max_exp) == (m, a, max_exp), "remainder inputs")
        levels = R.dyadic_sums(m, a, max_exp)
        for nu, ratio in enumerate(rc.ratios, start=1):
            x = 1 << nu
            t_even = (R.class_count(m, a, x) + levels[nu]) // 2
            want = abs(2 * m * t_even - x) / (2 * m * x**R.LAMBDA)
            expect(abs(ratio - want) <= 1e-12 * max(1.0, want), f"remainder ratio at nu={nu}")
        expect(rc.max_ratio == max(rc.ratios), "max_ratio")

    return Op(f"gelfond_remainder_check({m},{a},{max_exp})",
              lambda: G.gelfond_remainder_check(m, a, max_exp), check)


def _profile_ops(m, a, nu, alpha_value, brute_to, envelope_fault=False):
    """dyadic_profile, then the fit and envelope read from it."""
    holder = {}

    def profile():
        holder["p"] = G.dyadic_profile(m, a, nu)
        return holder["p"]

    def check_profile(p):
        expect((p.m, p.a, p.max_exp) == (m, a, nu), "profile inputs")
        expect(list(p.boundary_sums) == R.dyadic_sums(m, a, nu), "boundary sums S(2^nu)")
        if m == 3 and a == 0:
            expect(list(p.boundary_sums) == [R.m3_dyadic(k) for k in range(nu + 1)],
                   "m=3 closed form")
        R.check_blocks(m, a, p.blocks, brute_to)

    def check_fit(fit):
        lo, hi = fit.window
        blocks = [b for b in holder["p"].blocks if lo <= b.nu <= hi]
        slope, intercept = R.least_squares([b.nu for b in blocks],
                                           [math.log2(b.sup) for b in blocks])
        expect(abs(fit.exponent_estimate - slope) <= 1e-9, "fit slope")
        expect(abs(fit.intercept - intercept) <= 1e-8, "fit intercept")
        expect(abs(fit.exponent_estimate - alpha_value) <= 0.1, "fit far from alpha")

    violations = f"envelope upper violations for ({m},{a})"

    def check_envelope(env):
        expect((env.m, env.a) == (m, a), "envelope inputs")
        expect(env.omega_attained, f"Omega not attained for ({m},{a})")
        expect(not env.upper_violations, violations)

    return [
        Op(f"dyadic_profile({m},{a},{nu})", profile, check_profile),
        Op(f"fit_exponent({m},{a},{nu})", lambda: G.fit_exponent(holder["p"]), check_fit),
        Op(f"envelope_check({m},{a},{nu})",
           lambda: G.envelope_check(holder["p"], G.alpha(m).alpha), check_envelope,
           violations if envelope_fault else None),
    ]


# -------------------------------------------------------------- CLI checks


def _check_cli_sum(m, a, x):
    def check(res):
        expect((res["m"], res["a"], int(res["x"])) == (m, a, x), "cli sum inputs")
        expect(int(res["value"]) == R.newman_sum(m, a, x), "cli sum value")
        expect(all(int(v) == int(res["value"]) for v in res["methods"].values()), "cli methods")

    return check


def _check_cli_counts(m, a, x):
    def check(res):
        s = R.newman_sum(m, a, x)
        n = R.class_count(m, a, x)
        expect((res["m"], res["a"], int(res["x"])) == (m, a, x), "cli counts inputs")
        expect(int(res["t_even"]) - int(res["t_odd"]) == s, "cli counts difference")
        expect(int(res["count"]) == n, "cli class count")

    return check


def _check_cli_cosets(m):
    def check(res):
        dec = R.cosets(m)
        expect((res["m"], res["r"]) == (m, len(dec)), "cli cosets inputs")
        expect(res["representatives"] == [c[0] for c in dec], "cli coset representatives")
        expect(res["sizes"] == [len(c) for c in dec], "cli coset sizes")
        expect(res["h"] == R.order_of_two(m), "cli h")
        if "cosets" in res:
            expect(res["cosets"] == dec, "cli coset elements")

    return check


def _check_cli_cosets_csv(m):
    def check(rows):
        dec = R.cosets(m)
        expect(rows[0] == ["representative", "size", "elements"], "cosets csv header")
        expect([[int(r[0]), int(r[1]), [int(v) for v in r[2].split()]] for r in rows[1:]]
               == [[c[0], len(c), c] for c in dec], "cosets csv rows")

    return check


def _check_cli_alpha(m):
    def check(res):
        odd = m
        while odd % 2 == 0:
            odd //= 2
        expect(res["m"] == m, "cli alpha modulus")
        R.check_alpha(odd, res["alpha"], res["log2_v"], tol=1e-7)
        closed = R.closed_alpha(odd)
        if "closed_form" in res:
            expect((res["closed_form"] is None) == (closed is None), "cli closed form presence")

    return check


def _check_cli_recurrence(m, a, depth, multipliers):
    def check(res):
        coeffs = tuple(int(c) for c in res["coefficients"])
        expect((res["m"], res["r"], res["h"]) == (m, len(R.cosets(m)), R.order_of_two(m)),
               "cli recurrence shape")
        if m == 17:
            expect(coeffs == R.M17_COEFFICIENTS, "cli m=17 coefficients")
        R.check_recurrence(coeffs, m, a, R.order_of_two(m), 1)
        if res["from_sums"] is not None:
            expect(tuple(int(c) for c in res["from_sums"]) == coeffs, "cli routes disagree")
        else:
            expect("singular" in res["finding"], "cli singular finding")
        v = res["verification"]
        expect(v["max_defect"] == 0 and v["checks"] == depth + 1 + len(multipliers),
               "cli verification")

    return check


def _check_cli_classify(p):
    def check(res):
        expect(res["p"] == p and res["class"] == R.prime_class(p), f"cli class of {p}")
        expect(res["ord2"] == R.order_of_two(p), f"cli ord2 of {p}")

    return check


def _check_cli_scan(cls, limit, with_alpha=False, as_csv=False):
    def check(res):
        want = [p for p in R.odd_primes_upto(limit) if R.prime_class(p) == cls]
        if as_csv:
            expect(res[0][0] == "p", "scan csv header")
            got = [int(r[0]) for r in res[1:]]
        else:
            got = res["primes"]
            expect((res["class"], res["max"], res["count"]) == (cls, limit, len(want)),
                   "scan inputs and count")
            if with_alpha:
                for p, value in zip(got, res["alphas"]):
                    expect(abs(value - R.closed_alpha(p)) <= 1e-7, f"scan alpha of {p}")
        expect(got == want, f"scan {cls} <= {limit}")

    return check


def _check_cli_table(as_csv=False):
    def check(res):
        if as_csv:
            expect(res[0] == ["m", "alpha", "alpha_4dec"], "table csv header")
            got = {int(r[0]): r[2] for r in res[1:]}
        else:
            got = {row["m"]: row["alpha_4dec"] for row in res["rows"]}
        expect(got == R.PAPER_ALPHA_4DEC, "paper table")

    return check


def _check_cli_empirical(m, a, max_exp, as_csv=False):
    def check(res):
        if as_csv:
            expect(res[0] == ["nu", "sup", "argmax_x", "log2_sup"], "empirical csv header")
            blocks = [(int(r[0]), int(r[1]), int(r[2])) for r in res[1:]]
        else:
            blocks = [tuple(b) for b in res["blocks"]]
            expect((res["m"], res["a"], res["max_exp"]) == (m, a, max_exp), "empirical inputs")
            R.check_alpha(m, res["alpha"], None, tol=1e-7)
            env = res["envelope"]
            expect(not env["upper_violations"] and env["omega_attained"], "cli envelope")
        expect(len(blocks) == max_exp, "empirical block count")
        R.check_blocks(m, a, blocks, min(max_exp, 14))

    return check


def _cli_op(cli, argv, check):
    return Op("gelfond " + " ".join(map(str, argv)), lambda: cli(argv), check)


# ------------------------------------------------------------ workloads


def exact_dyadic(rng, tiny, cli):
    """The exact integer engine: a few large DP queries next to many small ones."""
    big = 160 if tiny else 1000
    ops = [
        _sum_op(*_query(rng, 995, 1010, _bits(rng, big)), "newman_sum_dp"),
        _counts_op(*_query(rng, 995, 1010, _bits(rng, big))),
        _sum_op(*_query(rng, 3990, 4010, _bits(rng, big // 4)), "newman_sum_dp"),
        _sum_op(*_query(rng, 3, 60, rng.randrange(1 << 16, 1 << 17)), "newman_sum_dp"),
    ]
    for m in (17, 23, 41, 47, 89):  # no residue of these gives a singular system
        ops.append(_from_sums_op(m, rng.randrange(m)))
    # Known fault: the fixed r x r system is singular when roots coincide
    # (m = 15) or a residue misses a root ((27, 26), (127, 1)); a minimal
    # recurrence exists in each case.  These inputs do not depend on the seed.
    for m, a in ((15, 0), (27, 26), (127, 1)):
        ops.append(_from_sums_op(m, a, expect_error="SingularSystemError"))
    for m in (17, 31, 73, 127):
        ops.append(_verify_op(m, rng.randrange(m), 4 if tiny else 8, (1, 3, 5)))
    ops.append(_sum_op(31, rng.randrange(31), _bits(rng, 80), "newman_sum_explicit"))
    ops.append(_sum_op(63, rng.randrange(63), _bits(rng, 60 if tiny else 200),
                       "newman_sum_explicit"))
    for m in (5, 73):
        ops.append(_remainder_op(m, rng.randrange(m), 28))
    for m in (17, 127, 255):
        ops.append(_alpha_op(m))
    s = _query(rng, 295, 310, _bits(rng, 150 if tiny else 600))
    ops.append(_cli_op(cli, ["sum", *s, "--method", "dp"], _check_cli_sum(*s)))
    ops.append(_cli_op(cli, ["recurrence", 17], _check_cli_recurrence(17, 0, 8, (1, 3, 5))))
    return ops


def spectrum(rng, tiny, cli):
    """Number theory and spectra: many small primes next to a few huge moduli."""
    limit = 3000 if tiny else 20000
    primes = R.odd_primes_upto(100000)
    picked = rng.sample([p for p in primes if p > 20000], 10 if tiny else 60)

    def classify_all():
        return [G.classify_prime(p) for p in picked]

    def check_classes(results):
        for p, c in zip(picked, results):
            expect(c.p == p and c.classification == R.prime_class(p), f"class of {p}")
            expect(c.ord2 == R.order_of_two(p), f"ord2 of {p}")

    full_pool = [p for p in primes if (300 if tiny else 1000) < p < (360 if tiny else 1100)
                 and R.prime_class(p) == "primitive"]
    scan_check = _check_cli_scan("primitive", limit)
    ops = [
        Op(f"scan_primes({limit}, primitive)", lambda: G.scan_primes(limit, G.PRIMITIVE),
           lambda got: scan_check({"class": "primitive", "max": limit, "count": len(got),
                                   "primes": got})),
        _cli_op(cli, ["scan", "--class", "semiprimitive", "--max", limit],
                _check_cli_scan("semiprimitive", limit)),
        Op(f"classify_prime x{len(picked)}", classify_all, check_classes),
        _alpha_op(4099 if tiny else 65537),
        _alpha_op(rng.choice(full_pool), full_range=True),
        _cli_op(cli, ["table", "--set", "paper"], _check_cli_table()),
    ]
    for m in (17, 31, 73, 127, 255, rng.randrange(33, 99, 2)):
        ops.append(_spectral_op(m, (rng.randrange(m),)))
    for m in (5, 17, 43):
        ops.append(_sum_op(m, rng.randrange(m), rng.randrange(1 << 15, 1 << 16),
                           "newman_sum_explicit"))
    ops.append(_profile_ops(3, 0, 16, R.LAMBDA, 16)[0])  # the profile alone, brute-forced
    return ops


def profiles(rng, tiny, cli):
    """Dyadic sup profiles through the chunked scan, then fits and envelopes."""
    top = 22 if tiny else 26
    # (3, 0) always, so the m = 3 closed form is checked on every run.  Every
    # residue of these moduli passes envelope_check at these depths; m = 17
    # does not at nu = 22 (residues 14 and 15), so the tiny size leaves it out.
    slots = [(3, 0, top), (5, rng.randrange(5), top),
             (7, rng.randrange(7), top), (9, rng.randrange(9), top - 1),
             (rng.choice((19,) if tiny else (17, 19)), None, top)]
    ops = []
    for m, a, nu in slots:
        a = rng.randrange(m) if a is None else a
        ops.extend(_profile_ops(m, a, nu, R.alpha_max(m), 14))
        ops.append(_spectral_op(m, (a,)))
        ops.append(_remainder_op(m, a, min(nu, 28)))
    # Known fault: envelope_check calibrates its upper constant over blocks
    # nu <= max(nu//2, h+2), too few for the sup oscillation of (17, 14), and
    # reports an upper violation at nu = 13.  The input does not depend on the
    # seed; the residues that fail on other moduli do, so they stay out of the
    # seeded slots above.
    ops.extend(_profile_ops(17, 14, 22, R.alpha_max(17), 14, envelope_fault=True))
    a3, depth = rng.randrange(3), 14 if tiny else 22
    ops.append(_cli_op(cli, ["empirical", 3, a3, "--max-exp", depth],
                       _check_cli_empirical(3, a3, depth)))
    return ops


def cli_session(rng, tiny, cli):
    """About 25 short CLI calls covering every subcommand, README-sized."""
    m1 = rng.randrange(15, 99, 2)
    m2 = rng.randrange(101, 199, 2)
    table_m = rng.choice(sorted(R.PAPER_ALPHA_4DEC))
    even_m = rng.randrange(3, 99, 2) << rng.randrange(1, 4)
    s1 = _query(rng, 3, 40, rng.randrange(1 << 16, 1 << 17))
    s2 = _query(rng, 3, 200, _bits(rng, 200))
    s3 = _query(rng, 3, 40, rng.randrange(1 << 19, 1 << 20))
    c1 = _query(rng, 3, 40, _bits(rng, 64))
    rec_m = rng.choice((23, 41, 47))
    rec_a = rng.randrange(rec_m)
    small_primes = R.odd_primes_upto(5000)
    p1, p2 = rng.sample(small_primes, 2)
    emp_a = rng.randrange(3)
    emp2 = rng.choice((5, 7, 9))
    emp2_a = rng.randrange(emp2)
    max_exp = 14 if tiny else 20
    calls = [
        (["cosets", m1, "--all-elements"], _check_cli_cosets(m1)),
        (["--format", "csv", "cosets", m2], _check_cli_cosets_csv(m2)),
        (["cosets", 15], _check_cli_cosets(15)),
        (["alpha", table_m, "--per-rep", "--closed-form"], _check_cli_alpha(table_m)),
        (["alpha", m1, "--full-range"], _check_cli_alpha(m1)),
        (["alpha", even_m], _check_cli_alpha(even_m)),
        (["alpha", 17, "--per-rep", "--closed-form"], _check_cli_alpha(17)),
        (["sum", *s1, "--method", "all"], _check_cli_sum(*s1)),
        (["sum", *s2, "--method", "dp"], _check_cli_sum(*s2)),
        (["sum", *s3, "--method", "explicit"], _check_cli_sum(*s3)),
        (["sum", 17, 0, 131072, "--method", "all"], _check_cli_sum(17, 0, 131072)),
        (["counts", *c1], _check_cli_counts(*c1)),
        (["counts", 3, 2, 16], _check_cli_counts(3, 2, 16)),
        (["recurrence", 17], _check_cli_recurrence(17, 0, 8, (1, 3, 5))),
        (["recurrence", rec_m, "--depth", 6, "--multipliers", "1,3", "--a", rec_a],
         _check_cli_recurrence(rec_m, rec_a, 6, (1, 3))),
        (["recurrence", 15], _check_cli_recurrence(15, 0, 8, (1, 3, 5))),
        (["classify", p1], _check_cli_classify(p1)),
        (["classify", p2], _check_cli_classify(p2)),
        (["scan", "--class", "semiprimitive", "--max", 263],
         _check_cli_scan("semiprimitive", 263)),
        (["scan", "--class", "primitive", "--max", 1000, "--with-alpha"],
         _check_cli_scan("primitive", 1000, with_alpha=True)),
        (["--format", "csv", "scan", "--class", "primitive", "--max", 500],
         _check_cli_scan("primitive", 500, as_csv=True)),
        (["table", "--set", "paper"], _check_cli_table()),
        (["--format", "csv", "table"], _check_cli_table(as_csv=True)),
        (["empirical", 3, emp_a, "--max-exp", max_exp],
         _check_cli_empirical(3, emp_a, max_exp)),
        (["empirical", emp2, emp2_a, "--max-exp", max_exp - 2, "--csv"],
         _check_cli_empirical(emp2, emp2_a, max_exp - 2, as_csv=True)),
    ]
    return [_cli_op(cli, argv, check) for argv, check in calls]


OPERATION_LISTS = {"exact-dyadic": exact_dyadic, "spectrum": spectrum,
                   "profiles": profiles, "cli-session": cli_session}
WORKLOADS = tuple(OPERATION_LISTS)


def build(workload: str, seed: int, tiny: bool, cli: CliRunner) -> list[Op]:
    """The operation list of one workload; the same seed gives the same list."""
    return OPERATION_LISTS[workload](random.Random(f"{workload}:{seed}"), tiny, cli)
