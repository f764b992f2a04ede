"""Command-line surface: every computation as a subcommand with a
machine-readable JSON envelope (CSV for tabular payloads).

Exit codes: 0 success, 2 input validation, 3 internal cross-check failure.
Integers with magnitude >= 2^53 are serialized as decimal strings so JSON
consumers round-trip them losslessly; exact fractions past the float range
are serialized as "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import empirical as emp
from . import exponent as expo
from .cosets import _odd_part, classify_prime, cyclotomic_cosets, scan_primes
from .recurrence import (
    SingularSystemError,
    coefficients_from_sums,
    coefficients_spectral,
    verify_recurrence,
)
from .spectral import explicit_cost_ns, newman_sum_explicit
from .sums import (
    ENUMERATION_CAP,
    _check_query,
    newman_sum_dp,
    newman_sum_enumerate,
    parity_counts,
)

SCHEMA_VERSION = "1"
BIG_INT = 1 << 53

#: Largest m * bit_length(x) that `sum` (dp, all) and `counts` accept.  The
#: DP costs m * bit_length(x) additions of integers of at most bit_length(x)
#: bits, with O(m) of them live.  At this bound a query took 1.7 s and
#: 225 MiB at m = 2^23 with a 2-bit x, but 8.4 s at m = 1170 with a
#: 4290-digit x, whose additions are wide, on a 2-CPU Xeon with Python 3.11.
MAX_DP_WORK = 1 << 24
#: Largest predicted profile time (empirical.profile_cost_ns) that `empirical`
#: accepts.  Every max_exp <= 32 predicts at most 0.15 s for any m, so only
#: deeper profiles of larger m are refused.  At this bound a run took at most
#: 1.3 s and 30 MiB (m = 3906 at max_exp = 256, m = 25000 at max_exp = 40) on
#: the same machine; the remainder scan picks its cheaper route too and stays
#: under 0.02 s for every m.
MAX_PROFILE_NS = 10**9
#: Largest predicted time (spectral.explicit_cost_ns) that `sum` with
#: `--method explicit` or `all` accepts.  At this bound, m = 17 with a
#: 2381-bit x of all ones took 1.2-1.3 s on the same machine.
MAX_EXPLICIT_NS = 10**9
#: Largest `scan --max` accepted.  The scan's least-factor sieve takes
#: O(limit) time and memory; at this bound a scan took 0.85-1.1 s and about
#: 6 MiB on the same machine.
MAX_SCAN_LIMIT = 10**6

#: Moduli of the published closing table of exponents.
PAPER_TABLE_MODULI = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class CrossCheckError(ArithmeticError):
    """Two supposedly identical computations disagreed."""


def _jsonify(obj, precision: int):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= BIG_INT else obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return round(obj, precision)
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, precision) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v, precision) for k, v in obj.items()}
    return obj


def _ratio(n: int, d: int):
    """n / d (d > 0) as the correctly rounded float, or past the float range
    as the exact reduced "p/q" string."""
    try:
        return n / d
    except OverflowError:
        g = math.gcd(n, d)
        return f"{n // g}/{d // g}"


def _truncate(x: float, digits: int) -> str:
    """Truncation (not rounding) to a fixed number of decimals, as strings."""
    s = f"{x:.{digits + 6}f}"
    point = s.index(".")
    return s[: point + digits + 1]


# ---------------------------------------------------------------- commands


def _cmd_cosets(args):
    dec = cyclotomic_cosets(args.m)
    result = {
        "m": dec.m,
        "r": dec.r,
        "h": dec.h,
        "ord2": dec.ord2,
        "representatives": list(dec.representatives),
        "sizes": list(dec.sizes),
    }
    if args.all_elements:
        result["cosets"] = [list(c) for c in dec.cosets]
    return result


def _alpha_report_payload(report, args):
    result = {
        "m": report.m,
        "alpha": report.alpha,
        "argmax_rep": report.argmax_rep,
        "lambda": report.lam,
        "log2_v": report.log2_v,
        "bounded": report.bounded,
    }
    if args.per_rep:
        result["per_rep"] = [[rep, value] for rep, value in report.per_rep]
    if args.closed_form:
        result["closed_form"] = report.closed_form
    return result


def _cmd_alpha(args):
    if args.m % 2 == 0:
        report = expo.alpha_even(args.m)
        payload = _alpha_report_payload(report, args)
        payload["odd_part"] = report.m
        payload["m"] = args.m
        return payload
    report = expo.alpha(args.m, full_range=args.full_range)
    return _alpha_report_payload(report, args)


def _check_dp_work(m: int, x: int) -> None:
    work = m * x.bit_length()
    if work > MAX_DP_WORK:
        raise ValueError(
            f"m * bit_length(x) = {work} exceeds the digit-DP limit {MAX_DP_WORK}"
        )


def _check_profile_cost(m: int, max_exp: int) -> None:
    cost = emp.profile_cost_ns(m, max_exp)
    if cost > MAX_PROFILE_NS:
        raise ValueError(
            f"predicted profile time {cost} ns exceeds the limit {MAX_PROFILE_NS} ns"
        )


def _check_explicit_cost(m: int, x: int) -> None:
    cost = explicit_cost_ns(m, x)
    if cost > MAX_EXPLICIT_NS:
        raise ValueError(
            f"predicted explicit-sum time {cost} ns exceeds the limit {MAX_EXPLICIT_NS} ns"
        )


def _cmd_sum(args):
    m, a, x = args.m, args.a, args.x
    if args.method in ("dp", "all"):
        _check_dp_work(m, x)
    if args.method in ("explicit", "all"):
        _check_explicit_cost(m, x)
    methods = {}
    skipped = []
    wanted = ["enumerate", "dp", "explicit"] if args.method == "all" else [args.method]
    for name in wanted:
        if name == "enumerate":
            if args.method == "all" and x > ENUMERATION_CAP:
                skipped.append(name)
                continue
            methods[name] = newman_sum_enumerate(m, a, x)
        elif name == "dp":
            methods[name] = newman_sum_dp(m, a, x)
        else:
            methods[name] = newman_sum_explicit(m, a, x)
    values = set(methods.values())
    if len(values) > 1:
        raise CrossCheckError(f"sum methods disagree for ({m},{a},{x}): {methods}")
    result = {"m": m, "a": a, "x": x, "value": values.pop(), "methods": methods}
    if skipped:
        result["skipped"] = skipped
    if args.method == "all":
        result["agree"] = True
    return result


def _cmd_counts(args):
    m, a, x = args.m, args.a, args.x
    _check_dp_work(m, x)
    t_even, t_odd = parity_counts(m, a, x)
    return {
        "m": m,
        "a": a,
        "x": x,
        "t_even": t_even,
        "t_odd": t_odd,
        "count": t_even + t_odd,
        "newman_sum": t_even - t_odd,
        "x_over_2m": _ratio(x, 2 * m),
        "remainder": _ratio(2 * m * t_even - x, 2 * m),
    }


def _cmd_recurrence(args):
    dec = cyclotomic_cosets(args.m)
    spec = coefficients_spectral(dec)
    result = {
        "m": args.m,
        "r": spec.r,
        "h": spec.h,
        "coefficients": list(spec.coefficients),
    }
    try:
        from_sums = coefficients_from_sums(args.m, args.a)
        result["from_sums"] = list(from_sums.coefficients)
        result["methods_agree"] = from_sums.coefficients == spec.coefficients
        if not result["methods_agree"]:
            raise CrossCheckError(
                f"coefficient derivations disagree for m={args.m}: "
                f"{spec.coefficients} vs {from_sums.coefficients}"
            )
    except SingularSystemError as exc:
        result["from_sums"] = None
        result["methods_agree"] = None
        result["finding"] = str(exc)
    report = verify_recurrence(
        spec, args.a, depth=args.depth, multipliers=tuple(args.multipliers)
    )
    result["verification"] = {
        "a": report.a,
        "depth": report.depth,
        "multipliers": list(report.multipliers),
        "checks": report.checks,
        "max_defect": report.max_defect,
    }
    return result


def _cmd_classify(args):
    cls = classify_prime(args.p)
    return {
        "p": cls.p,
        "class": cls.classification,
        "ord2": cls.ord2,
        "minus_one_solvable": cls.minus_one_solvable,
    }


def _cmd_scan(args):
    if args.max > MAX_SCAN_LIMIT:
        raise ValueError(f"scan limit {args.max} exceeds {MAX_SCAN_LIMIT}")
    primes = scan_primes(args.max, args.classification)
    result = {
        "class": args.classification,
        "max": args.max,
        "count": len(primes),
        "primes": primes,
    }
    if args.with_alpha:
        alphas = [expo._closed_prime(p) for p in primes]
        result["alphas"] = alphas
        result["min_alpha"] = min(alphas, default=None)
    return result


def _cmd_table(args):
    rows = []
    for m in PAPER_TABLE_MODULI:
        report = expo.alpha(m)
        if args.compare_mode == "truncate":
            four = _truncate(report.alpha, 4)
        else:
            four = f"{report.alpha:.4f}"
        rows.append({"m": m, "alpha": report.alpha, "alpha_4dec": four})
    return {"set": args.table_set, "compare_mode": args.compare_mode, "rows": rows}


def _cmd_empirical(args):
    _check_query(args.m, args.a, 0)
    _check_profile_cost(args.m, args.max_exp)
    profile = emp.dyadic_profile(args.m, args.a, args.max_exp)
    odd = _odd_part(args.m)
    alpha_ref = expo.alpha(odd).alpha if odd >= 3 else 0.0
    remainder = emp.gelfond_remainder_check(
        args.m, args.a, min(args.max_exp, emp.REMAINDER_MAX_EXP)
    )
    result = {
        "m": args.m,
        "a": args.a,
        "max_exp": args.max_exp,
        "alpha": alpha_ref,
        "remainder": {
            "max_ratio": remainder.max_ratio,
            "argmax_nu": remainder.argmax_nu,
            "monotone_top": remainder.monotone_top,
        },
        "blocks": [[b.nu, b.sup, b.argmax_x] for b in profile.blocks],
    }
    if args.window:
        window = tuple(args.window)
    else:
        window = emp.default_window(args.max_exp, emp._first_nonzero_block(profile))
    if args.window or window[1] - window[0] >= 3:  # a fit needs 4 blocks
        fit = emp.fit_exponent(profile, window)
        result["fit"] = {
            "exponent_estimate": fit.exponent_estimate,
            "intercept": fit.intercept,
            "residual": fit.residual,
            "window": list(fit.window),
        }
    if odd >= 3:
        try:
            env = emp.envelope_check(profile, alpha_ref)
        except ValueError as exc:
            result["envelope"] = {"skipped": str(exc)}
        else:
            result["envelope"] = {
                "calib_end": env.calib_end,
                "upper_c": env.upper_c,
                "upper_violations": [
                    [b.nu, b.sup, b.argmax_x] for b in env.upper_violations
                ],
                "omega_attained": env.omega_attained,
                "omega_margin": env.omega_margin,
            }
    return result, profile


# ------------------------------------------------------------- CSV shaping


def _csv_rows(command, result, profile=None):
    if command == "table":
        header = ["m", "alpha", "alpha_4dec"]
        return header, [[r["m"], r["alpha"], r["alpha_4dec"]] for r in result["rows"]]
    if command == "scan":
        if "alphas" in result:
            return ["p", "alpha"], list(map(list, zip(result["primes"], result["alphas"])))
        return ["p"], [[p] for p in result["primes"]]
    if command == "cosets":
        header = ["representative", "size", "elements"]
        dec = cyclotomic_cosets(result["m"])
        return header, [
            [c[0], len(c), " ".join(map(str, c))] for c in dec.cosets
        ]
    if command == "empirical":
        header = ["nu", "sup", "argmax_x", "log2_sup"]
        rows = []
        for b in profile.blocks:
            log2_sup = math.log2(b.sup) if b.sup > 0 else float("-inf")
            rows.append([b.nu, b.sup, b.argmax_x, log2_sup])
        return header, rows
    raise ValueError(f"command {command!r} has no CSV form")


def _emit_csv(header, rows, precision):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(f"{cell:.{precision}f}" if math.isfinite(cell) else repr(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gelfond",
        description="Newman-like digit sums, coset spectra, recurrences, "
        "and exact remainder exponents.",
    )
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--precision", type=int, default=8,
                        help="decimal digits for real numbers (default 8)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cosets", help="cyclotomic cosets of 2 mod m")
    p.add_argument("m", type=int)
    p.add_argument("--all-elements", action="store_true")

    p = sub.add_parser("alpha", help="exact remainder exponent alpha(m)")
    p.add_argument("m", type=int)
    p.add_argument("--per-rep", action="store_true")
    p.add_argument("--full-range", action="store_true",
                   help="also maximize over every l in [1, m-1] and cross-check")
    p.add_argument("--closed-form", action="store_true")

    p = sub.add_parser("sum", help="Newman-like sum S(m, a, x)")
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.add_argument("x", type=int)
    p.add_argument("--method", choices=["enumerate", "dp", "explicit", "all"],
                   default="dp")

    p = sub.add_parser("counts", help="digit-sum parity counts in the class")
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.add_argument("x", type=int)

    p = sub.add_parser("recurrence", help="integer recurrence coefficients + check")
    p.add_argument("m", type=int)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--multipliers", type=lambda s: [int(v) for v in s.split(",")],
                   default=[1, 3, 5])
    p.add_argument("--a", type=int, default=0)

    p = sub.add_parser("classify", help="primitive/semiprimitive root status of 2")
    p.add_argument("p", type=int)

    p = sub.add_parser("scan", help="scan primes by root classification")
    p.add_argument("--class", dest="classification",
                   choices=["semiprimitive", "primitive"], default="semiprimitive")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--with-alpha", action="store_true")

    p = sub.add_parser("table", help="closing table of exponents")
    p.add_argument("--set", dest="table_set", choices=["paper"], default="paper")
    p.add_argument("--compare-mode", choices=["truncate", "round"], default="truncate")

    p = sub.add_parser("empirical", help="dyadic sup profile, fit, remainder scan")
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.add_argument("--max-exp", type=int, default=20)
    p.add_argument("--window", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--csv", action="store_true", help="emit the profile as CSV")
    return parser


_HANDLERS = {
    "cosets": _cmd_cosets,
    "alpha": _cmd_alpha,
    "sum": _cmd_sum,
    "counts": _cmd_counts,
    "recurrence": _cmd_recurrence,
    "classify": _cmd_classify,
    "scan": _cmd_scan,
    "table": _cmd_table,
    "empirical": _cmd_empirical,
}

_CSV_COMMANDS = {"table", "scan", "cosets", "empirical"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    want_csv = args.format == "csv" or getattr(args, "csv", False)
    if want_csv and args.command not in _CSV_COMMANDS:
        print(f"error: command {args.command!r} has no CSV output", file=sys.stderr)
        return 2
    started = time.perf_counter()
    profile = None
    try:
        out = _HANDLERS[args.command](args)
        if args.command == "empirical":
            result, profile = out
        else:
            result = out
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)

    if want_csv:
        header, rows = _csv_rows(args.command, result, profile)
        sys.stdout.write(_emit_csv(header, rows, args.precision))
        return 0
    inputs = {
        k: v
        for k, v in vars(args).items()
        if k not in {"command", "format", "precision", "csv"} and v is not None
    }
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": _jsonify(inputs, args.precision),
        "result": _jsonify(result, args.precision),
        "timing_ms": elapsed_ms,
    }
    print(json.dumps(envelope, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
