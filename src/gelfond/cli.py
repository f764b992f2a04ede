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

from . import cosets, recurrence, spectral, sums
from . import empirical as emp
from . import exponent as expo

SCHEMA_VERSION = "1"
BIG_INT = 1 << 53

#: Largest number of DP cells that `sum` (dp, all) and `counts` accept.  The
#: DP folds m to its odd part m' = m >> k, k = v2(m), and x to x >> k, then
#: costs m' * bit_length(x >> k) additions of integers of at most
#: bit_length(x) bits, with O(m') of them live.  At this bound a query took
#: 3.2 s and 22 MiB at m = 1173 with a 4300-digit x (the longest the CLI
#: parses), whose additions are wide, and 0.3 s and 207 MiB at m = 2^23 - 1
#: with a 2-bit x, on a 2-CPU Xeon with Python 3.11.
MAX_DP_WORK = 1 << 24
#: Largest predicted profile time (empirical.profile_cost_ns) that `empirical`
#: accepts.  Every max_exp <= 32 predicts at most 0.12 s for any m, so only
#: deeper profiles of larger m are refused.  At this bound a run took at most
#: 1.1 s and 25 MiB (m = 6510 at max_exp = 256, m = 41666 at max_exp = 40) on
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
    dec = cosets.cyclotomic_cosets(args.m)
    result = {
        "m": dec.m,
        "r": dec.r,
        "h": dec.h,
        "ord2": dec.ord2,
        "representatives": list(dec.representatives),
        "sizes": list(dec.sizes),
    }
    if args.all_elements or args.format == "csv":  # the CSV rows are the cosets
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
    report = expo.alpha(args.m, full_range=args.full_range)
    payload = _alpha_report_payload(report, args)
    if report.m != args.m:  # the report describes the odd part
        payload["odd_part"] = report.m
        payload["m"] = args.m
    return payload


def _check_dp_work(m: int, x: int) -> None:
    _, odd, _, k, _ = sums._odd_query(m, 0)  # m >= 1, checked by the caller
    work = odd * (x >> k).bit_length()
    if work > MAX_DP_WORK:
        raise ValueError(
            f"odd part of m times bit_length(x >> v2(m)) = {work} exceeds "
            f"the digit-DP limit {MAX_DP_WORK}"
        )


def _check_profile_cost(m: int, max_exp: int) -> None:
    cost = emp.profile_cost_ns(m, max_exp)
    if cost > MAX_PROFILE_NS:
        raise ValueError(
            f"predicted profile time {cost} ns exceeds the limit {MAX_PROFILE_NS} ns"
        )


def _check_explicit_cost(m: int, x: int) -> None:
    cost = spectral.explicit_cost_ns(m, x)
    if cost > MAX_EXPLICIT_NS:
        raise ValueError(
            f"predicted explicit-sum time {cost} ns exceeds the limit {MAX_EXPLICIT_NS} ns"
        )


def _cmd_sum(args):
    m, a, x = args.m, args.a, args.x
    sums._check_query(m, a, x)
    if args.method in ("dp", "all"):
        _check_dp_work(m, x)
    if args.method in ("explicit", "all"):
        _check_explicit_cost(m, x)
    methods = {}
    skipped = []
    wanted = ["enumerate", "dp", "explicit"] if args.method == "all" else [args.method]
    for name in wanted:
        if name == "enumerate":
            if args.method == "all" and x > sums.ENUMERATION_CAP:
                skipped.append(name)
                continue
            methods[name] = sums.newman_sum_enumerate(m, a, x)
        elif name == "dp":
            methods[name] = sums.newman_sum_dp(m, a, x)
        else:
            methods[name] = spectral.newman_sum_explicit(m, a, x)
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
    sums._check_query(m, a, x)
    _check_dp_work(m, x)
    t_even, t_odd = sums.parity_counts(m, a, x)
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
    dec = cosets.cyclotomic_cosets(args.m)
    spec = recurrence.coefficients_spectral(dec)
    result = {
        "m": args.m,
        "r": spec.r,
        "h": spec.h,
        "coefficients": list(spec.coefficients),
    }
    try:
        from_sums = recurrence.coefficients_from_sums(args.m, args.a)
        result["from_sums"] = list(from_sums.coefficients)
        result["methods_agree"] = from_sums.coefficients == spec.coefficients
        if not result["methods_agree"]:
            raise CrossCheckError(
                f"coefficient derivations disagree for m={args.m}: "
                f"{spec.coefficients} vs {from_sums.coefficients}"
            )
    except recurrence.SingularSystemError as exc:
        result["from_sums"] = None
        result["methods_agree"] = None
        result["finding"] = str(exc)
    report = recurrence.verify_recurrence(
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
    cls = cosets.classify_prime(args.p)
    return {
        "p": cls.p,
        "class": cls.classification,
        "ord2": cls.ord2,
        "minus_one_solvable": cls.minus_one_solvable,
    }


def _cmd_scan(args):
    if args.max > MAX_SCAN_LIMIT:
        raise ValueError(f"scan limit {args.max} exceeds {MAX_SCAN_LIMIT}")
    primes = cosets.scan_primes(args.max, args.classification)
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
        rows.append({"m": m, "alpha": report.alpha, "alpha_4dec": _truncate(report.alpha, 4)})
    return {"set": args.table_set, "rows": rows}


def _cmd_empirical(args):
    sums._check_query(args.m, args.a, 0)
    _check_profile_cost(args.m, args.max_exp)
    profile = emp.dyadic_profile(args.m, args.a, args.max_exp)
    report = expo.alpha(args.m)
    remainder = emp.gelfond_remainder_check(
        args.m, args.a, min(args.max_exp, emp.REMAINDER_MAX_EXP)
    )
    result = {
        "m": args.m,
        "a": args.a,
        "max_exp": args.max_exp,
        "alpha": report.alpha,
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
    if not report.bounded:
        try:
            env = emp.envelope_check(profile, report.alpha)
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
    return result


# ------------------------------------------------------------- CSV shaping


def _csv_rows(command, result):
    if command == "table":
        header = ["m", "alpha", "alpha_4dec"]
        return header, [[r["m"], r["alpha"], r["alpha_4dec"]] for r in result["rows"]]
    if command == "scan":
        if "alphas" in result:
            return ["p", "alpha"], list(map(list, zip(result["primes"], result["alphas"])))
        return ["p"], [[p] for p in result["primes"]]
    if command == "cosets":
        header = ["representative", "size", "elements"]
        return header, [
            [c[0], len(c), " ".join(map(str, c))] for c in result["cosets"]
        ]
    if command == "empirical":
        header = ["nu", "sup", "argmax_x", "log2_sup"]
        rows = []
        for nu, sup, argmax_x in result["blocks"]:
            log2_sup = math.log2(sup) if sup > 0 else float("-inf")
            rows.append([nu, sup, argmax_x, log2_sup])
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


def _int(text: str) -> int:
    """int(text) for a numeric argument.  A decimal longer than the interpreter
    converts (sys.get_int_max_str_digits(), absent before Python 3.10.7) is
    refused by its digit count, without echoing it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(text) > limit:
        digits = sum(ch.isdigit() for ch in text)
        if digits > limit:
            raise argparse.ArgumentTypeError(
                f"{digits}-digit integer exceeds the limit of {limit} digits"
            )
    return int(text)


def _nonnegative_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _int_list(text: str) -> list[int]:
    return [_int(v) for v in text.split(",")]


# argparse names each type in "invalid <name> value: ..."
_int.__name__ = "int"
_nonnegative_int.__name__ = "non-negative int"
_int_list.__name__ = "comma-separated int"

_M = (("m",), {"type": _int})
_A = (("a",), {"type": _int})
_X = (("x",), {"type": _int})

#: Every subcommand: its handler, its one-line help and its arguments as
#: (names, options) pairs for add_argument.
_COMMANDS = {
    "cosets": (_cmd_cosets, "cyclotomic cosets of 2 mod m", [
        _M,
        (("--all-elements",), {"action": "store_true"}),
    ]),
    "alpha": (_cmd_alpha, "exact remainder exponent alpha(m)", [
        _M,
        (("--per-rep",), {"action": "store_true"}),
        (("--full-range",), {"action": "store_true", "help":
                             "also maximize over every l in [1, m-1] and cross-check"}),
        (("--closed-form",), {"action": "store_true"}),
    ]),
    "sum": (_cmd_sum, "Newman-like sum S(m, a, x)", [
        _M, _A, _X,
        (("--method",), {"choices": ["enumerate", "dp", "explicit", "all"],
                         "default": "dp"}),
    ]),
    "counts": (_cmd_counts, "digit-sum parity counts in the class", [_M, _A, _X]),
    "recurrence": (_cmd_recurrence, "integer recurrence coefficients + check", [
        _M,
        (("--depth",), {"type": _int, "default": 8}),
        (("--multipliers",), {"type": _int_list, "default": [1, 3, 5]}),
        (("--a",), {"type": _int, "default": 0}),
    ]),
    "classify": (_cmd_classify, "primitive/semiprimitive root status of 2", [
        (("p",), {"type": _int}),
    ]),
    "scan": (_cmd_scan, "scan primes by root classification", [
        (("--class",), {"dest": "classification",
                        "choices": ["semiprimitive", "primitive"],
                        "default": "semiprimitive"}),
        (("--max",), {"type": _int, "required": True}),
        (("--with-alpha",), {"action": "store_true"}),
    ]),
    "table": (_cmd_table, "closing table of exponents", [
        (("--set",), {"dest": "table_set", "choices": ["paper"], "default": "paper"}),
    ]),
    "empirical": (_cmd_empirical, "dyadic sup profile, fit, remainder scan", [
        _M, _A,
        (("--max-exp",), {"type": _int, "default": 20}),
        (("--window",), {"type": _int, "nargs": 2, "metavar": ("LO", "HI")}),
        (("--csv",), {"action": "store_true", "help": "emit the profile as CSV"}),
    ]),
}

_CSV_COMMANDS = {"table", "scan", "cosets", "empirical"}


class _ListCommands(argparse.Action):
    """-h/--help of the top-level parser: its help with every command listed."""

    def __call__(self, parser, namespace, values, option_string=None):
        _top_parser(listing=True).print_help()
        parser.exit()


def _top_parser(listing: bool = False) -> argparse.ArgumentParser:
    """The top-level parser: --format, --precision, then the command name and
    the arguments after it, which the command's own parser reads.  With
    `listing` the command is a subparsers action naming every command with
    its help; that parser serves the help text alone."""
    parser = argparse.ArgumentParser(
        prog="gelfond",
        description="Newman-like digit sums, coset spectra, recurrences, "
        "and exact remainder exponents.",
        add_help=listing,
    )
    if not listing:
        parser.add_argument("-h", "--help", action=_ListCommands, nargs=0,
                            dest=argparse.SUPPRESS, default=argparse.SUPPRESS,
                            help="show this help message and exit")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--precision", type=_nonnegative_int, default=8,
                        help="decimal digits for real numbers (default 8)")
    if listing:
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (_, text, _) in _COMMANDS.items():
            sub.add_parser(name, help=text, add_help=False)
    else:
        # nargs=PARSER takes the command and the rest, as a subparsers action does
        parser.add_argument("command", nargs=argparse.PARSER, choices=_COMMANDS)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """argv parsed by the top-level parser, then by the chosen command's
    parser alone.  Syntax, help and error texts are those of one parser with
    a subparser per command."""
    top = _top_parser()
    head, extras = top.parse_known_args(argv)
    name, *rest = head.command
    parser = argparse.ArgumentParser(prog=f"gelfond {name}")
    for names, options in _COMMANDS[name][2]:
        parser.add_argument(*names, **options)
    args, more = parser.parse_known_args(rest)
    extras += more
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command, args.format, args.precision = name, head.format, head.precision
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    want_csv = args.format == "csv" or getattr(args, "csv", False)
    if want_csv and args.command not in _CSV_COMMANDS:
        print(f"error: command {args.command!r} has no CSV output", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        result = _COMMANDS[args.command][0](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)

    if want_csv:
        header, rows = _csv_rows(args.command, result)
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
