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

#: Largest predicted time that a route accepts: the digit DP of `sum
#: --method dp|all` and `counts` (sums.dp_cost_ns), the explicit sum of `sum
#: --method explicit|all` (spectral.explicit_cost_ns), the enumeration of
#: `sum --method enumerate` (sums.ENUMERATION_STEP_NS a member; `all` skips
#: it), the profile and the exponent of `empirical` (profile_cost_ns and
#: EXPONENT_STEP_NS a residue of m' in empirical) and the three passes of
#: `recurrence` (recurrence.recurrence_cost_ns).  Every max_exp <= 32
#: predicts at most 0.08 s for any m.  At this bound, on a 2-CPU Xeon with
#: Python 3.11: a profile took at most 1.1 s and 25 MiB (m = 6510 at max_exp
#: = 256, m = 41666 at max_exp = 40); an explicit sum at m = 17 with a
#: 7810-bit x of all ones 0.89-0.96 s; a digit DP 0.85 s and 354 MiB at
#: m' = 22222131 with a 2-bit x, where O(m') integers are live (the whole
#: `counts` process).  Past it, m = 1173 with the 4300-digit x = 10^4300 - 1
#: has only 1173 * 14285 cells, but its integers widen to about 11000 bits:
#: refused at 1.94 s predicted, it ran 2.2-2.6 s and 19 MiB.
MAX_PREDICTED_NS = 10**9
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
    """x truncated toward zero (not rounded) to `digits` decimals, read
    exactly from its integer ratio."""
    n, d = x.as_integer_ratio()
    whole, frac = divmod(abs(n) * 10**digits // d, 10**digits)
    return f"{'-' * (n < 0)}{whole}.{frac:0{digits}d}"


# ---------------------------------------------------------------- commands
#
# Each handler returns its result record's fields; `_jsonify` turns the
# tuples and named tuples in them into lists.  A CSV shape maps a handler's
# result to (header, rows).


def _fields(record, *omit):
    """The fields of a result record, in order, less those in `omit`."""
    return {k: v for k, v in record._asdict().items() if k not in omit}


def _check_limit(value: int, limit: int, message: str) -> None:
    """Refuse `value` above `limit` by `message`, a template of {value} and
    {limit}."""
    if value > limit:
        raise ValueError(message.format(value=value, limit=limit))


def _check_time(route: str, predicted_ns: int) -> None:
    """Refuse a route whose predicted time exceeds MAX_PREDICTED_NS."""
    _check_limit(predicted_ns, MAX_PREDICTED_NS,
                 f"predicted {route} time {{value}} ns exceeds the limit {{limit}} ns")


def _cmd_cosets(args):
    dec = cosets.cyclotomic_cosets(args.m)
    result = {k: getattr(dec, k) for k in ("m", "r", "h", "ord2", "representatives", "sizes")}
    if args.all_elements or args.format == "csv":  # the CSV rows are the cosets
        result["cosets"] = dec.cosets
    return result


def _cosets_csv(result):
    return ["representative", "size", "elements"], [
        [c[0], len(c), " ".join(map(str, c))] for c in result["cosets"]
    ]


def _cmd_alpha(args):
    report = expo.alpha(args.m, full_range=args.full_range)
    result = {
        "m": args.m,
        "alpha": report.alpha,
        "argmax_rep": report.argmax_rep,
        "lambda": report.lam,
        "log2_v": report.log2_v,
        "bounded": report.bounded,
    }
    if args.per_rep:
        result["per_rep"] = report.per_rep
    if args.closed_form:
        result["closed_form"] = report.closed_form
    if report.m != args.m:  # the report describes the odd part
        result["odd_part"] = report.m
    return result


def _dp_time(m: int, a: int, x: int) -> int:
    """sums.dp_cost_ns at the rate alpha(m') where that decides the refusal,
    else at rate 1.  The O(m') orbit walk of alpha runs only where rate 1
    refuses, rate 0 accepts and the growth is a fifth of the price or more,
    which takes L > 1000 levels and so m' < 3.2 * 10^4."""
    ns, flat = sums.dp_cost_ns(m, a, x), sums.dp_cost_ns(m, a, x, 0)
    if flat <= MAX_PREDICTED_NS < ns and 4 * ns >= 5 * flat:
        ns = sums.dp_cost_ns(m, a, x, expo._alpha_value(m))
    return ns


#: The routes of `sum`, each read from its layer at call time, so that only
#: the layers of the routes asked for run.
_SUM_ROUTES = {
    "enumerate": lambda m, a, x: sums.newman_sum_enumerate(m, a, x),
    "dp": lambda m, a, x: sums.newman_sum_dp(m, a, x),
    "explicit": lambda m, a, x: spectral.newman_sum_explicit(m, a, x),
}


def _cmd_sum(args):
    m, a, x, method = args.m, args.a, args.x, args.method
    sums._check_query(m, a, x)
    if method in ("dp", "all"):
        _check_time("digit-DP", _dp_time(m, a, x))
    if method in ("explicit", "all"):
        _check_time("explicit-sum", spectral.explicit_cost_ns(m, a, x))
    enumerate_ns = sums.ENUMERATION_STEP_NS * sums._class_count(m, a, x)
    if method == "enumerate" and x <= sums.ENUMERATION_CAP:  # past it the route refuses
        _check_time("enumeration", enumerate_ns)
    skipped = ["enumerate"] if method == "all" and (
        x > sums.ENUMERATION_CAP or enumerate_ns > MAX_PREDICTED_NS) else []
    methods = {name: route(m, a, x) for name, route in _SUM_ROUTES.items()
               if method in (name, "all") and name not in skipped}
    values = set(methods.values())
    if len(values) > 1:
        raise CrossCheckError(f"sum methods disagree for ({m},{a},{x}): {methods}")
    result = {"m": m, "a": a, "x": x, "value": values.pop(), "methods": methods}
    if skipped:
        result["skipped"] = skipped
    if method == "all":
        result["agree"] = True
    return result


def _cmd_counts(args):
    m, a, x = args.m, args.a, args.x
    sums._check_query(m, a, x)
    _check_time("digit-DP", _dp_time(m, a, x))
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
    _check_time("recurrence", recurrence.recurrence_cost_ns(dec, args.a, args.depth,
                                                             args.multipliers))
    spec = recurrence.coefficients_spectral(dec)
    result = spec._asdict()
    try:
        from_sums = recurrence.coefficients_from_sums(args.m, args.a).coefficients
    except recurrence.SingularSystemError as exc:
        result["from_sums"] = None
        result["methods_agree"] = None
        result["finding"] = str(exc)
    else:
        result["from_sums"] = from_sums
        result["methods_agree"] = from_sums == spec.coefficients
        if not result["methods_agree"]:
            raise CrossCheckError(
                f"coefficient derivations disagree for m={args.m}: "
                f"{spec.coefficients} vs {from_sums}"
            )
    report = recurrence.verify_recurrence(
        spec, args.a, depth=args.depth, multipliers=tuple(args.multipliers)
    )
    result["verification"] = _fields(report, "m")
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
    _check_limit(args.max, MAX_SCAN_LIMIT, "scan limit {value} exceeds {limit}")
    primes = cosets.scan_primes(args.max, args.classification)
    result = {
        "class": args.classification,
        "max": args.max,
        "count": len(primes),
        "primes": primes,
    }
    if args.with_alpha:
        alphas = [cosets._closed_prime(p) for p in primes]
        result["alphas"] = alphas
        result["min_alpha"] = min(alphas, default=None)
    return result


def _scan_csv(result):
    if "alphas" in result:
        return ["p", "alpha"], zip(result["primes"], result["alphas"])
    return ["p"], [[p] for p in result["primes"]]


def _cmd_table(args):
    rows = []
    for m in PAPER_TABLE_MODULI:
        report = expo.alpha(m)
        rows.append({"m": m, "alpha": report.alpha, "alpha_4dec": _truncate(report.alpha, 4)})
    return {"set": args.table_set, "rows": rows}


def _table_csv(result):
    return ["m", "alpha", "alpha_4dec"], [row.values() for row in result["rows"]]


def _cmd_empirical(args):
    sums._check_query(args.m, args.a, 0)
    _check_time("profile", emp.profile_cost_ns(args.m, args.max_exp))
    _check_time("exponent", emp.EXPONENT_STEP_NS * cosets._odd_part(args.m))
    profile = emp.dyadic_profile(args.m, args.a, args.max_exp)
    exponent = expo._alpha_value(args.m)
    # gelfond_remainder_check's ratios, from the profile's own S(2^nu)
    remainder = emp._remainder_ratios(
        args.m, args.a, profile.boundary_sums[:emp.REMAINDER_MAX_EXP + 1]
    )
    result = {
        "m": args.m,
        "a": args.a,
        "max_exp": args.max_exp,
        "alpha": exponent,
        "remainder": _fields(remainder, "m", "a", "max_exp", "ratios"),
        "blocks": profile.blocks,
    }
    if args.window:
        window = tuple(args.window)
    else:
        window = emp.default_window(args.max_exp, emp._first_nonzero_block(profile))
    if args.window or window[1] - window[0] >= 3:  # a fit needs 4 blocks
        result["fit"] = emp.fit_exponent(profile, window)._asdict()
    if cosets._odd_part(args.m) > 1:  # else the sums are bounded
        try:
            env = emp.envelope_check(profile, exponent)
        except ValueError as exc:
            result["envelope"] = {"skipped": str(exc)}
        else:
            result["envelope"] = _fields(env, "m", "a", "alpha")
    return result


def _empirical_csv(result):
    return ["nu", "sup", "argmax_x", "log2_sup"], [
        [*b, math.log2(b.sup) if b.sup > 0 else float("-inf")] for b in result["blocks"]
    ]


# ------------------------------------------------------------------ driver


def _emit_csv(header, rows, precision):
    def text(cell):  # str() of a non-finite float is its repr()
        if isinstance(cell, float) and math.isfinite(cell):
            return f"{cell:.{precision}f}"
        return str(cell)

    return "".join(",".join(map(text, row)) + "\n" for row in [header, *rows])


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

#: Every subcommand: its handler, its CSV shape (None: no CSV form), its
#: one-line help and its arguments as (names, options) pairs for add_argument.
_COMMANDS = {
    "cosets": (_cmd_cosets, _cosets_csv, "cyclotomic cosets of 2 mod m", [
        _M,
        (("--all-elements",), {"action": "store_true"}),
    ]),
    "alpha": (_cmd_alpha, None, "exact remainder exponent alpha(m)", [
        _M,
        (("--per-rep",), {"action": "store_true"}),
        (("--full-range",), {"action": "store_true", "help":
                             "also maximize over every l in [1, m-1] and cross-check"}),
        (("--closed-form",), {"action": "store_true"}),
    ]),
    "sum": (_cmd_sum, None, "Newman-like sum S(m, a, x)", [
        _M, _A, _X,
        (("--method",), {"choices": ["enumerate", "dp", "explicit", "all"],
                         "default": "dp"}),
    ]),
    "counts": (_cmd_counts, None, "digit-sum parity counts in the class", [_M, _A, _X]),
    "recurrence": (_cmd_recurrence, None, "integer recurrence coefficients + check", [
        _M,
        (("--depth",), {"type": _int, "default": 8}),
        (("--multipliers",), {"type": _int_list, "default": [1, 3, 5]}),
        (("--a",), {"type": _int, "default": 0}),
    ]),
    "classify": (_cmd_classify, None, "primitive/semiprimitive root status of 2", [
        (("p",), {"type": _int}),
    ]),
    "scan": (_cmd_scan, _scan_csv, "scan primes by root classification", [
        (("--class",), {"dest": "classification",
                        "choices": ["semiprimitive", "primitive"],
                        "default": "semiprimitive"}),
        (("--max",), {"type": _int, "required": True}),
        (("--with-alpha",), {"action": "store_true"}),
    ]),
    "table": (_cmd_table, _table_csv, "closing table of exponents", [
        (("--set",), {"dest": "table_set", "choices": ["paper"], "default": "paper"}),
    ]),
    "empirical": (_cmd_empirical, _empirical_csv, "dyadic sup profile, fit, remainder scan", [
        _M, _A,
        (("--max-exp",), {"type": _int, "default": 20}),
        (("--window",), {"type": _int, "nargs": 2, "metavar": ("LO", "HI")}),
        (("--csv",), {"action": "store_true", "help": "emit the profile as CSV"}),
    ]),
}


def _parse_args(argv) -> argparse.Namespace:
    """argv parsed by one parser with a subparser per command.  Arguments
    cost the most to build, so only a command named in argv (argparse can
    choose no other) gets its arguments and -h; the rest fill the listing."""
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="gelfond",
        description="Newman-like digit sums, coset spectra, recurrences, "
        "and exact remainder exponents.",
    )
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--precision", type=_nonnegative_int, default=8,
                        help="decimal digits for real numbers (default 8)")
    sub = parser.add_subparsers(dest="command", required=True, prog="gelfond")
    for name, (_, _, text, arguments) in _COMMANDS.items():
        named = name in argv
        command = sub.add_parser(name, help=text, add_help=named)
        for names, options in arguments if named else ():
            command.add_argument(*names, **options)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    handler, csv_shape = _COMMANDS[args.command][:2]
    want_csv = args.format == "csv" or getattr(args, "csv", False)
    if want_csv and csv_shape is None:
        print(f"error: command {args.command!r} has no CSV output", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        result = handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)

    if want_csv:
        sys.stdout.write(_emit_csv(*csv_shape(result), args.precision))
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
