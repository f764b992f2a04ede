import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import gelfond.cli as cli
from gelfond import newman_sum_dp, newman_sum_enumerate


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_envelope_shape(capsys):
    env = run_json(capsys, "classify", "7")
    assert env["schema_version"] == "1"
    assert env["command"] == "classify"
    assert env["inputs"] == {"p": 7}
    assert isinstance(env["timing_ms"], float)
    assert env["timing_ms"] >= 0
    assert env["result"]["class"] == "semiprimitive"
    assert env["result"]["ord2"] == 3
    assert env["result"]["minus_one_solvable"] is False


def test_cosets_command(capsys):
    env = run_json(capsys, "cosets", "15", "--all-elements")
    result = env["result"]
    assert result["r"] == 4
    assert result["h"] == 4
    assert result["cosets"] == [[1, 2, 4, 8], [3, 6, 12, 9], [5, 10], [7, 14, 13, 11]]
    bare = run_json(capsys, "cosets", "15")
    assert "cosets" not in bare["result"]


def test_alpha_per_rep(capsys):
    env = run_json(capsys, "alpha", "17", "--per-rep")
    result = env["result"]
    assert result["alpha"] == pytest.approx(0.63322035, abs=1e-8)
    per_rep = dict((rep, value) for rep, value in result["per_rep"])
    assert per_rep[1] == pytest.approx(-0.12228749, abs=1e-6)
    assert per_rep[3] == pytest.approx(0.63322035, abs=1e-6)
    assert result["argmax_rep"] == 3


def test_alpha_even_modulus(capsys):
    env = run_json(capsys, "alpha", "6")
    assert env["result"]["m"] == 6
    assert env["result"]["odd_part"] == 3
    assert env["result"]["alpha"] == pytest.approx(0.79248125, abs=1e-7)
    bounded = run_json(capsys, "alpha", "8")
    assert bounded["result"]["bounded"] is True
    assert bounded["result"]["alpha"] == 0


def test_sum_all_methods(capsys):
    env = run_json(capsys, "sum", "17", "0", "131072", "--method", "all")
    result = env["result"]
    assert result["value"] == 697
    assert result["methods"] == {"enumerate": 697, "dp": 697, "explicit": 697}
    assert result["agree"] is True


def test_sum_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "newman_sum_dp", lambda m, a, x: 10**6)
    code, out, err = run_cli(capsys, "sum", "17", "0", "131072", "--method", "all")
    assert code == 3
    assert "disagree" in err


def test_sum_enumerate_cap_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "sum", "3", "0", str(1 << 27), "--method", "enumerate")
    assert code == 2
    assert "cap" in err


def test_sum_all_skips_enumerate_past_cap(capsys):
    env = run_json(capsys, "sum", "3", "0", str(1 << 27), "--method", "all")
    assert env["result"]["skipped"] == ["enumerate"]
    assert env["result"]["value"] == newman_sum_dp(3, 0, 1 << 27)


def test_dp_work_guard_refuses_before_any_dp(capsys, monkeypatch):
    x = 3**5000
    assert 10007 * x.bit_length() > cli.MAX_DP_WORK
    # the bound is on m * bit_length(x): the same x passes with a small m
    env = run_json(capsys, "sum", "3", "2", str(x), "--method", "dp")
    assert int(env["result"]["value"]) == newman_sum_dp(3, 2, x)

    def no_dp(*args):
        raise AssertionError("the DP must not start")

    monkeypatch.setattr(cli, "newman_sum_dp", no_dp)
    monkeypatch.setattr(cli, "parity_counts", no_dp)
    for argv in (("sum", "10007", "5", str(x), "--method", "dp"),
                 ("sum", "10007", "5", str(x), "--method", "all"),
                 ("counts", "10007", "5", str(x))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "digit-DP limit" in err


def test_profile_cost_guard(capsys, monkeypatch):
    # every depth up to 32, the depth cap of the numpy scan, stays accepted
    # for every m: from m = 2^16 on the walk has at most 2^16 + 1 steps
    assert max(cli.emp.profile_cost_ns(m, 32) for m in range(1, 1 << 16)) <= cli.MAX_PROFILE_NS
    # a large m at a shallow depth runs the class walk
    env = run_json(capsys, "empirical", "1572864", "0", "--max-exp", "28")
    blocks = env["result"]["blocks"]
    assert len(blocks) == 28
    for nu, sup, x in blocks:
        assert abs(newman_sum_enumerate(1572864, 0, x, cap=x)) == sup, nu
    # at the bound: 3906 * 256 max-plus cells predict 0.999936 s
    assert cli.emp.profile_cost_ns(3906, 256) <= cli.MAX_PROFILE_NS
    env = run_json(capsys, "empirical", "3906", "1", "--max-exp", "256")
    assert len(env["result"]["blocks"]) == 256

    def no_dp(*args):
        raise AssertionError("the profile must not start")

    monkeypatch.setattr(cli.emp, "dyadic_profile", no_dp)
    monkeypatch.setattr(cli.emp, "gelfond_remainder_check", no_dp)
    for m in ("3907", "65537"):
        code, out, err = run_cli(capsys, "empirical", m, "0", "--max-exp", "256")
        assert code == 2, m
        assert out == ""
        assert "predicted profile time" in err


def test_explicit_cost_guard(capsys, monkeypatch):
    # README's `sum 17 0 131072 --method all` and every explicit sum of the
    # benchmark's CLI session (m < 40, x < 2^20) are accepted
    assert cli.explicit_cost_ns(17, 131072) <= cli.MAX_EXPLICIT_NS
    assert max(cli.explicit_cost_ns(m, (1 << 20) - 1) for m in range(1, 41)) <= cli.MAX_EXPLICIT_NS
    # at the bound: 17 with 2381 one-bits predicts 0.975 s, one more bit 1.0009 s
    at_bound, past_bound = (1 << 2381) - 1, (1 << 2382) - 1
    assert cli.explicit_cost_ns(17, at_bound) <= cli.MAX_EXPLICIT_NS
    assert cli.explicit_cost_ns(17, past_bound) > cli.MAX_EXPLICIT_NS
    env = run_json(capsys, "sum", "17", "3", str(at_bound), "--method", "explicit")
    assert env["result"]["value"] == str(newman_sum_dp(17, 3, at_bound))  # 1506 bits

    def no_explicit(*args):
        raise AssertionError("the explicit sum must not start")

    monkeypatch.setattr(cli, "newman_sum_explicit", no_explicit)
    for x, method in ((past_bound, "explicit"), (3**9000, "explicit"), (3**9000, "all")):
        code, out, err = run_cli(capsys, "sum", "17", "5", str(x), "--method", method)
        assert code == 2, (x.bit_length(), method)
        assert out == ""
        assert "predicted explicit-sum time" in err


def test_empirical_validates_input_before_the_cost_model(capsys, monkeypatch):
    def no_cost(*args):
        raise AssertionError("the cost model must not run")

    monkeypatch.setattr(cli.emp, "profile_cost_ns", no_cost)
    for m, a in (("0", "0"), ("0", "5"), ("5", "5")):
        code, out, err = run_cli(capsys, "empirical", m, a)
        assert code == 2, (m, a)
        assert out == ""
        assert "must" in err


def test_scan_limit_guard(capsys, monkeypatch):
    # at the bound the sieve scan runs (about 1 s)
    env = run_json(capsys, "scan", "--max", str(cli.MAX_SCAN_LIMIT))
    primes = env["result"]["primes"]
    assert env["result"]["count"] == len(primes) > 10**4
    assert primes[:11] == [7, 23, 47, 71, 79, 103, 167, 191, 199, 239, 263]
    assert primes[-1] <= cli.MAX_SCAN_LIMIT

    def no_scan(*args):
        raise AssertionError("the scan must not start")

    monkeypatch.setattr(cli, "scan_primes", no_scan)
    for argv in (("--max", str(cli.MAX_SCAN_LIMIT + 1)),
                 ("--class", "primitive", "--max", str(10**9), "--with-alpha")):
        code, out, err = run_cli(capsys, "scan", *argv)
        assert code == 2, argv
        assert out == ""
        assert "scan limit" in err


def run_fresh(*argv):
    """stdout of a fresh interpreter run with this process's import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *argv], env=env, check=True,
                          capture_output=True, text=True).stdout


#: Modules a `gelfond` process must not load: each costs process start
#: (dataclasses pulls in inspect, concurrent.futures pulls in logging,
#: fractions pulls in decimal) for at most one caller off the hot path.
HEAVY_MODULES = ("dataclasses", "inspect", "concurrent.futures", "logging",
                 "statistics", "fractions", "decimal", "numpy", "mpmath")
LAYERS = ("sums", "cosets", "spectral", "exponent", "recurrence", "empirical")


def test_import_loads_neither_numpy_nor_mpmath():
    added = run_fresh(
        "-c",
        "import sys; before = set(sys.modules); import gelfond.cli; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))",
    ).split()
    assert "gelfond.cli" in added
    heavy = [k for k in added
             if any(k == h or k.startswith(h + ".") for h in HEAVY_MODULES)]
    assert heavy == []
    # `import gelfond` alone still loads every layer (the benchmark tracer
    # wraps them through sys.modules)
    loaded = run_fresh(
        "-c",
        "import sys, gelfond; "
        f"print(sorted(k for k in {LAYERS!r} if 'gelfond.' + k in sys.modules))",
    )
    assert loaded.strip() == str(sorted(LAYERS))
    # counts, recurrence (its exact solve) and the exact spectral
    # coefficients of m = 255 run without them too, and counts still prints
    # the exact "p/q" past the float range
    x = 3**700
    code = (
        "import contextlib, io, json, sys, gelfond.cli\n"
        "outs = []\n"
        f"for argv in (['counts', '3', '2', '{x}'], ['recurrence', '17']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        gelfond.cli.main(argv)\n"
        "    outs.append(json.loads(buf.getvalue())['result'])\n"
        "from gelfond import coefficients_spectral, cyclotomic_cosets\n"
        "coefficients_spectral(cyclotomic_cosets(255))\n"
        f"print(json.dumps([outs, [k for k in {HEAVY_MODULES!r} if k in sys.modules]]))"
    )
    (counts, recurrence), heavy = json.loads(run_fresh("-c", code))
    assert counts["x_over_2m"] == f"{3**699}/2"
    assert recurrence["methods_agree"] is True
    assert heavy == []


#: One small run of every subcommand: (argv, output format).
MODULE_RUNS = [
    (["cosets", "15"], "json"),
    (["alpha", "17"], "json"),
    (["sum", "5", "2", "1000", "--method", "all"], "json"),
    (["counts", "3", "2", "16"], "json"),
    (["recurrence", "7"], "json"),
    (["classify", "7"], "json"),
    (["--format", "csv", "scan", "--max", "100", "--with-alpha"], "csv"),
    (["--format", "csv", "table"], "csv"),
    (["empirical", "17", "3", "--max-exp", "12", "--csv"], "csv"),
]


def test_module_entry_point_runs_every_subcommand():
    commands = {next(a for a in argv if a in cli._HANDLERS) for argv, _ in MODULE_RUNS}
    assert commands == set(cli._HANDLERS)
    for argv, form in MODULE_RUNS:
        out = run_fresh("-m", "gelfond.cli", *argv)
        if form == "json":
            env = json.loads(out)
            assert env["command"] == argv[0] and env["result"], argv
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows), argv


def test_big_integers_serialize_as_strings(capsys):
    x = 1 << 70
    env = run_json(capsys, "sum", "3", "0", str(x), "--method", "dp")
    assert env["result"]["value"] == str(newman_sum_dp(3, 0, x))
    assert env["result"]["x"] == str(x)
    assert env["inputs"]["x"] == str(x)


def test_counts_command(capsys):
    env = run_json(capsys, "counts", "3", "2", "16")
    result = env["result"]
    assert result["t_even"] == 1
    assert result["t_odd"] == 4
    assert result["count"] == 5
    assert result["newman_sum"] == -3
    assert result["x_over_2m"] == 2.66666667
    assert result["remainder"] == -1.66666667


def test_counts_past_float_range_are_exact(capsys):
    x = 3**700
    env = run_json(capsys, "counts", "3", "2", str(x))
    result = env["result"]
    t_even = int(result["t_even"])
    assert t_even + int(result["t_odd"]) == int(result["count"])
    # x / 6 overflows a float, so it is rendered as the exact reduced "p/q"
    assert result["x_over_2m"] == f"{3**699}/2"
    assert result["remainder"] == pytest.approx((6 * t_even - x) / 6, rel=1e-12)


def test_recurrence_command(capsys):
    env = run_json(capsys, "recurrence", "17")
    result = env["result"]
    assert result["coefficients"] == [-34, 17]
    assert "residuals" not in result
    assert result["from_sums"] == [-34, 17]
    assert result["methods_agree"] is True
    assert result["verification"]["max_defect"] == 0
    assert result["verification"]["multipliers"] == [1, 3, 5]


def test_recurrence_singular_is_finding_not_failure(capsys):
    env = run_json(capsys, "recurrence", "15", "--depth", "4")
    result = env["result"]
    assert result["from_sums"] is None
    assert "singular" in result["finding"]
    assert result["verification"]["max_defect"] == 0


def test_recurrence_custom_flags(capsys):
    env = run_json(capsys, "recurrence", "3", "--depth", "5", "--multipliers", "1,7",
                   "--a", "2")
    result = env["result"]
    assert result["coefficients"] == [-3]
    assert result["verification"]["a"] == 2
    assert result["verification"]["depth"] == 5
    assert result["verification"]["multipliers"] == [1, 7]


def test_scan_command(capsys):
    env = run_json(capsys, "scan", "--class", "semiprimitive", "--max", "263")
    assert env["result"]["primes"] == [7, 23, 47, 71, 79, 103, 167, 191, 199, 239, 263]
    assert env["result"]["count"] == 11


def test_scan_with_alpha(capsys):
    env = run_json(capsys, "scan", "--class", "primitive", "--max", "29",
                   "--with-alpha")
    assert env["result"]["primes"] == [3, 5, 11, 13, 19, 29]
    assert len(env["result"]["alphas"]) == 6
    assert env["result"]["min_alpha"] == min(env["result"]["alphas"])
    # the classical primes below 70 with primitive root 2, and alpha(67) last
    env = run_json(capsys, "scan", "--class", "primitive", "--max", "70", "--with-alpha")
    assert env["result"]["primes"] == [3, 5, 11, 13, 19, 29, 37, 53, 59, 61, 67]
    assert env["result"]["min_alpha"] == round(math.log(67) / (66 * math.log(2)), 8)


def test_table_paper_truncation(capsys):
    env = run_json(capsys, "table", "--set", "paper")
    rows = env["result"]["rows"]
    got = {row["m"]: row["alpha_4dec"] for row in rows}
    assert got == {
        3: "0.7924", 5: "0.5804", 7: "0.4678", 11: "0.3459", 13: "0.3083",
        17: "0.6332", 19: "0.2359", 23: "0.2056", 29: "0.1734", 31: "0.6358",
        37: "0.1447", 41: "0.4339", 43: "0.6337", 47: "0.1207",
    }


def test_table_csv(capsys):
    code, out, err = run_cli(capsys, "--format", "csv", "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,alpha,alpha_4dec"
    assert len(lines) == 15
    assert lines[1].startswith("3,0.79248125,0.7924")


def test_empirical_json(capsys):
    env = run_json(capsys, "empirical", "3", "0", "--max-exp", "12")
    result = env["result"]
    assert result["blocks"][0] == [1, 1, 1]
    assert result["alpha"] == pytest.approx(0.79248125, abs=1e-7)
    assert "exponent_estimate" in result["fit"]
    assert "max_ratio" in result["remainder"]
    assert result["envelope"]["upper_violations"] == []


def test_empirical_shallow_profiles_skip_the_empty_blocks(capsys):
    # blocks below the class's first member a have sup 0: the default window
    # starts after them, and the fit is left out when under 4 blocks remain
    for m, a, max_exp, window in (("5", "1", "4", None), ("7", "3", "4", None),
                                  ("7", "3", "5", None), ("301", "300", "12", [9, 12])):
        result = run_json(capsys, "empirical", m, a, "--max-exp", max_exp)["result"]
        assert result["blocks"][0][1] == 0, (m, a)
        assert result.get("fit", {}).get("window") == window, (m, a, max_exp)
    # an explicit window still refuses zero sups
    code, out, err = run_cli(capsys, "empirical", "7", "3", "--max-exp", "5",
                             "--window", "1", "5")
    assert code == 2 and "zero sups" in err


def test_empirical_csv_profile(capsys):
    code, out, err = run_cli(capsys, "empirical", "3", "0", "--max-exp", "6", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "nu,sup,argmax_x,log2_sup"
    assert len(lines) == 7
    assert lines[1].split(",")[:3] == ["1", "1", "1"]


def test_cosets_csv(capsys):
    code, out, err = run_cli(capsys, "--format", "csv", "cosets", "15")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "representative,size,elements"
    assert lines[1] == "1,4,1 2 4 8"


def test_csv_rejected_for_scalar_commands(capsys):
    code, _, err = run_cli(capsys, "--format", "csv", "classify", "7")
    assert code == 2
    assert "no CSV" in err


def test_validation_exit_codes(capsys):
    assert run_cli(capsys, "cosets", "4")[0] == 2
    assert run_cli(capsys, "sum", "5", "7", "3")[0] == 2
    assert run_cli(capsys, "classify", "15")[0] == 2
    assert run_cli(capsys, "empirical", "3", "0", "--max-exp", "257")[0] == 2


def test_argparse_errors_use_code_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["scan"])  # --max is required
    assert info.value.code == 2


def test_result_payload_deterministic(capsys):
    first = run_json(capsys, "table")
    second = run_json(capsys, "table")
    assert first["result"] == second["result"]
    assert first["inputs"] == second["inputs"]


def test_precision_flag(capsys):
    env = run_json(capsys, "--precision", "3", "alpha", "17")
    assert env["result"]["alpha"] == 0.633
