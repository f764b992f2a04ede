import csv
import importlib
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gelfond
import gelfond.cli as cli
from gelfond import cosets, spectral, sums
from gelfond import exponent as expo
from gelfond import newman_sum_dp, newman_sum_enumerate, newman_sum_explicit, parity_counts


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


def test_alpha_even_full_range_sweeps_the_odd_part(capsys, monkeypatch):
    calls = []
    real = expo._full_range_max

    def spy(m, h):
        calls.append(m)
        return real(m, h)

    monkeypatch.setattr(expo, "_full_range_max", spy)
    swept = run_json(capsys, "alpha", "34", "--full-range")
    plain = run_json(capsys, "alpha", "34")
    assert calls == [17]
    assert swept["inputs"]["full_range"] is True
    assert swept["result"] == plain["result"]
    # a power of two has no odd part to sweep
    assert run_json(capsys, "alpha", "8", "--full-range")["result"]["bounded"] is True
    assert calls == [17]


def test_alpha_one_is_bounded_like_two(capsys):
    one = run_json(capsys, "alpha", "1")["result"]
    two = run_json(capsys, "alpha", "2")["result"]
    assert two.pop("odd_part") == 1 and two.pop("m") == 2
    assert one.pop("m") == 1
    assert one == two == {"alpha": 0.0, "argmax_rep": None, "lambda": 0.79248125,
                          "log2_v": None, "bounded": True}


def test_alpha_refuses_moduli_below_one(capsys):
    for m in ("0", "-3"):
        code, out, err = run_cli(capsys, "alpha", m)
        assert (code, out) == (2, ""), m
        assert err == f"error: modulus must be >= 1, got m={m}\n"


@pytest.mark.xfail(strict=True, reason="alpha raises OverflowError in z ** (h // size) where "
                                       "h alpha(m) > 1024, so the command exits 3")
@pytest.mark.parametrize("argv", [
    pytest.param(["alpha", "2187"], id="2187"),
    pytest.param(["alpha", "3125"], id="3125"),
])
def test_alpha_where_h_alpha_exceeds_1024_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err


def test_empirical_reads_its_exponent_without_the_root_spectrum(capsys, monkeypatch):
    # the profile, the fit, the remainder scan and the envelope need only
    # the exponent, so empirical runs where alpha's float roots overflow
    def refuse(*args, **kwargs):
        raise AssertionError("empirical built the root spectrum")

    monkeypatch.setattr(expo, "alpha", refuse)
    for argv in (["2187", "1", "--max-exp", "20"], ["24", "5", "--max-exp", "12"]):
        result = run_json(capsys, "empirical", *argv)["result"]
        assert result["alpha"] == round(expo.LAMBDA, 8), argv  # 3 divides both
        assert "skipped" not in result["envelope"], argv
    bounded = run_json(capsys, "empirical", "8", "0", "--max-exp", "12")["result"]
    assert bounded["alpha"] == 0.0 and "envelope" not in bounded


def test_sum_all_methods(capsys):
    env = run_json(capsys, "sum", "17", "0", "131072", "--method", "all")
    result = env["result"]
    assert result["value"] == 697
    assert result["methods"] == {"enumerate": 697, "dp": 697, "explicit": 697}
    assert result["agree"] is True


def test_sum_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(sums, "newman_sum_dp", lambda m, a, x: 10**6)
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

    monkeypatch.setattr(sums, "newman_sum_dp", no_dp)
    monkeypatch.setattr(sums, "parity_counts", no_dp)
    for argv in (("sum", "10007", "5", str(x), "--method", "dp"),
                 ("sum", "10007", "5", str(x), "--method", "all"),
                 ("counts", "10007", "5", str(x))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "digit-DP limit" in err


def test_dp_work_guard_counts_the_folded_cells(capsys):
    # the DP runs on the odd part of m with x >> v2(m): 2^20 * 100 cells by
    # the unfolded count, 1 * 80 folded, so this query is no longer refused
    m, x = 1 << 20, (1 << 99) + 12345
    assert m * x.bit_length() > cli.MAX_DP_WORK
    env = run_json(capsys, "counts", str(m), "5", str(x))
    t_even, t_odd = parity_counts(m, 5, x)
    assert (int(env["result"]["t_even"]), int(env["result"]["t_odd"])) == (t_even, t_odd)
    assert t_even + t_odd == (x - 5 + m - 1) // m
    env = run_json(capsys, "sum", str(3 << 20), "5", str(x), "--method", "dp")
    assert int(env["result"]["value"]) == newman_sum_explicit(3 << 20, 5, x)
    # the folded count still refuses an odd part that is too large
    code, out, err = run_cli(capsys, "sum", str(10007 << 3), "5", str(3**5000), "--method", "dp")
    assert code == 2 and out == "" and "digit-DP limit" in err


def test_dp_work_guard_counts_the_levels_the_dp_runs(capsys, monkeypatch):
    # 8194 = 2 * 4097 at a = 0 pads x by 1 before the fold, so the DP runs
    # 2^4095, 4096 levels of 4097 cells, past 2^24; x >> 1 alone has 4095
    # levels, 2^24 - 1 cells, and at a = 1 the pad is 0 and so is the excess
    x = (1 << 4096) - 1
    assert 4097 * (x >> 1).bit_length() <= cli.MAX_DP_WORK < 4097 * 4096
    assert cli._dp_cells(8194, 0, x) == 4097 * 4096
    assert cli._dp_cells(8194, 1, x) == 4097 * 4095

    def no_dp(*args):
        raise AssertionError("the DP must not start")

    monkeypatch.setattr(sums, "newman_sum_dp", no_dp)
    monkeypatch.setattr(sums, "parity_counts", no_dp)
    for argv in (("sum", "8194", "0", str(x)), ("counts", "8194", "0", str(x))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "digit-DP limit" in err


def test_sum_all_folds_an_even_modulus_past_the_enumeration_cap(capsys):
    x = (1 << 40) + 12345
    for m, a in ((96, 37), (1000, 999), (1 << 12, 5)):
        env = run_json(capsys, "sum", str(m), str(a), str(x), "--method", "all")
        result = env["result"]
        assert result["skipped"] == ["enumerate"]
        assert result["methods"]["dp"] == result["methods"]["explicit"] == result["value"]
        assert result["value"] == newman_sum_dp(m, a, x)


def test_profile_cost_guard(capsys, monkeypatch):
    # every depth up to 32 stays accepted for every m: below 2^16 the
    # max-plus DP or the class walk fits the guard, and from m = 2^16 on the
    # walk has at most 2^16 + 1 steps
    assert max(cli.emp.profile_cost_ns(m, 32) for m in range(1, 1 << 16)) <= cli.MAX_PREDICTED_NS
    # a large m at a shallow depth runs the class walk
    env = run_json(capsys, "empirical", "1572864", "0", "--max-exp", "28")
    blocks = env["result"]["blocks"]
    assert len(blocks) == 28
    for nu, sup, x in blocks:
        assert abs(newman_sum_enumerate(1572864, 0, x, cap=x)) == sup, nu
    # at the bound: 6510 * 256 max-plus cells predict 0.999936 s, one more m
    # 1.0000896 s
    assert cli.emp.profile_cost_ns(6510, 256) <= cli.MAX_PREDICTED_NS
    assert cli.emp.profile_cost_ns(6511, 256) > cli.MAX_PREDICTED_NS
    env = run_json(capsys, "empirical", "6510", "1", "--max-exp", "256")
    assert len(env["result"]["blocks"]) == 256

    def no_dp(*args):
        raise AssertionError("the profile must not start")

    monkeypatch.setattr(cli.emp, "dyadic_profile", no_dp)
    monkeypatch.setattr(cli.emp, "gelfond_remainder_check", no_dp)
    for m in ("6511", "65537"):
        code, out, err = run_cli(capsys, "empirical", m, "0", "--max-exp", "256")
        assert code == 2, m
        assert out == ""
        assert "predicted profile time" in err


def test_explicit_cost_guard(capsys, monkeypatch):
    # README's `sum 17 0 131072 --method all` and every explicit sum of the
    # benchmark's CLI session (m < 40, x < 2^20) are accepted
    assert spectral.explicit_cost_ns(17, 0, 131072) <= cli.MAX_PREDICTED_NS
    assert max(spectral.explicit_cost_ns(m, a, (1 << 20) - 1)
               for m in range(1, 41) for a in range(m)) <= cli.MAX_PREDICTED_NS
    # at the bound: 17 with 7810 one-bits predicts 0.963 s, and one more bit,
    # whose primes take one more pass, 1.023 s
    at_bound, past_bound = (1 << 7810) - 1, (1 << 7811) - 1
    assert spectral.explicit_cost_ns(17, 3, at_bound) <= cli.MAX_PREDICTED_NS
    assert spectral.explicit_cost_ns(17, 5, past_bound) > cli.MAX_PREDICTED_NS
    env = run_json(capsys, "sum", "17", "3", str(at_bound), "--method", "explicit")
    assert env["result"]["value"] == str(newman_sum_dp(17, 3, at_bound))  # 4944 bits

    def no_explicit(*args):
        raise AssertionError("the explicit sum must not start")

    monkeypatch.setattr(spectral, "newman_sum_explicit", no_explicit)
    for x, method in ((past_bound, "explicit"), (3**9000, "explicit"), (3**9000, "all")):
        code, out, err = run_cli(capsys, "sum", "17", "5", str(x), "--method", method)
        assert code == 2, (x.bit_length(), method)
        assert out == ""
        assert "predicted explicit-sum time" in err


def test_explicit_cost_guard_reads_the_route_plan(capsys, monkeypatch):
    # 2^14252 (4291 digits) holds its one set bit in phase 14252 mod 1018 = 0
    # of m = 1019, so the explicit route steps no level and the guard, which
    # counts the levels of the route's plan, predicts 0.08 s
    x = 1 << 14252
    env = run_json(capsys, "sum", "1019", "5", str(x), "--method", "all")
    assert len(str(x)) == 4291
    assert env["result"]["agree"] is True

    # x = 1 has no block above bit 0: no orbit walk and no prime search
    def no_pass(*args):
        raise AssertionError("the explicit sum must not walk the orbits or search primes")

    monkeypatch.setattr(spectral, "_orbits", no_pass)
    monkeypatch.setattr(spectral, "crt_passes", no_pass)
    assert spectral.explicit_cost_ns(300001, 0, 1) == 0
    env = run_json(capsys, "sum", "300001", "0", "1", "--method", "explicit")
    assert env["result"]["value"] == 1

    # the plan folds x with the query's residue: at m = 510 = 2 * 255 and
    # a = 1 the pad is 0, so 2^14266 - 1 (4295 digits) folds to 2^14265 - 1,
    # 8 levels and 14265 set bits (36 s predicted), while a = 0 would pad it
    # to the one set bit of 2^14265; likewise m = 34 = 2 * 17 (3.3 s)
    x = (1 << 14266) - 1
    assert spectral.explicit_cost_ns(510, 0, x) <= cli.MAX_PREDICTED_NS
    for m, method in (("510", "explicit"), ("510", "all"), ("34", "explicit")):
        code, out, err = run_cli(capsys, "sum", m, "1", str(x), "--method", method)
        assert code == 2, (m, method)
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


def test_empirical_refuses_max_exp_out_of_range(capsys):
    for max_exp in (-1, 0, 257):
        with pytest.raises(ValueError, match=re.escape(
                f"max_exp must be in [1, 256], got {max_exp}")):
            cli.emp.profile_cost_ns(3, max_exp)
    # the range comes before the cost: at m = 1000003 depth 300 would also
    # predict far more than the limit
    for m, max_exp in (("3", "-1"), ("3", "0"), ("3", "257"), ("1000003", "300")):
        code, out, err = run_cli(capsys, "empirical", m, "0", "--max-exp", max_exp)
        assert (code, out, err) == (2, "", f"error: max_exp must be in [1, 256], got {max_exp}\n")


def test_scan_limit_guard(capsys, monkeypatch):
    # at the bound the sieve scan runs (about 1 s)
    env = run_json(capsys, "scan", "--max", str(cli.MAX_SCAN_LIMIT))
    primes = env["result"]["primes"]
    assert env["result"]["count"] == len(primes) > 10**4
    assert primes[:11] == [7, 23, 47, 71, 79, 103, 167, 191, 199, 239, 263]
    assert primes[-1] <= cli.MAX_SCAN_LIMIT

    def no_scan(*args):
        raise AssertionError("the scan must not start")

    monkeypatch.setattr(cosets, "scan_primes", no_scan)
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
    # `import gelfond` alone registers every layer (the benchmark tracer
    # wraps them through sys.modules), and vars() of each registered layer
    # runs it and lists its public functions, which is what the tracer reads
    code = (
        "import json, sys, types, gelfond\n"
        f"layers = {LAYERS!r}\n"
        "registered = sorted(k for k in layers if 'gelfond.' + k in sys.modules)\n"
        "functions = {k: sorted(n for n in gelfond._PUBLIC[k] if isinstance(\n"
        "    vars(sys.modules['gelfond.' + k]).get(n), types.FunctionType)) for k in layers}\n"
        "print(json.dumps([registered, functions]))"
    )
    registered, functions = json.loads(run_fresh("-c", code))
    assert registered == sorted(LAYERS)
    assert functions == {
        layer: sorted(name for name in gelfond._PUBLIC[layer]
                      if inspect.isfunction(getattr(gelfond, name)))
        for layer in LAYERS
    }
    assert all(functions.values())
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
    commands = {next(a for a in argv if a in cli._COMMANDS) for argv, _ in MODULE_RUNS}
    assert commands == set(cli._COMMANDS)
    for argv, form in MODULE_RUNS:
        out = run_fresh("-m", "gelfond.cli", *argv)
        if form == "json":
            env = json.loads(out)
            assert env["command"] == argv[0] and env["result"], argv
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows), argv


#: The layers each subcommand of MODULE_RUNS runs; the others stay registered
#: in sys.modules but unrun.
ALPHA_LAYERS = {"exponent", "cosets", "modular", "sums"}
COMMAND_LAYERS = {
    "cosets": {"cosets", "modular"},
    "classify": {"cosets", "modular"},
    "counts": {"sums"},
    "sum": {"sums", "spectral", "cosets", "modular"},
    "recurrence": {"recurrence", "cosets", "modular", "sums"},
    "alpha": ALPHA_LAYERS,
    "table": ALPHA_LAYERS,
    "scan": {"cosets", "modular"},
    "empirical": ALPHA_LAYERS | {"empirical"},
}


def test_each_command_runs_only_its_layers(tmp_path):
    # a sitecustomize on the path reports, at exit of `python -m gelfond.cli`,
    # which layers are registered and which of them ran; an unrun lazy module
    # is not yet a plain module, and type() does not make it run
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, json, sys, types\n"
        f"layers = {sorted({*LAYERS, 'modular'})!r}\n"
        "atexit.register(lambda: print(json.dumps([\n"
        "    sorted(k for k in layers if 'gelfond.' + k in sys.modules),\n"
        "    sorted(k for k in layers if type(sys.modules.get('gelfond.' + k)) is types.ModuleType),\n"
        "]), file=sys.stderr))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), *sys.path]))
    assert set(COMMAND_LAYERS) == set(cli._COMMANDS)
    for argv, _ in MODULE_RUNS:
        command = next(a for a in argv if a in cli._COMMANDS)
        proc = subprocess.run([sys.executable, "-m", "gelfond.cli", *argv], env=env,
                              capture_output=True, text=True, check=True)
        registered, ran = json.loads(proc.stderr.splitlines()[-1])
        assert registered == sorted({*LAYERS, "modular"}), argv
        assert set(ran) == COMMAND_LAYERS[command], argv


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_usage_commands():
    """The `gelfond ...` lines of README's usage block, as argument lists."""
    readme = README.read_text()
    blocks = re.findall(r"^```\n(gelfond .*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1, "README should hold one block of gelfond commands"
    return [shlex.split(line, comments=True) for line in blocks[0].splitlines()]


def test_readme_usage_commands_run(capsys):
    commands = readme_usage_commands()
    assert {argv[1] for argv in commands} == set(cli._COMMANDS)
    for argv in commands:
        assert argv[0] == "gelfond", argv
        code, out, err = run_cli(capsys, *argv[1:])
        assert code == 0, (argv, err)
        if "--csv" in argv or "csv" in argv:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows), argv
        else:
            env = json.loads(out)
            assert list(env) == ["schema_version", "command", "inputs", "result", "timing_ms"]
            assert env["command"] == argv[1] and env["result"], argv


#: The keys of each command's result, in order; a nested dict (or a list of
#: dicts) as (key, its keys).  A CSV form lists its header.
ALPHA_KEYS = ["m", "alpha", "argmax_rep", "lambda", "log2_v", "bounded"]
VERIFICATION_KEYS = ("verification", ["a", "depth", "multipliers", "checks", "max_defect"])
EMPIRICAL_KEYS = ["m", "a", "max_exp", "alpha",
                  ("remainder", ["max_ratio", "argmax_nu", "monotone_top"]), "blocks",
                  ("fit", ["exponent_estimate", "intercept", "residual", "window"])]
RESULT_KEYS = {
    "cosets 15 --all-elements": ["m", "r", "h", "ord2", "representatives", "sizes", "cosets"],
    "alpha 17 --per-rep --closed-form": [*ALPHA_KEYS, "per_rep", "closed_form"],
    "alpha 17 --full-range": ALPHA_KEYS,
    "alpha 12": [*ALPHA_KEYS, "odd_part"],
    "sum 17 0 131072 --method all":
        ["m", "a", "x", "value", ("methods", ["enumerate", "dp", "explicit"]), "agree"],
    "counts 3 2 16": ["m", "a", "x", "t_even", "t_odd", "count", "newman_sum",
                      "x_over_2m", "remainder"],
    "recurrence 17 --depth 12 --multipliers 1,3,5,7 --a 0":
        ["m", "r", "h", "coefficients", "from_sums", "methods_agree", VERIFICATION_KEYS],
    "recurrence 15": ["m", "r", "h", "coefficients", "from_sums", "methods_agree", "finding",
                      VERIFICATION_KEYS],
    "classify 7": ["p", "class", "ord2", "minus_one_solvable"],
    "scan --class semiprimitive --max 263": ["class", "max", "count", "primes"],
    "scan --class primitive --max 1000 --with-alpha":
        ["class", "max", "count", "primes", "alphas", "min_alpha"],
    "table --set paper": ["set", ("rows", ["m", "alpha", "alpha_4dec"])],
    "empirical 3 0 --max-exp 24": [*EMPIRICAL_KEYS, (
        "envelope", ["calib_end", "upper_c", "upper_violations", "omega_attained", "omega_margin"])],
    "empirical 3 0 --max-exp 24 --csv": ["nu", "sup", "argmax_x", "log2_sup"],
    "empirical 8 0 --max-exp 12": EMPIRICAL_KEYS,  # bounded sums: no envelope
}


def result_keys(result):
    """The keys of a result dict in order; a nested dict, or a list of dicts
    that share their keys, as (key, its keys)."""
    keys = []
    for key, value in result.items():
        if isinstance(value, dict):
            value = [value]
        if isinstance(value, list) and value and isinstance(value[0], dict):
            shapes = [result_keys(d) for d in value]
            assert all(shape == shapes[0] for shape in shapes), key
            keys.append((key, shapes[0]))
        else:
            keys.append(key)
    return keys


def test_each_command_pins_its_result_keys(capsys):
    lines = {shlex.join(argv[1:]) for argv in readme_usage_commands()}
    assert set(RESULT_KEYS) == lines | {"alpha 12", "recurrence 15", "empirical 8 0 --max-exp 12"}
    for line, expected in RESULT_KEYS.items():
        code, out, err = run_cli(capsys, *shlex.split(line))
        assert code == 0, (line, err)
        if "--csv" in line:
            assert out.splitlines()[0].split(",") == expected
        else:
            assert result_keys(json.loads(out)["result"]) == expected, line


def test_readme_module_table_names_exist():
    section = README.read_text().split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", section, re.M)
    assert {module for module, _ in rows} == {*LAYERS, "modular"}
    for module, contents in rows:
        namespace = vars(importlib.import_module(f"gelfond.{module}"))
        missing = [name for name in re.findall(r"`([^`]+)`", contents)
                   if name not in namespace]
        assert missing == [], module
    # every public function is named in the row of the module gelfond takes it from
    source = {name: layer for layer, names in gelfond._PUBLIC.items() for name in names}
    listed = dict(rows)
    unlisted = [name for name in gelfond.__all__
                if inspect.isfunction(getattr(gelfond, name))
                and f"`{name}`" not in listed[source[name]]]
    assert unlisted == []


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
    assert "minimal order 3 of 4" in result["finding"]
    assert result["verification"]["max_defect"] == 0


def test_recurrence_from_sums_reads_a_later_phase(capsys):
    # the step-1 offset system of (31, 1) was singular; its h-phase 0 has
    # minimal order 6 of 6
    result = run_json(capsys, "recurrence", "31", "--a", "1")["result"]
    assert result["from_sums"] == result["coefficients"]
    assert result["methods_agree"] is True
    assert "finding" not in result


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


def test_truncate_cuts_below_a_boundary():
    # a float just below a decimal boundary is cut, never rounded up to it
    assert cli._truncate(0.6332999999999999, 4) == "0.6332"
    assert cli._truncate(1.99999999999, 4) == "1.9999"
    assert cli._truncate(-1.99999999999, 4) == "-1.9999"
    assert cli._truncate(0.79248125036057, 4) == "0.7924"
    assert cli._truncate(2.0, 4) == "2.0000"


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
    # an even m is checked against the exponent of its odd part; a power of
    # two, m = 1 included, has bounded sums and no envelope to check
    even = run_json(capsys, "empirical", "6", "1", "--max-exp", "12")["result"]
    assert even["alpha"] == result["alpha"] and "envelope" in even
    for m in ("1", "8"):
        bounded = run_json(capsys, "empirical", m, "0", "--max-exp", "12")["result"]
        assert bounded["alpha"] == 0 and "envelope" not in bounded, m


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


def test_cosets_csv_decomposes_once(capsys, monkeypatch):
    calls = []
    decompose = cosets.cyclotomic_cosets
    monkeypatch.setattr(cosets, "cyclotomic_cosets", lambda m: calls.append(m) or decompose(m))
    code, out, _ = run_cli(capsys, "--format", "csv", "cosets", "63")
    assert code == 0 and calls == [63]
    rows = [f"{c[0]},{len(c)},{' '.join(map(str, c))}" for c in decompose(63).cosets]
    assert out == "\n".join(["representative,size,elements", *rows]) + "\n"


def test_csv_rejected_for_scalar_commands(capsys):
    code, _, err = run_cli(capsys, "--format", "csv", "classify", "7")
    assert code == 2
    assert "no CSV" in err


def test_validation_exit_codes(capsys):
    assert run_cli(capsys, "cosets", "4")[0] == 2
    assert run_cli(capsys, "sum", "5", "7", "3")[0] == 2
    assert run_cli(capsys, "classify", "15")[0] == 2
    assert run_cli(capsys, "classify", "10000019")[0] == 2  # past PRIMALITY_BOUND
    assert run_cli(capsys, "empirical", "3", "0", "--max-exp", "257")[0] == 2


def test_argparse_errors_use_code_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["scan"])  # --max is required
    assert info.value.code == 2


#: Each command's one-line help and the arguments its --help lists, in order.
COMMAND_HELP = {
    "cosets": ("cyclotomic cosets of 2 mod m", ["m", "-h, --help", "--all-elements"]),
    "alpha": ("exact remainder exponent alpha(m)",
              ["m", "-h, --help", "--per-rep", "--full-range", "--closed-form"]),
    "sum": ("Newman-like sum S(m, a, x)", ["m", "a", "x", "-h, --help", "--method"]),
    "counts": ("digit-sum parity counts in the class", ["m", "a", "x", "-h, --help"]),
    "recurrence": ("integer recurrence coefficients + check",
                   ["m", "-h, --help", "--depth", "--multipliers", "--a"]),
    "classify": ("primitive/semiprimitive root status of 2", ["p", "-h, --help"]),
    "scan": ("scan primes by root classification",
             ["-h, --help", "--class", "--max", "--with-alpha"]),
    "table": ("closing table of exponents", ["-h, --help", "--set"]),
    "empirical": ("dyadic sup profile, fit, remainder scan",
                  ["m", "a", "-h, --help", "--max-exp", "--window", "--csv"]),
}


def run_exit(capsys, *argv):
    """(exit code, stdout, stderr) of a call that argparse ends."""
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def test_help_of_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert set(COMMAND_HELP) == set(cli._COMMANDS)
    for name, (_, options) in COMMAND_HELP.items():
        code, out, err = run_exit(capsys, name, "--help")
        assert (code, err) == (0, ""), name
        assert out.startswith(f"usage: gelfond {name} [-h]"), name
        assert re.findall(r"^  (-h, --help|[-\w]+)", out, re.M) == options, name
    code, out, err = run_exit(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: gelfond [-h] [--format {json,csv}] [--precision PRECISION]\n")
    listed = re.findall(r"^    (\w+) +(.+)$", out, re.M)
    assert listed == [(name, text) for name, (text, _) in COMMAND_HELP.items()]
    assert "  --format {json,csv}\n" in out and "  --precision PRECISION\n" in out


TOP_USAGE = """usage: gelfond [-h] [--format {json,csv}] [--precision PRECISION]
               {cosets,alpha,sum,counts,recurrence,classify,scan,table,empirical}
               ...
"""


@pytest.mark.parametrize("argv, message", [
    ([], TOP_USAGE + "gelfond: error: the following arguments are required: command\n"),
    (["bogus", "1"], TOP_USAGE + "gelfond: error: argument command: invalid choice: 'bogus' "
     "(choose from 'cosets', 'alpha', 'sum', 'counts', 'recurrence', 'classify', 'scan', "
     "'table', 'empirical')\n"),
    (["scan"], "usage: gelfond scan [-h] [--class {semiprimitive,primitive}] --max MAX\n"
     "                    [--with-alpha]\n"
     "gelfond scan: error: the following arguments are required: --max\n"),
    (["table", "--format", "csv"],
     TOP_USAGE + "gelfond: error: unrecognized arguments: --format csv\n"),
    (["alpha", "17", "--", "3"], TOP_USAGE + "gelfond: error: unrecognized arguments: 3\n"),
])
def test_parse_errors_keep_their_text(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_exit(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize("argv, full", [
    (["--form", "csv", "table"], ["--format", "csv", "table"]),
    (["sum", "5", "2", "1000", "--meth", "all"], ["sum", "5", "2", "1000", "--method", "all"]),
    (["alpha", "17", "--per"], ["alpha", "17", "--per-rep"]),
    (["alpha", "--", "17"], ["alpha", "17"]),
])
def test_abbreviations_and_double_dash_parse_as_the_full_form(capsys, argv, full):
    def untimed(out):  # a JSON envelope less its timing, or the CSV text
        return {**json.loads(out), "timing_ms": None} if out.startswith("{") else out

    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, ""), argv
    assert untimed(out) == untimed(run_cli(capsys, *full)[1]), argv


def test_over_long_integer_is_refused_by_its_length(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_exit(capsys, "sum", "1", "0", "9" * (limit + 1))
    assert (code, out) == (2, "")
    assert len(err) < 300
    assert f"argument x: {limit + 1}-digit integer exceeds the limit of {limit} digits" in err
    x = "9" * limit
    env = run_json(capsys, "sum", "1", "0", x)
    assert int(env["result"]["value"]) == newman_sum_dp(1, 0, int(x))


def test_result_payload_deterministic(capsys):
    first = run_json(capsys, "table")
    second = run_json(capsys, "table")
    assert first["result"] == second["result"]
    assert first["inputs"] == second["inputs"]


def test_precision_flag(capsys):
    env = run_json(capsys, "--precision", "3", "alpha", "17")
    assert env["result"]["alpha"] == 0.633


@pytest.mark.parametrize("argv", [
    ["--precision", "-1", "--format", "csv", "table"],
    ["--precision", "-2", "alpha", "17"],
])
def test_negative_precision_is_refused(capsys, argv):
    code, out, err = run_exit(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(
        f"gelfond: error: argument --precision: invalid non-negative int value: '{argv[1]}'\n"
    )


def test_precision_zero_rounds_to_whole_numbers(capsys):
    assert run_json(capsys, "--precision", "0", "alpha", "17")["result"]["alpha"] == 1.0
    code, out, _ = run_cli(capsys, "--precision", "0", "--format", "csv", "table")
    assert code == 0
    assert out.startswith("m,alpha,alpha_4dec\n3,1,0.7924\n")


def test_bad_multiplier_list_names_its_type(capsys):
    code, out, err = run_exit(capsys, "recurrence", "17", "--multipliers", "1,,3")
    assert (code, out) == (2, "")
    assert err.endswith(
        "error: argument --multipliers: invalid comma-separated int value: '1,,3'\n"
    )
