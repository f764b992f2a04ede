"""Runs one workload in this (fresh, single-threaded) interpreter.

Started by run.py, never imported.  Repeats the workload's operation list in
whole rounds until the next round would overrun --seconds (at least one
round), checks every output against the benchmark's references outside the
timed region, and prints one JSON object on stdout.  Untraced runs also time
the set-up: fresh interpreters importing gelfond, started between rounds.
With --trace, rounds alternate untraced and traced, so the run also yields
the tracing overhead.

Every operation and set-up probe is timed between two runs of a fixed
pure-Python loop, which read the host's current speed (and, past
SAMPLE_EVERY_S, with more runs inside it); each time is reported both as
measured and scaled to the reference speed (see REFERENCE_LOOP_S).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

_t0 = time.perf_counter()
import gelfond.cli  # noqa: E402  (timed: this is the worker's own import cost)

IMPORT_S = time.perf_counter() - _t0

import workloads  # noqa: E402
from reference import CheckError  # noqa: E402
from tracer import COUNTER_NAMES, Tracer  # noqa: E402

CLI_TIMEOUT_S = 60
#: Set-up probes per untraced run.  They are spread evenly over the run,
#: because the host's speed drifts over seconds: a block of probes taken at
#: one moment reads that moment's speed.
SETUP_PROBES = 12

#: The speed loop's iterations, and its wall time at the reference speed: the
#: faster of the two states between which the reference host (README)
#: switches every few seconds, about 1.5 times apart.  Whole runs do not
#: average these states out, so an operation that took t is also reported as
#: t * REFERENCE_LOOP_S / (mean of the speed loops run before, during and
#: after it).
SPEED_LOOP_N = 60_000
REFERENCE_LOOP_S = 0.0037
#: An operation that runs longer than this is interrupted this often to run
#: the speed loop, whose time is taken out of the operation's.  CLI calls and
#: set-up probes in child processes end sooner, so the loop does not compete
#: with a child.
SAMPLE_EVERY_S = 1.0


def speed_loop() -> float:
    """Wall time of a fixed pure-Python loop that touches no gelfond code."""
    start = time.perf_counter()
    s = 0
    for i in range(SPEED_LOOP_N):
        s += i * i % 7
    return time.perf_counter() - start


def timed(fn, loop_before: float):
    """(fn(), wall time, wall time at the reference speed, speed loop after)."""
    inner = []
    signal.signal(signal.SIGALRM, lambda *_: inner.append(speed_loop()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    out = fn()
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start - sum(inner)
    loop_after = speed_loop()
    speed = statistics.mean([loop_before, *inner, loop_after])
    return out, wall, wall * REFERENCE_LOOP_S / speed, loop_after


def probe_setup(module: str) -> tuple[float, float]:
    """(measured, reference-speed) wall time of a fresh interpreter that
    imports `module` and exits."""
    cmd = [sys.executable, "-c", f"import {module}"]
    # A bare wait() blocks in waitpid; with a timeout, subprocess polls in
    # sleeps of up to 50 ms, and the exit would be seen up to that much late.
    code, wall, scaled, _ = timed(lambda: subprocess.Popen(cmd).wait(), speed_loop())
    if code != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {code}")
    return wall, scaled


def _outcome(op):
    try:
        return ("ok", op.run())
    except Exception as exc:  # every failure of the program is counted, never fatal
        return ("error", type(exc).__name__, str(exc))


def verdict(op, outcome) -> tuple[str, str]:
    """('ok' | 'expected' | 'wrong', message) for one operation's outcome."""
    if outcome[0] == "error":
        if outcome[1] == op.expect_error:
            return "expected", f"{op.name}: {outcome[1]} (known fault)"
        return "wrong", f"{op.name}: raised {outcome[1]}: {outcome[2]}"
    try:
        op.check(outcome[1])
    except CheckError as exc:
        if str(exc) == op.expect_error:
            return "expected", f"{op.name}: {exc} (known fault)"
        return "wrong", f"{op.name}: {exc}"
    except Exception as exc:  # a check that crashes on an output rejects it
        return "wrong", f"{op.name}: check raised {type(exc).__name__}: {exc}"
    return "ok", ""


def perturb(value):
    """The value with its first number changed: (new value, changed?)."""
    if isinstance(value, bool):
        return value, False
    if isinstance(value, int):
        return value + 1, True
    if isinstance(value, float):
        return value * 1.001 + 1e-3, True
    if isinstance(value, str):
        return (str(int(value) + 1), True) if value.lstrip("-").isdigit() else (value, False)
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            new, done = perturb(getattr(value, field.name))
            if done:
                return dataclasses.replace(value, **{field.name: new}), True
        return value, False
    if isinstance(value, dict):
        for key, item in value.items():
            new, done = perturb(item)
            if done:
                return {**value, key: new}, True
        return value, False
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            new, done = perturb(item)
            if done:
                items = list(value)
                items[i] = new
                if isinstance(value, list):
                    return items, True
                return (type(value)(*items) if hasattr(value, "_fields")
                        else type(value)(items)), True
        return value, False
    return value, False


class SubprocessCli:
    """Runs `gelfond ...` as a child process; traced rounds use cli_traced.py."""

    def __init__(self):
        self.tracer = None       # set during traced rounds
        self.import_s = []

    def __call__(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "gelfond.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - start
        if self.tracer is not None:
            report = json.loads(proc.stderr.strip().splitlines()[-1])
            self.import_s.append(report["import_s"])
            self.tracer.merge(report["metrics"], report["spans"])
        return proc.returncode, proc.stdout, wall


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    if not Path(gelfond.__file__).resolve().is_relative_to(SRC):
        print(f"gelfond imported from {gelfond.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    subprocess_cli = SubprocessCli() if args.workload == "cli-session" else None
    runner = workloads.CliRunner(subprocess_cli)
    ops = workloads.build(args.workload, args.seed, args.tiny, runner)

    # (tracer or None, wall_s, outcomes, cli calls, compute_s, overhead_s,
    #  each operation's wall time at the reference speed)
    rounds = []

    def run_round(tracer):
        gc.collect()
        runner.reset()
        if tracer is not None:
            tracer.install()
            if subprocess_cli is not None:
                subprocess_cli.tracer = tracer
        outcomes, wall, scaled = [], 0.0, []
        loop = speed_loop()
        for op in ops:
            outcome, op_wall, op_scaled, loop = timed(lambda: _outcome(op), loop)
            outcomes.append(outcome)
            wall += op_wall
            scaled.append(op_scaled)
        if tracer is not None:
            tracer.uninstall()
            if subprocess_cli is not None:
                subprocess_cli.tracer = None
        rounds.append((tracer, wall, outcomes, runner.calls, runner.compute_s,
                       runner.overhead_s, scaled))

    module = "gelfond.cli" if args.workload == "cli-session" else "gelfond"
    setup_s = []
    probes = 0 if args.trace else SETUP_PROBES
    if probes:
        probe_setup(module)  # untimed: the first one may still write bytecode caches
    start = time.perf_counter()
    passes = 0
    while True:
        # the probes due by now, on a schedule of one per --seconds / probes
        while len(setup_s) < probes and len(setup_s) * args.seconds <= (
                time.perf_counter() - start) * probes:
            setup_s.append(probe_setup(module))
        run_round(None)
        if args.trace:
            run_round(Tracer())
        passes += 1
        elapsed = time.perf_counter() - start
        if args.self_test or elapsed * (passes + 1) / passes > args.seconds:
            break
    while len(setup_s) < probes:  # the run ended ahead of the schedule
        setup_s.append(probe_setup(module))
    usage = resource.RUSAGE_CHILDREN if subprocess_cli is not None else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(usage).ru_maxrss / 1024  # Linux reports KiB

    # checks, outside the timed region; an output equal to round 0's shares its verdict
    first = rounds[0][2]
    first_verdicts = [verdict(op, o) for op, o in zip(ops, first)]
    attempted = failed = 0
    errors = []
    for _, _, outcomes, *_ in rounds:
        for i, (op, outcome) in enumerate(zip(ops, outcomes)):
            v = first_verdicts[i] if outcome == first[i] else verdict(op, outcome)
            attempted += 1
            if v[0] != "ok":
                failed += 1
                if v[0] == "wrong" and v[1] not in errors:
                    errors.append(v[1])

    result = {
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "attempted": attempted,
        "failed": failed,
        "correct": not errors,
        "errors": errors,
        "known_faults": sorted({v[1] for v in first_verdicts if v[0] == "expected"}),
        "known_fault_ops": sum(op.expect_error is not None for op in ops),
        # the sum over operations of each one's median over the untraced rounds
        "wall_s": sum(statistics.median(times) for times in zip(
            *(r[6] for r in rounds if r[0] is None))),
        "wall_measured_s": [r[1] for r in rounds if r[0] is None],
        "setup_s": [scaled for _, scaled in setup_s],
        "setup_measured_s": [wall for wall, _ in setup_s],
        "peak_rss_mib": peak_rss_mib,
    }
    if args.trace:
        result["layers"] = layer_metrics(rounds, subprocess_cli)
        if args.spans:
            rounds[1][0].dump(args.spans)
    if args.self_test:
        result["self_test"] = self_test(ops, first, first_verdicts)
    print(json.dumps(result))
    return 0


def layer_metrics(rounds, subprocess_cli) -> dict:
    """Medians over the traced rounds; CLI cost from the untraced rounds."""
    plain = [r for r in rounds if r[0] is None]
    traced = [r for r in rounds if r[0] is not None]
    per_round = [r[0].metrics() for r in traced]
    out = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    out.update({name: per_round[0][name] for name in per_round[0]
                if name.endswith(".calls") or name in COUNTER_NAMES})  # exact, every round
    out["cli.calls"] = plain[0][3]
    # a mean, not a median: timing_ms comes in whole milliseconds
    out["cli.compute_s"] = statistics.mean(r[4] for r in plain)
    out["cli.overhead_s"] = statistics.median(r[5] for r in plain)
    out["cli.import_s"] = (statistics.median(subprocess_cli.import_s)
                           if subprocess_cli is not None else IMPORT_S)
    out["trace.overhead_s"] = (statistics.median(r[1] for r in traced)
                               - statistics.median(r[1] for r in plain))
    return out


def self_test(ops, outcomes, verdicts) -> dict:
    """Perturb each passing output in turn; every one must be rejected."""
    tried, missed = 0, []
    for op, outcome, v in zip(ops, outcomes, verdicts):
        if v[0] != "ok":
            continue
        value, changed = perturb(outcome[1])
        if not changed:
            missed.append(f"{op.name}: no number to perturb")
            continue
        tried += 1
        if verdict(op, ("ok", value))[0] != "wrong":
            missed.append(op.name)
    return {"perturbed": tried, "missed": missed}


if __name__ == "__main__":
    sys.exit(main())
