"""Benchmark of gelfond: four workloads, end-to-end and per-layer metrics.

One run, as BENCHMARK.json's command is invoked:

    python3 bench/run.py --workload exact-dyadic --seed 1 --seconds 30 --trace 0

runs the workload in a fresh single-threaded interpreter (worker.py), which
also times the set-up (cold start of fresh interpreters up to importing
gelfond), and prints one JSON line last: correct, attempted, failed and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

Other modes:

    --repeat N [--workload W] [--out FILE]   N runs per workload, seeds
                                             --seed .. --seed+N-1; medians,
                                             quartiles and spreads per metric
    --compare A.json B.json                  two --repeat result sets against
                                             BENCHMARK.json's bounds
    --smoke                                  every workload at tiny size, traced
                                             and untraced, plus a self-test that
                                             perturbs each checked output

The program is always the one in this checkout's src/; the run fails (exit
2) when src/gelfond is missing.  Only the standard library is used here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Each run must end within 180 s.
WORKER_TIMEOUT_S = 170


def child_env() -> dict:
    """This checkout's src first on the path; every numeric library on one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


WORKLOADS = tuple(w["name"] for w in spec()["workloads"])


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def single_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = child_env()
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        OUT.mkdir(exist_ok=True)
        args += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    res = run_worker(args, env, WORKER_TIMEOUT_S)
    for message in res["errors"]:
        print(f"WRONG {message}", file=sys.stderr)
    for message in res["known_faults"]:
        print(f"failed {message}", file=sys.stderr)
    if trace:
        wanted = spec()["per_layer"]
        values = res["layers"]
    else:
        wanted = spec()["end_to_end"]
        values = {"wall_s": res["wall_s"],
                  "setup_s": statistics.median(res["setup_s"]),
                  "peak_rss_mib": res["peak_rss_mib"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics {missing} were not measured")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{workload} seed={seed} trace={trace}: {res['rounds']} rounds x "
          f"{res['ops_per_round']} operations")
    if not trace:
        print(f"  as measured, before scaling to the reference speed: median round "
              f"{statistics.median(res['wall_measured_s']):.6g} s, median set-up "
              f"{statistics.median(res['setup_measured_s']):.6g} s")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


# ------------------------------------------------------------ repeat mode


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles and spread (q3 - q1) / median of each metric."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def machine() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "platform": platform.platform()}


def repeat(workloads, n, seed0, seconds, trace, out_path):
    result = {"machine": machine(), "seconds": seconds, "trace": trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for i in range(n):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed0 + i), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed0 + i} exited {proc.returncode}")
            runs.append({"seed": seed0 + i, **json.loads(proc.stdout.strip().splitlines()[-1])})
        summary = summarize(runs)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        result["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "failed_shares": shares}
        print(f"{workload}: {n} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed share {shares}")
        for name, s in summary.items():
            print(f"  {name:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w") as fh:
            json.dump(result, fh, indent=1)
    return result


def compare(path_a, path_b) -> int:
    """Spreads within bounds, medians within bounds, failed shares identical."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    bad = 0
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        if wa["failed_shares"] != wb["failed_shares"] or len(wa["failed_shares"]) != 1:
            print(f"FAIL {workload}: failed shares {wa['failed_shares']} vs {wb['failed_shares']}")
            bad += 1
        for metric in spec()["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa, sb = wa["summary"][name], wb["summary"][name]
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= bound and sa["spread"] <= bound and sb["spread"] <= bound
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:13s} {name:13s} bound {bound:.2f}  "
                  f"spread {sa['spread']:.4f} / {sb['spread']:.4f}  change {change:+.4f}")
    return 1 if bad else 0


# ------------------------------------------------------------- smoke mode


def smoke() -> int:
    env = child_env()
    wanted = [m["name"] for m in spec()["per_layer"]]
    bad = 0
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "1", "--seconds", "0", "--tiny"]
        plain = run_worker(base + ["--self-test"], env, 300)
        traced = run_worker(base + ["--trace", "1"], env, 300)
        faults = plain["known_fault_ops"]  # one round: --self-test stops after it
        problems = list(plain["errors"]) + [f"self-test missed {m}"
                                            for m in plain["self_test"]["missed"]]
        if plain["failed"] != faults or len(plain["known_faults"]) != faults:
            problems.append(f"{plain['failed']} failed operations, expected {faults}")
        problems += [f"traced run lacks {name}" for name in wanted
                     if name not in traced["layers"]]
        if traced["failed"] * plain["attempted"] != plain["failed"] * traced["attempted"]:
            problems.append("traced and untraced runs fail differently")
        bad += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {workload}: {plain['ops_per_round']} "
              f"operations, {plain['self_test']['perturbed']} perturbed outputs rejected")
        for p in problems:
            print(f"     {p}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if not (SRC / "gelfond" / "__init__.py").is_file():
        print(f"no gelfond sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.repeat:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        result = repeat(workloads, args.repeat, args.seed, args.seconds, args.trace, args.out)
        return 0 if all(r["correct"] for w in result["workloads"].values()
                        for r in w["runs"]) else 1
    if not args.workload:
        parser.error("--workload is required for a single run")
    result = single_run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
