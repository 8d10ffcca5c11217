#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-check

The first form builds perfbench/bench.exe with dune, runs one workload (or
each in turn) and passes its output through; the last line of standard
output is the result as one JSON object.  The second form runs every
workload at a tiny scale and checks the result lines (see README.md).
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
CLI = os.path.join(ROOT, "_build", "default", "bin", "gigaflow_sim.exe")
WORKLOADS = ["psc_high", "psc_low", "zipf_hh"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("run.py: dune is not on PATH")


def build(*targets):
    # dune reports on stderr; standard output is kept for the result line.
    # Its shared cache lives outside the checkout, so it is kept off.
    r = subprocess.run(
        dune() + ["build", "--root", ROOT] + list(targets),
        cwd=ROOT,
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if r.returncode != 0:
        sys.exit(f"run.py: build failed ({r.returncode})")


def run_bench(args):
    """Run bench.exe; return (exit code, stdout lines, parsed result)."""
    r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return r.returncode, lines, result


def valid_result(result):
    return (
        isinstance(result, dict)
        and set(result) == RESULT_KEYS
        and isinstance(result["attempted"], int)
        and result["attempted"] >= 1
        and isinstance(result["failed"], int)
        and all(
            isinstance(m.get("value"), (int, float)) and isinstance(m.get("unit"), str)
            for m in result["metrics"].values()
        )
    )


def cli_counts(workload, seed):
    """SmartNIC hit rate (percent, as printed) and slowpath count from
    `gigaflow-sim run` at the self-check scale of a CAIDA workload."""
    locality = {"psc_high": "high", "psc_low": "low"}[workload]
    out = subprocess.run(
        [CLI, "run", "-p", "PSC", "-l", locality, "--combos", "1024", "--flows", "300",
         "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    rate = re.search(r"SmartNIC hit rate\s*\|\s*([\d.]+)%", out).group(1)
    slow = re.search(r"slowpath executions\s*\|\s*([\d,]+)", out).group(1)
    return rate, int(slow.replace(",", ""))


def self_check():
    build("./perfbench/bench.exe", "./bin/gigaflow_sim.exe")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    modelled = ["hw_hit_rate", "modelled_latency_mean_us", "modelled_latency_tail_us"]
    seed = 42
    problems = []
    for w in WORKLOADS:
        firsts = {}
        for trace, repeat in [(0, 0), (0, 1), (1, 0)]:
            code, lines, result = run_bench(
                ["--workload", w, "--seed", str(seed), "--seconds", "1", "--trace",
                 str(trace), "--tiny"])
            tag = f"{w} trace={trace}"
            if code != 0 or not valid_result(result):
                problems.append(f"{tag}: exit {code}, result line invalid or incorrect")
                continue
            names = set(result["metrics"])
            if names != wanted[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(names ^ wanted[trace])}")
            bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"])]
            if bad or not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']} non-finite={bad}")
            if trace == 0 and repeat == 0:
                firsts = {k: result["metrics"][k]["value"] for k in modelled}
                text = "\n".join(lines)
                if w != "zipf_hh":
                    rate = re.search(r"SmartNIC hit rate ([\d.]+)%", text).group(1)
                    slow = int(re.search(r"slowpath executions (\d+)", text).group(1))
                    if cli_counts(w, seed) != (rate, slow):
                        problems.append(f"{w}: gigaflow-sim run reports {cli_counts(w, seed)}, "
                                        f"the benchmark {(rate, slow)}")
            elif trace == 0:
                again = {k: result["metrics"][k]["value"] for k in modelled}
                if again != firsts:
                    problems.append(f"{w}: modelled metrics differ between runs: "
                                    f"{firsts} vs {again}")
            print(f"self-check {tag}: {len(names)} metrics, correct={result['correct']}")
    for p in problems:
        print("FAIL " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    if argv == ["--self-check"]:
        return self_check()
    build("./perfbench/bench.exe")
    runs = [argv]
    if "all" in argv:
        # One workload after another, each with its own result line.
        i = argv.index("all")
        runs = [argv[:i] + [w] + argv[i + 1:] for w in WORKLOADS]
    worst = 0
    for args in runs:
        code, lines, result = run_bench(args)
        for line in lines:
            print(line)
        sys.stdout.flush()
        if code == 0 and not valid_result(result):
            code = 1
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
