"""qck benchmark runner.

    python3 bench/run.py --workload quasi-pipeline --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Run it from anywhere inside a source checkout; it uses the checkout's
``src/qck`` and writes only under ``bench/.work``. Standard library only.

With ``--trace 0`` it times the ``qck`` CLI the way users run it: one
subprocess per command, one closed-loop client issuing one command at a time.
It repeats the workload's pass of commands until ``--seconds`` is used up
(at least once) and reports medians. With ``--trace 1`` it runs the same
commands in-process, alternating untraced and traced passes, and reports the
per-layer metrics of tracing.py. Either way every command's verdict is
checked (workloads.py) and the last stdout line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it are a human-readable report, including the per-command
timings and the informational fields that are not gated.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

import oracles
import workloads
from harness import (
    CONTRACT, HARD_LIMIT_S, PINS, SETUP_REPS, SRC, WORK,
    BenchError, Tally, check_checkout, child_env, require_src, run_cli, timing_line,
)


def measure_setup(plan: workloads.Plan, env: dict, pins: dict, tally: Tally) -> list[float]:
    """Interpreter start with `import qck`, plus building the untimed inputs, several times."""
    probe = [sys.executable, "-c", "import qck; print(qck.__file__)"]
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        found = subprocess.run(probe, cwd=WORK, env=env, capture_output=True, text=True, check=False)
        if found.returncode != 0:
            raise BenchError(f"import qck failed: {found.stderr.strip()}")
        require_src(found.stdout.strip())
        for cmd in plan.setup:
            rc, out, _, _ = run_cli(cmd.argv, env)
            tally.record(workloads.verdict_problems(cmd, rc, out, pins))
        times.append(time.perf_counter() - start)
    return times


def measure_untraced(plan: workloads.Plan, seconds: float, pins: dict, tally: Tally) -> tuple[dict, list[str]]:
    env = child_env()
    setup = measure_setup(plan, env, pins, tally)
    per_key: dict[str, list[float]] = {}
    passes: list[float] = []
    peak_kib = 0
    start = time.perf_counter()
    while True:
        walls: dict[str, float] = {}
        for cmd in plan.commands:
            rc, out, wall, rss = run_cli(cmd.argv, env)
            tally.record(workloads.verdict_problems(cmd, rc, out, pins))
            walls[cmd.key] = walls.get(cmd.key, 0.0) + wall
            peak_kib = max(peak_kib, rss)
        for key, wall in walls.items():
            per_key.setdefault(key, []).append(wall)
        passes.append(sum(walls.values()))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > min(seconds, HARD_LIMIT_S):
            break
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pipeline_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    report = [timing_line("setup_s", setup, "s"), timing_line("pipeline_s", passes, "s")]
    report += [timing_line(f"{key}_s", walls, "s") for key, walls in per_key.items()]
    if "fuzz" in per_key:
        rates = [workloads.FUZZ_COUNT / w for w in per_key["fuzz"]]
        report.append(timing_line("fuzz_mutants_per_s", rates, "1/s"))
    report.append(f"peak_rss_mb  {peak_kib / 1024:.1f} MB (largest child ru_maxrss)")
    return metrics, report


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "qck").glob("*.py"))


def load_contract() -> dict:
    try:
        return json.loads(CONTRACT.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BenchError(f"{CONTRACT} is missing") from None


def run_workload(name: str, why: str, seed: int, seconds: float, trace: bool, declared: list[dict]) -> dict:
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    plan = workloads.plan(name, seed, WORK, pins)
    tally = Tally()
    if trace:
        import tracing

        metrics, report = tracing.measure_traced(plan, name, seed, seconds, pins, tally)
    else:
        metrics, report = measure_untraced(plan, seconds, pins, tally)
    got = {k: u for k, (_, u) in metrics.items()}
    if got != {m["name"]: m["unit"] for m in declared}:
        raise BenchError(f"metrics {sorted(got)} do not match those BENCHMARK.json declares")
    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  ({why})")
    print(f"# python {platform.python_version()}  src_lines {src_lines()}  (informational)")
    for line in report:
        print(f"# {line}")
    print(f"# fail_rate {tally.failed / max(tally.attempted, 1):.4f} ({tally.failed} of {tally.attempted} commands)")
    for problem in tally.problems[:20]:
        print(f"# FAILED {problem}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the qck CLI on the workloads of BENCHMARK.json.")
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        contract = load_contract()
        whys = {w["name"]: w["why"] for w in contract["workloads"]}
        seconds = contract["run_seconds"] if args.seconds is None else args.seconds
        if args.workload != "all" and args.workload not in whys:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(whys)}")
        check_checkout()
        oracles.self_check()
        declared = contract["per_layer" if args.trace else "end_to_end"]
        names = list(whys) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = run_workload(name, whys[name], args.seed, seconds, bool(args.trace), declared)
            sys.stdout.flush()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
