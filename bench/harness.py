"""Paths, the subprocess runner and small helpers shared by run.py, tracing.py and pin.py."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
PINS = BENCH / "pins.json"
CONTRACT = ROOT / "BENCHMARK.json"
SETUP_REPS = 5
COMMAND_TIMEOUT_S = 120
# stop starting passes once this much of the run has gone, whatever --seconds says
HARD_LIMIT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("QCK_SIZE_CAP", None)
    return env


def run_cli(argv: list[str], env: dict) -> tuple[int, str, float, int]:
    """Run one qck command as users do. Returns (exit code, stdout, wall seconds, max RSS in KiB)."""
    cmd = [sys.executable, "-c", "import sys; from qck.cli import main; sys.exit(main())", *argv]
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=WORK, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"), wall, usage.ru_maxrss


def require_src(qck_file: str) -> None:
    """Refuse to measure a qck that is not the checkout's own."""
    if not Path(qck_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"import qck loaded {qck_file!r}, not the sources under {SRC}")


def check_checkout() -> None:
    if not (SRC / "qck" / "__init__.py").is_file():
        raise BenchError(f"no qck sources at {SRC}; run from a qck source checkout")
    WORK.mkdir(exist_ok=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class Tally:
    """Commands attempted and failed, with the first few problems for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def timing_line(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name:<20} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"
