"""Per-layer tracing for the qck benchmark.

The traced run executes a workload's commands in-process through
``qck.cli.main`` and records a span around every call into a qck module's
public functions. Each function is wrapped under every name a qck module
holds it by (the names its callers import, and the module-level dispatch
tables such as the CLI's checker table), so calls between modules are
caught too. Spans stay in memory and are written to
``bench/.work/spans-<workload>-<seed>.json`` when the run ends.

A span's self time is its duration minus its children's. Untraced and
traced passes alternate; the difference of their median wall times is the
tracing overhead.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field

import harness
import workloads


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span
    request: int  # the command this span belongs to
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = 0

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            span = Span(name, self.stack[-1] if self.stack else None, self.request)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span.attrs.update(count(args, result))
            return result

        return traced


def _vertices(args, graph):
    return {"vertices": len(graph)}


def _bytes(args, graph):
    return {"bytes": os.path.getsize(args[0])}


def _witnesses(args, report):
    reports = report.values() if isinstance(report, dict) else [report]
    return {"witnesses": sum(len(r.witnesses) for r in reports)}


def _components(args, comps):
    return {"count": len(comps)}


def _flagged(args, failing):
    return {"flagged": int(bool(failing))}


CHECKERS = [
    "check_lq1", "check_lq2", "check_lq3", "check_lq3p",
    "check_local_ax_cases", "check_cor_infs", "check_lemma_ij", "check_stembridge",
]

# (module, function, span name, counter)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("wordmodel", "tensor_power", "wordmodel.power", _vertices),
    ("wordmodel", "quasi_tensor_power", "wordmodel.power", _vertices),
    ("graphcore", "read_graph", "graphcore.read", _bytes),
    ("graphcore", "to_text", "graphcore.write", None),
    ("graphcore", "to_json", "graphcore.write", None),
    ("graphcore", "validate", "graphcore.validate", None),
    ("graphcore", "is_seminormal", "graphcore.seminormal", None),
    ("graphcore", "QuasiCrystalGraph.copy", "graphcore.copy", None),
    *[("axioms", name, f"axioms.{name}", _witnesses) for name in CHECKERS],
    ("structure", "components", "structure.components", _components),
    ("structure", "rank_table", "structure.rank_table", None),
    ("structure", "isomorphic", "structure.isomorphic", None),
    ("quasify", "crystal_of_content", "quasify.crystal_of_content", _vertices),
    ("quasify", "quasify", "quasify.quasify", None),
    ("characters", "character", "characters.character", None),
    ("characters", "fundamental_qsym", "characters.fundamental_qsym", None),
    ("characters", "verify_schur_decomposition", "characters.verify", None),
    ("mutation", "random_mutation", "mutation.random_mutation", None),
    ("mutation", "run_detectors", "mutation.run_detectors", _flagged),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name, _ in TARGETS))


def install(recorder: Recorder) -> list:
    """Wrap every target wherever qck holds it; returns what uninstall() restores."""
    modules = [m for name, m in sys.modules.items() if name == "qck" or name.startswith("qck.")]
    undo = []
    for module, attr, name, count in TARGETS:
        owner = sys.modules[f"qck.{module}"]
        if "." in attr:  # a method: wrap it on its class
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            undo.append((setattr, owner, attr, getattr(owner, attr)))
            setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, count))
            continue
        orig = getattr(owner, attr)
        traced = recorder.wrap(orig, name, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    undo.append((setattr, m, key, orig))
                    setattr(m, key, traced)
                elif isinstance(value, dict) and key != "__builtins__":
                    for k, v in value.items():
                        if v is orig:
                            undo.append((dict.__setitem__, value, k, orig))
                            value[k] = traced
    return undo


def uninstall(undo: list) -> None:
    for put, container, key, orig in reversed(undo):
        put(container, key, orig)


def import_qck():
    sys.path.insert(0, str(harness.SRC))
    import qck
    import qck.cli

    harness.require_src(qck.__file__)
    return qck


def run_in_process(qck, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = qck.cli.main(argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        return -1, out.getvalue() + traceback.format_exc()
    return rc, out.getvalue()


@dataclass
class PassResult:
    wall: float
    stdout_bytes: int = 0
    valid_mutants: int = 0


def one_pass(qck, plan, pins, tally, recorder: Recorder | None) -> PassResult:
    result = PassResult(0.0)
    for cmd in plan.commands:
        if recorder is not None:
            recorder.request += 1
        start = time.perf_counter()
        rc, out = run_in_process(qck, cmd.argv)
        result.wall += time.perf_counter() - start
        tally.record(workloads.verdict_problems(cmd, rc, out, pins))
        result.stdout_bytes += len(out.encode())
        if cmd.key == "fuzz":
            frozen = workloads.frozen_vertices((harness.WORK / cmd.argv[1]).read_text(encoding="utf-8"))
            result.valid_mutants += workloads.fuzz_accounting(out, workloads.FUZZ_COUNT, frozen)[0]
    return result


def layer_metrics(spans: list[Span], first: int, res: PassResult) -> dict:
    """Per-layer metrics of the spans spans[first:] of one traced pass."""
    child = defaultdict(float)
    self_s = defaultdict(float)
    sums = defaultdict(int)
    calls = defaultdict(int)
    words = 0
    for idx in range(first, len(spans)):
        s = spans[idx]
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    for idx in range(first, len(spans)):
        s = spans[idx]
        self_s[s.name] += s.end - s.start - child[idx]
        calls[s.name] += 1
        for k, v in s.attrs.items():
            sums[f"{s.name}.{k}"] += v
        if s.name == "wordmodel.power":
            p = s.parent
            while p is not None and spans[p].name != "quasify.crystal_of_content":
                p = spans[p].parent
            if p is not None:
                words += s.attrs["vertices"]
    vertices = sums["wordmodel.power.vertices"]
    kept = sums["quasify.crystal_of_content.vertices"]
    mutants = calls["mutation.random_mutation"]
    invalid = mutants - res.valid_mutants
    m = {f"{name}.self_s": (self_s[name], "s") for name in SPAN_NAMES}
    m.update({
        "wordmodel.power.vertices": (vertices, "count"),
        "wordmodel.power.us_per_vertex": (self_s["wordmodel.power"] / vertices * 1e6 if vertices else 0.0, "us"),
        "graphcore.read.bytes": (sums["graphcore.read.bytes"], "B"),
        "axioms.witnesses": (sum(sums[f"axioms.{c}.witnesses"] for c in CHECKERS), "count"),
        "structure.components.count": (sums["structure.components.count"], "count"),
        "quasify.words_enumerated": (words, "count"),
        "quasify.content_yield": (kept / words if words else 0.0, "ratio"),
        "mutation.mutants": (mutants, "count"),
        "mutation.valid_mutants": (res.valid_mutants, "count"),
        "mutation.detect_ratio": (sums["mutation.run_detectors.flagged"] / invalid if invalid else 0.0, "ratio"),
        "cli.stdout_bytes": (res.stdout_bytes, "B"),
    })
    return m


# The graph each workload holds, measured for graphcore.bytes_per_vertex.
PROBES = {
    "quasi-pipeline": lambda qck: qck.read_graph("q56.txt"),
    "crystal-pipeline": lambda qck: qck.read_graph("t47.json"),
    "schur": lambda qck: qck.crystal_of_content((3, 2, 1), 5),
    "fuzz": lambda qck: qck.read_graph("q38.txt"),
}


def bytes_per_vertex(qck, workload: str) -> float:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = PROBES[workload](qck)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(graph)


def startup_times(env: dict) -> list[float]:
    """Interpreter start plus `import qck.cli`, the fixed cost of every command."""
    times = []
    for _ in range(harness.SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qck.cli"], cwd=harness.WORK, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def measure_traced(plan, workload: str, seed: int, seconds: float, pins: dict, tally) -> tuple[dict, list[str]]:
    env = harness.child_env()
    for cmd in plan.setup:
        rc, out, _, _ = harness.run_cli(cmd.argv, env)
        tally.record(workloads.verdict_problems(cmd, rc, out, pins))
    qck = import_qck()
    recorder = Recorder()
    untraced, traced, per_pass = [], [], []
    cwd = os.getcwd()
    os.chdir(harness.WORK)
    try:
        start = time.perf_counter()
        while True:
            # alternate which side goes first, so warm-up favours neither
            if len(traced) % 2:
                untraced.append(one_pass(qck, plan, pins, tally, None).wall)
            first = len(recorder.spans)
            undo = install(recorder)
            try:
                res = one_pass(qck, plan, pins, tally, recorder)
            finally:
                uninstall(undo)
            traced.append(res.wall)
            per_pass.append(layer_metrics(recorder.spans, first, res))
            if len(traced) % 2:
                untraced.append(one_pass(qck, plan, pins, tally, None).wall)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(traced) > min(seconds, harness.HARD_LIMIT_S):
                break
        bpv = bytes_per_vertex(qck, workload)
    finally:
        os.chdir(cwd)
    startup = startup_times(env)
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit) for name, (_, unit) in per_pass[0].items()}
    metrics["graphcore.bytes_per_vertex"] = (bpv, "B")
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    (harness.WORK / f"spans-{workload}-{seed}.json").write_text(
        json.dumps([asdict(s) for s in recorder.spans]), encoding="utf-8")
    report = [
        harness.timing_line("untraced_pass_s", untraced, "s"),
        harness.timing_line("traced_pass_s", traced, "s"),
        f"spans {len(recorder.spans)} written to bench/.work/spans-{workload}-{seed}.json",
    ]
    report += [f"{name:<40} {value:.6g} {unit}" for name, (value, unit) in sorted(metrics.items())]
    return metrics, report
