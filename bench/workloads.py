"""The benchmark's four workloads: the qck commands each one runs, and the
checks every command's exit code and stdout must pass.

Command arguments name files relative to the work directory the commands run
in. A check returns a list of problems; an empty list means the verdict is
right. Deterministic commands must also reproduce the stdout digests pinned
in pins.json (see pin.py).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

# How many mutants one `fuzz` command scores.
FUZZ_COUNT = 64
# The note `fuzz` prints for a silent mutant that is itself a valid graph.
VALID_NOTE = "mutant is itself a coherent seminormal quasi-crystal"

SCHUR_SHAPES = [((4, 3, 1), 4), ((3, 2, 1), 5), ((2, 2, 1), 3)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Command:
    key: str  # the per-command timing it counts toward, e.g. "check"
    argv: list[str]
    check: Callable[[int, str], list[str]]  # (exit code, stdout) -> problems
    pinned: bool = True  # stdout must match the digest pinned for the seed commit

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Plan:
    setup: list[Command]  # untimed: builds the inputs the workload reads
    commands: list[Command]  # one timed pass


def verdict_problems(cmd: Command, rc: int, out: str, pins: dict) -> list[str]:
    """Everything wrong with one command's result."""
    problems = cmd.check(rc, out)
    if cmd.pinned:
        want = pins["stdout"].get(cmd.label)
        if want is None:
            problems.append("no pinned stdout digest")
        elif sha256(out.encode()) != want:
            problems.append("stdout differs from the pinned digest")
    return [f"{cmd.label}: {p}" for p in problems]


def _exit(rc: int, want: int) -> list[str]:
    return [] if rc == want else [f"exit {rc}, expected {want}"]


def _build(work: Path, name: str, pins: dict) -> Callable[[int, str], list[str]]:
    def check(rc: int, out: str) -> list[str]:
        problems = _exit(rc, 0)
        if out:
            problems.append("build printed to stdout")
        path = work / name
        if not path.is_file():
            problems.append(f"{name} was not written")
        elif sha256(path.read_bytes()) != pins["files"].get(name):
            problems.append(f"{name} differs from the pinned digest")
        return problems

    return check


def _no_witnesses(rc: int, out: str) -> list[str]:
    problems = _exit(rc, 0)
    if out:
        problems.append(f"{len(out.splitlines())} witness lines on a valid graph")
    return problems


def _decompose(n: int, k: int, classical: bool) -> Callable[[int, str], list[str]]:
    """Sizes add up to n^k and every highest weight is the content of its
    word; for the classical power the components are the SSYT crystals,
    f^λ of them for each partition λ of k with at most n parts."""

    def check(rc: int, out: str) -> list[str]:
        problems = _exit(rc, 0)
        total = 0
        shapes: Counter = Counter()
        for line in out.splitlines():
            f = line.split("\t")
            if len(f) != 10 or f[0::2] != ["component", "size", "hw", "wt", "ranks"]:
                return problems + [f"malformed line {line[:60]!r}"]
            size, hw, wt, ranks = int(f[3]), f[5], f[7], f[9]
            total += size
            if "|" in hw:
                problems.append(f"component {f[1]} has several highest weights")
                continue
            weight = oracles.word_content(hw, n)
            if wt != ",".join(map(str, weight)):
                problems.append(f"component {f[1]}: weight {wt} is not the content of {hw}")
            if sum(int(r.partition(":")[2]) for r in ranks.split(" ")) != size:
                problems.append(f"component {f[1]}: rank histogram does not sum to {size}")
            if classical:
                shape = tuple(p for p in weight if p)
                shapes[shape] += 1
                if list(weight) != sorted(weight, reverse=True):
                    problems.append(f"component {f[1]}: highest weight {wt} is not a partition")
                elif size != oracles.hook_content_count(shape, n):
                    problems.append(f"component {f[1]}: size {size} != #SSYT{shape}")
        if total != n**k:
            problems.append(f"component sizes sum to {total}, expected {n**k}")
        if classical:
            want = {lam: oracles.hook_length_count(lam) for lam in oracles.partitions(k, n)}
            if dict(shapes) != want:
                problems.append("component multiplicities differ from the hook-length counts")
        return problems

    return check


def _char(n: int, k: int) -> Callable[[int, str], list[str]]:
    """The component characters of B_n^{⊗k} add up to (x1+...+xn)^k."""

    def check(rc: int, out: str) -> list[str]:
        problems = _exit(rc, 0)
        total: Counter = Counter()
        for line in out.splitlines():
            tag, _, rest = line.partition("\t")
            _, _, poly = rest.partition("\t")
            if tag != "component":
                return problems + [f"malformed line {line[:60]!r}"]
            try:
                total.update(oracles.parse_polynomial(poly, n))
            except ValueError as exc:
                return problems + [str(exc)]
        if {e: c for e, c in total.items() if c} != oracles.multinomial_expansion(n, k):
            problems.append("summed characters differ from the multinomial expansion")
        return problems

    return check


def _iso(size: int, n: int) -> Callable[[int, str], list[str]]:
    """A weight-preserving bijection between two components of `size` vertices."""

    def check(rc: int, out: str) -> list[str]:
        problems = _exit(rc, 0)
        pairs = [line.split("\t") for line in out.splitlines()]
        if any(len(p) != 2 for p in pairs):
            return problems + ["malformed mapping"]
        if len(pairs) != size or len({x for x, _ in pairs}) != size or len({y for _, y in pairs}) != size:
            problems.append(f"mapping is not a bijection of {size} vertices")
        if any(oracles.word_content(x, n) != oracles.word_content(y, n) for x, y in pairs):
            problems.append("mapping does not preserve weights")
        return problems

    return check


def _composition(text: str) -> tuple[int, ...]:
    if not (text.startswith("F(") and text.endswith(")")):
        raise ValueError(text)
    return tuple(int(p) for p in text[2:-1].split(","))


def _verify(shape, n: int) -> Callable[[int, str], list[str]]:
    exp = oracles.schur_expectation(shape, n)
    verdict = oracles.KNOWN_SCHUR[(shape, n)]

    def check(rc: int, out: str) -> list[str]:
        problems = _exit(rc, 0 if verdict == "PASS" else 1)
        rows = [line.split("\t") for line in out.splitlines()]
        fields = {r[0]: r[1:] for r in rows}
        try:
            terms = sorted(_composition(r[1]) for r in rows if r[0] == "term")
            comps = [(_composition(r[2]), r[3]) for r in rows if r[0] == "component"]
        except (IndexError, ValueError):
            return problems + ["malformed term or component line"]
        if fields.get("identity") != ["PASS"]:
            problems.append("Schur identity not PASS")
        if terms != exp["terms"]:
            problems.append("terms differ from the descent compositions of SYT(shape)")
        if sorted(a for a, _ in comps) != exp["components"] or any(s != "PASS" for _, s in comps):
            problems.append("components differ from the descent compositions with at most n parts")
        multiset = "PASS" if exp["components"] == exp["terms"] else "FAIL"
        if fields.get("multiset") != [multiset]:
            problems.append(f"multiset verdict is not {multiset}")
        if fields.get("result") != [verdict]:
            problems.append(f"result is not the known {verdict}")
        return problems

    return check


def _count(shape, n: int) -> Callable[[int, str], list[str]]:
    exp = oracles.schur_expectation(shape, n)
    want = [
        ["components", str(len(exp["components"]))],
        ["standard-tableaux", str(exp["f"])],
        ["status", exp["verdict"]],
    ]

    def check(rc: int, out: str) -> list[str]:
        problems = _exit(rc, 0 if exp["verdict"] == "PASS" else 1)
        if [line.split("\t") for line in out.splitlines()] != want:
            problems.append("component or tableau count differs from the hook-length oracle")
        return problems

    return check


def frozen_vertices(graph_text: str) -> set[str]:
    """Vertices of a text-format graph whose every string length is +inf."""
    frozen = set()
    for line in graph_text.splitlines():
        f = line.split(" ")
        if f[0] == "vertex" and all(v == "+inf" for v in f[3].split(",") + f[4].split(",")):
            frozen.add(f[1])
    return frozen


def fuzz_accounting(out: str, count: int, frozen: set[str]) -> tuple[int, list[str]]:
    """(valid mutants, problems) for one `fuzz` report.

    Fields are read by name and unknown fields are ignored. Every mutant is
    either detected or silent, and a silent mutant is acceptable only when it
    is a valid graph: the program triages it so, and independently it is a
    weight edit of a vertex frozen at every index, which no axiom constrains.
    Any other silent mutant is a wrong PASS.
    """
    fields: dict[str, str] = {}
    cases = []
    for line in out.splitlines():
        name, _, rest = line.partition("\t")
        if name == "silent-case":
            cases.append(rest.split("\t"))
        else:
            fields.setdefault(name, rest)
    try:
        total, detected, silent = (int(fields[k]) for k in ("total", "detected", "silent"))
    except (KeyError, ValueError):
        return 0, ["missing or malformed total/detected/silent fields"]
    problems = []
    if total != count:
        problems.append(f"total {total}, requested {count}")
    if detected + silent != total:
        problems.append(f"detected {detected} + silent {silent} != total {total}")
    if len(cases) != silent:
        problems.append(f"{len(cases)} silent-case lines for {silent} silent mutants")
    valid = 0
    for case in cases:
        if case[-1] == VALID_NOTE and case[0] == "weight" and case[1] in frozen:
            valid += 1
        else:
            problems.append(f"wrong PASS: silent mutant {' '.join(case)}")
    return valid, problems


def _fuzz(work: Path, name: str) -> Callable[[int, str], list[str]]:
    def check(rc: int, out: str) -> list[str]:
        # exit 1 only reports a raw rate below 0.99, which valid mutants
        # cause; fuzz_accounting is the verdict that matters
        problems = [] if rc in (0, 1) else [f"exit {rc}"]
        frozen = frozen_vertices((work / name).read_text(encoding="utf-8"))
        return problems + fuzz_accounting(out, FUZZ_COUNT, frozen)[1]

    return check


def plan(workload: str, seed: int, work: Path, pins: dict) -> Plan:
    """The commands of one workload; the seed picks the iso pair and the fuzz mutants."""
    if workload == "quasi-pipeline":
        g, n, k = "q56.txt", 5, 6
        a, b, size = random.Random(seed).choice(pins["iso_pairs"])
        return Plan([], [
            Command("build", ["build", "qtensor-power", "--n", str(n), "--k", str(k), "-o", g], _build(work, g, pins)),
            Command("check", ["check", g, "--axioms", "all"], _no_witnesses),
            Command("decompose", ["decompose", g], _decompose(n, k, classical=False)),
            Command("char", ["char", g, "--per-component"], _char(n, k)),
            Command("iso", ["iso", f"{g}#{a}", f"{g}#{b}"], _iso(size, n)),
        ])
    if workload == "crystal-pipeline":
        g, n, k = "t47.json", 4, 7
        return Plan([], [
            Command("build", ["build", "tensor-power", "--n", str(n), "--k", str(k), "--format", "json", "-o", g],
                    _build(work, g, pins)),
            Command("check", ["check", g, "--axioms", "all"], _no_witnesses),
            Command("decompose", ["decompose", g], _decompose(n, k, classical=True)),
            Command("char", ["char", g, "--per-component"], _char(n, k)),
        ])
    if workload == "schur":
        return Plan([], [
            Command(key, sub + ["--shape", ",".join(map(str, shape)), "--n", str(n)], check(shape, n))
            for key, sub, check in (("verify", ["verify", "schur"], _verify), ("count", ["count"], _count))
            for shape, n in SCHUR_SHAPES
        ])
    if workload == "fuzz":
        g = "q38.txt"
        setup = Command("setup", ["build", "qtensor-power", "--n", "3", "--k", "8", "-o", g], _build(work, g, pins))
        fuzz = Command("fuzz", ["fuzz", g, "--count", str(FUZZ_COUNT), "--seed", str(seed)], _fuzz(work, g),
                       pinned=False)
        return Plan([setup], [fuzz])
    raise ValueError(f"unknown workload {workload!r}")
