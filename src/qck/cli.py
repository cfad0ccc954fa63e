"""Command-line interface.

Exit codes: 0 all good, 1 witnesses / theorem violations / mismatches found,
2 usage or input errors. All listings are sorted so identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

# graphcore first: the other modules import it, and when no cached bytecode
# is read, compiling it here rather than inside another module's compile
# lowers the start's peak memory
from .graphcore import _plain, dumps, read_graph, validate, write_graph
from . import characters, mutation
from .axioms import CORE, CRYSTAL_AXIOMS, QUASI_AXIOMS, battery, run_checks
from .quasify import count_quasi_components, quasify
from .structure import TheoremViolation, components, isomorphic, rank_table
from .weightlattice import syt_count
from .wordmodel import positive_cap, quasi_tensor_power, standard_crystal, tensor_power

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_USAGE = 2

_CHECKS = {**CORE, **QUASI_AXIOMS, **CRYSTAL_AXIOMS}


def _int(text: str) -> int:
    """An integer flag, read by the file readers' plain-integer rule; other
    text is a usage error worded as argparse words it for type=int."""
    try:
        return int(_plain(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(_plain(p)) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad shape {text!r}; expected comma-separated ints like 2,1") from None


def _emit(g, fmt: str, out_path: str | None) -> None:
    """Write g's document to out_path, or to stdout, as it is made."""
    if out_path:
        write_graph(g, out_path, fmt)
    else:
        dumps(g, fmt, sys.stdout)


def _cmd_build(args) -> int:
    cap = None if args.size_cap is None else positive_cap(args.size_cap, "--size-cap")
    if args.what == "std":
        g = standard_crystal(args.n, size_cap=cap)
    elif args.what == "tensor-power":
        g = tensor_power(args.n, args.k, size_cap=cap)
    else:
        g = quasi_tensor_power(args.n, args.k, size_cap=cap)
    _emit(g, args.format, args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    g = read_graph(args.file)
    requested = [k.strip() for k in args.axioms.split(",") if k.strip()]
    if not requested:
        raise ValueError("no axiom keys given")
    if requested == ["all"]:
        reports = battery(g)
    else:
        unknown = [k for k in requested if k not in _CHECKS]
        if unknown:
            raise ValueError(f"unknown axiom keys: {', '.join(unknown)}")
        reports = run_checks(g, {k: chk for k, chk in _CHECKS.items() if k in requested})
    # collect before printing, so a refusal partway through prints no witness
    lines = [ln for _, rep in reports for ln in rep.lines()]
    for ln in lines:
        print(ln)
    return EXIT_WITNESS if lines else EXIT_OK


def _cmd_decompose(args) -> int:
    g = read_graph(args.file)
    rep = validate(g)
    if not rep.passed:
        for ln in rep.lines():
            print(ln)
        return EXIT_WITNESS
    exit_code = EXIT_OK
    for idx, comp in enumerate(components(g), start=1):
        if len(comp.hw_vertices) == 1:
            hw = comp.hw_vertices[0]
            wt = ",".join(str(c) for c in g.wt(hw))
            hist = Counter(rank_table(comp).values())
            hist_txt = " ".join(f"{r}:{hist[r]}" for r in sorted(hist))
        else:
            hw = "|".join(comp.hw_vertices)
            wt = "-"
            hist_txt = "-"
            exit_code = EXIT_WITNESS
        print(f"component\t{idx}\tsize\t{comp.size}\thw\t{hw}\twt\t{wt}\tranks\t{hist_txt}")
    return exit_code


def _cmd_quasify(args) -> int:
    g = read_graph(args.file)
    q = quasify(g)
    _emit(q, args.format, args.output)
    return EXIT_OK


def _cmd_count(args) -> int:
    shape = _parse_shape(args.shape)
    got = count_quasi_components(shape, args.n)
    expected = syt_count(shape)
    ok = got == expected
    print(f"components\t{got}")
    print(f"standard-tableaux\t{expected}")
    print(f"status\t{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_WITNESS


def _cmd_char(args) -> int:
    g = read_graph(args.file)
    if args.per_component:
        for idx, comp in enumerate(components(g), start=1):
            print(f"component\t{idx}\t{characters.character(comp)}")
    else:
        print(characters.character(g))
    return EXIT_OK


def _cmd_verify(args) -> int:
    shape = _parse_shape(args.shape)
    report = characters.verify_schur_decomposition(shape, args.n)
    for ln in report.lines():
        print(ln)
    return EXIT_OK if report.passed else EXIT_WITNESS


def _component_ref(ref: str):
    path, sep, idx = ref.rpartition("#")
    try:
        if sep and int(_plain(idx)) >= 1:
            return path, int(idx)
    except ValueError:
        pass
    raise ValueError(f"bad component reference {ref!r}; expected FILE#INDEX with INDEX >= 1")


def _cmd_iso(args) -> int:
    path1, idx1 = _component_ref(args.first)
    path2, idx2 = _component_ref(args.second)
    comps1 = components(read_graph(path1))
    comps2 = components(read_graph(path2)) if path2 != path1 else comps1
    if idx1 > len(comps1) or idx2 > len(comps2):
        raise ValueError("component index out of range")
    witness = isomorphic(comps1[idx1 - 1], comps2[idx2 - 1])
    if witness is None:
        print("NONE")
        return EXIT_WITNESS
    for x, y in sorted(witness.mapping.items()):
        print(f"{x}\t{y}")
    return EXIT_OK


def _cmd_export(args) -> int:
    g = read_graph(args.file)
    _emit(g, args.fmt, args.output)
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    result = mutation.fuzz_graph(read_graph(args.file), args.count, args.seed)
    for ln in result.lines():
        print(ln)
    return EXIT_OK if result.rate >= 0.99 else EXIT_WITNESS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qck",
        description="Build, check, and decompose quasi-crystal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a graph and print/save it")
    p.add_argument("what", choices=["std", "tensor-power", "qtensor-power"])
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--k", type=_int, default=1)
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--size-cap", type=_int, default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check", help="run axiom checkers, print witnesses")
    p.add_argument("file")
    p.add_argument("--axioms", default="all", help="comma list or 'all': " + ",".join(_CHECKS))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="list connected components")
    p.add_argument("file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("quasify", help="freeze short raising strings of a crystal")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_quasify)

    p = sub.add_parser("count", help="quasi component count vs standard tableaux")
    p.add_argument("--shape", required=True)
    p.add_argument("--n", type=_int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("char", help="character polynomial of a graph file")
    p.add_argument("file")
    p.add_argument("--per-component", action="store_true")
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("verify", help="verify a decomposition identity")
    p.add_argument("property", choices=["schur"])
    p.add_argument("--shape", required=True)
    p.add_argument("--n", type=_int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("iso", help="compare two components given as FILE#INDEX")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("export", help="re-serialize a graph file")
    p.add_argument("fmt", choices=["text", "json", "dot"])
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("fuzz", help="mutate a graph and score checker detection")
    p.add_argument("file")
    p.add_argument("--count", type=_int, default=100)
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass that through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TheoremViolation as exc:
        for ln in exc.lines():
            print(ln)
        return EXIT_WITNESS
    except (OSError, ValueError) as exc:
        # GraphFormatError and SizeCapExceeded are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
