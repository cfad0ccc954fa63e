"""Write bench/pins.json: the stdout digests of every deterministic command
of the benchmark, the digests of the files its builds write, and the
equal-weight component pairs the quasi-pipeline's `iso` step picks from.

    python3 bench/pin.py

Pin once, at the commit whose outputs are the reference. qck promises
byte-identical verdicts, so a later commit re-pins only when it changes an
output on purpose and says so. Every command must pass its oracle checks
before its digest is written.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import harness
import workloads


def main() -> int:
    harness.check_checkout()
    env = harness.child_env()
    pins: dict = {"stdout": {}, "files": {}, "iso_pairs": [[1, 1, 0]]}  # placeholder until decompose has run
    problems: list[str] = []

    def pin(cmd: workloads.Command) -> str:
        rc, out, _, _ = harness.run_cli(cmd.argv, env)
        if cmd.argv[0] == "build":
            name = cmd.argv[cmd.argv.index("-o") + 1]
            pins["files"][name] = workloads.sha256((harness.WORK / name).read_bytes())
        if cmd.pinned:
            pins["stdout"][cmd.label] = workloads.sha256(out.encode())
        problems.extend(workloads.verdict_problems(cmd, rc, out, pins))
        return out

    quasi = workloads.plan("quasi-pipeline", 0, harness.WORK, pins)
    by_weight = defaultdict(list)
    for cmd in quasi.commands[:-1]:
        out = pin(cmd)
        if cmd.key == "decompose":
            for line in out.splitlines():
                f = line.split("\t")
                by_weight[f[7]].append((int(f[1]), int(f[3])))
    pins["iso_pairs"] = [[c[0][0], c[1][0], c[0][1]] for _, c in sorted(by_weight.items()) if len(c) >= 2]
    for pair in pins["iso_pairs"]:
        pin(workloads.plan("quasi-pipeline", 0, harness.WORK, {**pins, "iso_pairs": [pair]}).commands[-1])
    for name in ("crystal-pipeline", "schur", "fuzz"):
        plan = workloads.plan(name, 0, harness.WORK, pins)
        for cmd in plan.setup + plan.commands:
            pin(cmd)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    harness.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pins['stdout'])} stdout digests, {len(pins['files'])} files, "
          f"{len(pins['iso_pairs'])} iso pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
