"""Regenerate perfbench/reference.json: every pool entry's output summary,
per workload, for seeds 0-31.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Run from the root of a plsim checkout.  Only regenerate when a change of
results is intended; the benchmark compares every op against this file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from workloads import WORKLOADS

SEEDS = range(32)
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def summaries(name: str, seed: int) -> list[dict]:
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".perfbench_ref-") as work:
        workload = WORKLOADS[name](seed, work)
        out = []
        for i in range(len(workload.pool)):
            out.append(workload.check(i, workload.run(i)))
            workload.cleanup(i)
        return out


def main(names: list[str]) -> int:
    with open(PATH, encoding="utf-8") as handle:
        stored = json.load(handle)
    for name in names or sorted(WORKLOADS):
        stored[name] = {str(seed): summaries(name, seed) for seed in SEEDS}
        print(f"{name}: {len(SEEDS)} seeds", flush=True)
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
