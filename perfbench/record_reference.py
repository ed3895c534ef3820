#!/usr/bin/env python3
"""Record the checked outputs of every workload variant as the reference.

    python3 perfbench/record_reference.py [workload ...]

Writes ``reference/<workload>.json``: for each of the ``VARIANTS`` input
sets, the outputs ``run.py`` compares within 1e-9 (global labels,
per-style ``sle_max``/``t_sle``/``detected``, weaving count, TDE rows,
and for ``suite`` the calibrated thresholds). Record at a commit whose
outputs are trusted; a later commit is checked against these numbers.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import VARIANTS, WORKLOADS  # noqa: E402


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    workdir = HERE.parent / ".perfbench" / name
    reference = {}
    for v in range(VARIANTS):
        inputs = workload.generate(v, workdir)
        outcome = workload.run(inputs, workdir / "out")
        workload.collect(workdir / "out", outcome)
        if outcome.failures:
            raise SystemExit(f"{name} variant {v} failed: {outcome.failures}")
        reference[str(v)] = outcome.outputs
        print(f"{name} variant {v}: {outcome.attempted} operations", flush=True)
    return reference


def main(argv: list[str]) -> int:
    for name in argv or list(WORKLOADS):
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record(name), separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
