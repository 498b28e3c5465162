"""Record the reference outputs that the output check compares against.

Runs one job per input variant of each workload on the reference seed
and writes the detections and beta (or, for ``compare_small``, the table)
to ``reference.json`` beside this file.  Re-record only when a change to the
program is meant to change its detections, and say so in CHANGES.md.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from subsetcp import cli  # noqa: E402
from worker import run_job  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        reference[name] = []
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            workload.prepare(REFERENCE_SEED, Path(tmp))
            for variant in range(workload.variants):
                workload.select(variant)
                outcome = workload.check(*run_job(cli.main, workload.args))
                if outcome.problems:
                    print(f"{name} input {variant}: {outcome.problems}", file=sys.stderr)
                    return 1
                reference[name].append(outcome.signature)
                print(f"{name} input {variant}: {json.dumps(outcome.signature)}")
    lines = [f" {json.dumps(name)}: {json.dumps(sig)}" for name, sig in reference.items()]
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
