"""Record the error references that ``err_growth`` compares against.

Writes ``bench/reference.json`` from the package as it stands:

* ``verify``: the names, tolerances and ``max_error`` of every check;
* ``nodes-deep``: the worst relative error of each zero table against scipy;
* ``sweep``: per quantity class, the worst relative error over seeds
  0 to ``SEEDS - 1``, raised to the rounding floor. Sweep inputs change with
  the seed, so its reference is the worst error the recording commit showed.

Run once, at the commit the references belong to:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import time

import oracles
from run import BENCH, HARD_LIMIT_S, run_sample

#: Sweep seeds the sweep reference is the worst error over.
SEEDS = 100


def main() -> int:
    def sample(workload: str, seed: int):
        s = run_sample(workload, seed, 0, time.monotonic() + HARD_LIMIT_S)
        if s.result is None:
            raise SystemExit(f"{workload} sample failed: {s.failures}")
        return s

    doc = json.loads(sample("verify", 0).result["calls"][0]["out"])
    reference = {
        "verify": {
            "names": [r["name"] for r in doc["suites"]],
            "tolerance": {r["name"]: r["tolerance"] for r in doc["suites"]},
            "max_error": {r["name"]: r["max_error"] for r in doc["suites"]},
        }
    }
    nodes = oracles.check("nodes-deep", sample("nodes-deep", 0).result["calls"])
    reference["nodes-deep"] = nodes.table_errors

    worst: dict[str, float] = {}
    for seed in range(SEEDS):
        verdict = oracles.check("sweep", sample("sweep", seed).result["calls"])
        for cls, err in verdict.errors.items():
            worst[cls] = max(worst.get(cls, oracles.FLOOR), err)
    reference["sweep"] = worst

    (BENCH / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps(reference, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
