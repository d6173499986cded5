"""The CLI invocations that one benchmark sample runs.

Every sample of a workload runs in a fresh interpreter, so the package's
memo caches start cold, as they do for a real shell invocation. Only the
``sweep`` workload draws its inputs from the seed; ``verify`` and
``nodes-deep`` have fixed inputs.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify", "sweep", "nodes-deep")

#: The package's modules, which are the layers the trace reports.
LAYERS = (
    "specfun",
    "quadrature",
    "potentials",
    "radial",
    "nodes",
    "boundstate",
    "verify",
    "cli",
)

#: The layers each workload enters; a layer it never calls has no span.
ENTERED_LAYERS = {
    "verify": LAYERS,
    "sweep": ("specfun", "quadrature", "potentials", "radial", "boundstate", "cli"),
    "nodes-deep": ("specfun", "nodes", "cli"),
}

NODES_DEEP_N_MAX = 100


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def invocations(workload: str, seed: int, sample: int) -> list[list[str]]:
    """Argument lists for sample number ``sample`` of a run with ``seed``.

    The same seed and sample number always give the same arguments. Sweep
    samples differ from each other, so a run covers many wavenumbers.
    """
    if workload == "verify":
        return [["verify"]]
    if workload == "nodes-deep":
        return [["nodes", "--n-max", str(NODES_DEEP_N_MAX), "--format", "json"]]
    if workload != "sweep":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"sweep:{seed}:{sample}")

    def k() -> str:
        return repr(_log_uniform(rng, 0.1, 10.0))

    return [
        ["wavefunction", "--k", k(), "--format", "csv"],
        ["wavefunction", "--k", k(), "--format", "json"],
        ["boundstate", "--dimension", "1", f"--coupling={-_log_uniform(rng, 0.2, 20.0)!r}"],
        [
            "boundstate", "--dimension", "2",
            f"--coupling={_log_uniform(rng, 4.0, 40.0)!r}",
            f"--cutoff={_log_uniform(rng, 0.5, 2.0)!r}",
        ],
        ["boundstate", "--dimension", "2", "--k", k(), f"--cutoff={_log_uniform(rng, 20.0, 50.0)!r}"],
        ["boundstate", "--dimension", "3", "--k", k()],
        ["potential", "--family", "twodim", "--m", str(rng.randrange(0, 6)), "--format", "csv"],
        ["potential", "--family", "ndim", "--N", str(rng.randrange(1, 12)), "--format", "json"],
    ]
