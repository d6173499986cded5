"""Per-layer probes, run untraced in a fresh interpreter.

Each probe times one layer's public function on inputs chosen so the
memo caches miss, as they do on the verify grids. Caches are cleared
between probes so no probe warms another. Prints the raw figures and the
times of the calibration kernel run before and after them, as JSON.

Run: ``python3 bench/probes.py`` from the repository root.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from anticentrifugal import boundstate, nodes, radial, specfun  # noqa: E402
from anticentrifugal.potentials import EffectivePotentialSpec, PotentialFamily  # noqa: E402
from child import calibration_kernel  # noqa: E402

#: More distinct arguments than the 4096-entry memo holds.
POINTS = 5000

#: Regime probes: (function, lo, hi), each range inside one evaluation scheme.
REGIMES = {
    "j_series_us": (specfun.besselj, 0.01, 2.0),
    "j_miller_us": (specfun.besselj, 2.0, 50.0),
    "j_miller_far_us": (specfun.besselj, 200.0, 330.0),
    "y_series_us": (specfun.bessely, 0.01, 2.0),
    "y_neumann_us": (specfun.bessely, 2.0, 50.0),
    "i_series_us": (specfun.besseli, 0.01, 8.0),
    "i_miller_us": (specfun.besseli, 8.0, 50.0),
    "k_series_us": (specfun.besselk, 0.01, 3.0),
    "k_trapezoid_us": (specfun.besselk, 3.0, 50.0),
}

REPEATS = 3


def _clear_caches() -> None:
    for module in (specfun, boundstate):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _timed(fn) -> float:
    _clear_caches()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def probe_specfun() -> dict[str, float]:
    out = {}
    for name, (fn, lo, hi) in REGIMES.items():
        xs = np.linspace(lo, hi, POINTS, endpoint=False).tolist()
        seconds = _timed(lambda: [fn(0, x) for x in xs])
        out[f"specfun.{name}"] = seconds / POINTS * 1e6
    return out


def probe_radial() -> dict[str, float]:
    spec = EffectivePotentialSpec(PotentialFamily.QUANTUM_ANTICENTRIFUGAL)
    grid = radial.RadialGrid(0.05, 20.05, 20001)
    seconds = statistics.median(
        _timed(lambda: radial.integrate_radial(spec, -0.5, grid, (1e-9, 1.0001e-9), radial.Direction.INWARD))
        for _ in range(5)
    )
    return {"radial.numerov_us": seconds / grid.n_points * 1e6}


def probe_nodes() -> dict[str, float]:
    n = 20
    families = (specfun.CylinderFamily.BESSEL_J, specfun.CylinderFamily.NEUMANN_Y)

    def tables():
        for family in families:
            for order in (0, 1):
                nodes.find_zeros(family, order, n)

    seconds = statistics.median(_timed(tables) for _ in range(REPEATS))
    return {"nodes.find_zeros_ms": seconds / (4 * n) * 1e3}


def probe_boundstate() -> dict[str, float]:
    def normalize(k: float):
        return lambda: boundstate.normalize_check(boundstate.density(2, k, np.linspace(0.1 / k, 10.0 / k, 16)))

    normalize_s = statistics.median(_timed(normalize(k)) for k in (0.7, 1.3, 2.9))
    ring_s = statistics.median(_timed(boundstate.ring_peak_parameter) for _ in range(REPEATS))
    return {"boundstate.normalize_ms": normalize_s * 1e3, "boundstate.ring_peak_ms": ring_s * 1e3}


def main() -> int:
    calibration_s = [calibration_kernel()]
    metrics = {}
    for probe in (probe_specfun, probe_radial, probe_nodes, probe_boundstate):
        metrics.update(probe())
    calibration_s.append(calibration_kernel())
    json.dump({"metrics": metrics, "calibration_s": calibration_s}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
