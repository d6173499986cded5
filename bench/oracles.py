"""Correctness oracles for one sample's CLI output, run outside the timed region.

Every printed number is checked against a route that shares no code with
the package: scipy's K0, K1 and zero tables, closed forms, and the verify
records recorded at the seed commit (``reference.json``). A check returns
the list of mismatches (empty when the sample is correct), the worst
relative error per quantity class, and the error growth against the
recorded reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import jn_zeros, k0, k1, yn_zeros

#: Relative errors below a tenth of the package's target accuracy (1e-12,
#: ``specfun.TARGET_REL_ERROR``) count as rounding: err_growth compares
#: max(error, FLOOR), so a change inside rounding reads as no change.
FLOOR = 1e-13

#: Tolerances per quantity class: relative errors, absolute where the reference is 0.
TOLERANCE = {
    "cylinder": 1e-12,        # printed K0-based values; the package's target accuracy
    "closed_form": 1e-14,     # wavenumbers, energies, couplings, potentials, grids
    "normalization": 1e-10,   # |integral - 1|, the rel_tol normalize_check works to
    "ring": 1e-10,            # ring peak location and value against an independent root
    "zeros": 1e-11,           # zeros of J0, J1, Y0, Y1 against scipy
}

_REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
#: Errors recorded at the seed commit by ``record_reference.py``.
REFERENCE = json.loads(_REFERENCE_PATH.read_text()) if _REFERENCE_PATH.exists() else {}


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)
    errors: dict[str, float] = field(default_factory=dict)
    table_errors: dict[str, float] = field(default_factory=dict)
    err_growth: float = 1.0

    @property
    def max_rel_err(self) -> float:
        return max(self.errors.values(), default=0.0)

    def record(self, cls: str, got, want, what: str) -> None:
        """Relative error of ``got`` against ``want`` (absolute where want is 0)."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.failures.append(f"{what}: shape {got.shape}, expected {want.shape}")
            return
        if not np.all(np.isfinite(got)):
            self.failures.append(f"{what}: non-finite value")
            return
        scale = np.where(want == 0.0, 1.0, np.abs(want))
        err = float(np.max(np.abs(got - want) / scale)) if got.size else 0.0
        self.errors[cls] = max(self.errors.get(cls, 0.0), err)
        if not err <= TOLERANCE[cls]:
            self.failures.append(f"{what}: relative error {err:.3e} above {TOLERANCE[cls]:.0e}")

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def _option(argv: list[str], name: str) -> str | None:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return None


def _ring_constant() -> float:
    """xi solving K0(xi) = 2 xi K1(xi), by scipy's root finder on scipy's K."""
    return brentq(lambda x: k0(x) - 2.0 * x * k1(x), 0.05, 0.5, xtol=1e-17, rtol=1e-15)


XI = _ring_constant()

_ZERO_TABLES = {
    ("J", 0): lambda n: jn_zeros(0, n),
    ("J", 1): lambda n: jn_zeros(1, n),
    ("Y", 0): lambda n: yn_zeros(0, n),
    ("Y", 1): lambda n: yn_zeros(1, n),
}


def _parse_csv(text: str, header: list[str]) -> np.ndarray:
    lines = text.split("\n")
    if lines[0].split(",") != header or lines[-1] != "":
        raise ValueError(f"bad CSV header or ending: {lines[0]!r}")
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:-1]])


def _check_wavefunction(v: Verdict, argv: list[str], out: str) -> None:
    k = float(_option(argv, "--k"))
    if _option(argv, "--format") == "json":
        doc = json.loads(out)
        v.expect(doc["command"] == "wavefunction" and doc["k"] == k, "wavefunction header")
        rows = np.array([[row["r"], row["phi2"], row["w2"]] for row in doc["rows"]])
    else:
        rows = _parse_csv(out, ["r", "phi2", "w2"])
    if rows.shape != (2000, 3):
        v.failures.append(f"wavefunction: {rows.shape[0]} rows, expected 2000")
        return
    r, phi2, w2 = rows.T
    v.record("closed_form", r, np.linspace(0.05 / k, 20.0 / k, 2000), "wavefunction r")
    kr = k0(k * r)
    v.record("cylinder", phi2, k / math.sqrt(math.pi) * kr, "wavefunction phi2")
    v.record("cylinder", w2, 2.0 * k * k * r * kr * kr, "wavefunction w2")


def _check_boundstate(v: Verdict, argv: list[str], out: str) -> None:
    doc = json.loads(out)
    dim = int(_option(argv, "--dimension"))
    coupling = _option(argv, "--coupling")
    cutoff = _option(argv, "--cutoff")
    coupling = None if coupling is None else float(coupling)
    cutoff = None if cutoff is None else float(cutoff)
    if dim == 1:
        k = 0.5 * abs(coupling)
    elif dim == 3:
        k = float(_option(argv, "--k"))
    elif coupling is not None:
        k = cutoff / math.sqrt(math.expm1(4.0 * math.pi / coupling))
    else:
        k = float(_option(argv, "--k"))
        coupling = 4.0 * math.pi / math.log1p((cutoff / k) ** 2)
    v.expect(doc["command"] == "boundstate" and doc["dimension"] == dim, "boundstate header")
    v.expect(doc["cutoff"] == cutoff, f"boundstate cutoff {doc['cutoff']!r}, expected {cutoff!r}")
    if coupling is None:
        v.expect(doc["coupling"] is None, "boundstate coupling should be null")
    else:
        v.record("closed_form", doc["coupling"], coupling, "boundstate coupling")
    v.record("closed_form", doc["wavenumber"], k, "boundstate wavenumber")
    v.record("closed_form", doc["energy"], -0.5 * k * k, "boundstate energy")
    v.record("normalization", doc["normalization"], 1.0, "boundstate normalization")
    if dim == 2:
        v.record("ring", doc["max_location"], XI / k, "boundstate max_location")
        v.record("ring", doc["max_value"], 2.0 * k * XI * k0(XI) ** 2, "boundstate max_value")
    else:
        v.expect(doc["max_location"] == 0.0, f"boundstate max_location {doc['max_location']!r}")
        v.record("closed_form", doc["max_value"], k if dim == 1 else 2.0 * k, "boundstate max_value")


def _check_potential(v: Verdict, argv: list[str], out: str) -> None:
    family = _option(argv, "--family")
    if family == "twodim":
        m = int(_option(argv, "--m"))
        strength = m * m - 0.25
    else:
        n = int(_option(argv, "--N"))
        strength = (n - 1) * (n - 3) / 4.0
    if _option(argv, "--format") == "json":
        doc = json.loads(out)
        want = "attractive" if strength < 0 else "repulsive" if strength > 0 else "vanishing"
        v.expect(doc["classification"] == want, f"potential classified {doc['classification']!r}")
        rows = np.array([[row["r"], row["V"]] for row in doc["rows"]])
    else:
        rows = _parse_csv(out, ["r", "V"])
    if rows.shape != (200, 2):
        v.failures.append(f"potential: {rows.shape[0]} rows, expected 200")
        return
    r, pot = rows.T
    v.record("closed_form", r, np.linspace(0.5, 10.0, 200), "potential r")
    v.record("closed_form", pot, strength / (r * r), "potential V")


def _check_nodes(v: Verdict, out: str) -> None:
    doc = json.loads(out)
    n_max = doc["n_max"]
    tables = {(t["family"], t["order"]): t for t in doc["tables"]}
    v.expect(sorted(tables) == sorted(_ZERO_TABLES), f"nodes tables {sorted(tables)}")
    for key, table in tables.items():
        name = f"{key[0]}{key[1]}"
        zeros = np.array(table["zeros"])
        ref = _ZERO_TABLES[key](n_max)
        before = len(v.failures)
        v.record("zeros", zeros, ref, f"nodes {name} zeros")
        if len(v.failures) > before:
            continue
        err = float(np.max(np.abs(zeros - ref) / ref))
        v.table_errors[name] = err
        spacings = np.diff(zeros)
        v.record("closed_form", table["spacings"], spacings, f"nodes {name} spacings")
        v.record("closed_form", table["densities"], math.pi / spacings, f"nodes {name} densities")
    for family, verdict in doc["verdicts"].items():
        v.expect(verdict["passed"] and verdict["max_violation"] == 0.0, f"nodes {family} verdict failed")
    recorded = REFERENCE.get("nodes-deep", {})
    v.err_growth = max(
        (max(err, FLOOR) / max(recorded[name], FLOOR) for name, err in v.table_errors.items() if name in recorded),
        default=1.0,
    )


def _check_verify(v: Verdict, out: str) -> None:
    doc = json.loads(out)
    ref = REFERENCE["verify"]
    v.expect(doc["all_passed"] is True, "verify all_passed is not true")
    names = [s["name"] for s in doc["suites"]]
    v.expect(names == ref["names"], f"verify names {names}")
    growth = 0.0
    for suite in doc["suites"]:
        name = suite["name"]
        if name not in ref["tolerance"]:
            continue
        v.expect(suite["passed"] is True, f"verify {name} failed")
        v.expect(suite["max_error"] <= suite["tolerance"], f"verify {name} max_error above its tolerance")
        v.expect(suite["tolerance"] == ref["tolerance"][name], f"verify {name} tolerance changed")
        if ref["tolerance"][name] > 0.0:
            recorded = ref["max_error"][name]
            growth = max(growth, max(suite["max_error"], FLOOR) / max(recorded, FLOOR))
    v.err_growth = growth


def check(workload: str, calls: list[dict]) -> Verdict:
    """Check every call of one sample; any mismatch fails the sample."""
    v = Verdict()
    for call in calls:
        argv, out = call["argv"], call["out"]
        if call["rc"] != 0:
            v.failures.append(f"{argv[0]}: exit code {call['rc']} {call.get('error', '')}".strip())
            continue
        try:
            if argv[0] == "verify":
                _check_verify(v, out)
            elif argv[0] == "nodes":
                _check_nodes(v, out)
            elif argv[0] == "wavefunction":
                _check_wavefunction(v, argv, out)
            elif argv[0] == "boundstate":
                _check_boundstate(v, argv, out)
            elif argv[0] == "potential":
                _check_potential(v, argv, out)
            else:
                v.failures.append(f"no oracle for {argv[0]!r}")
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            v.failures.append(f"{argv[0]}: unparsable output ({type(exc).__name__}: {exc})")
    if workload == "sweep":
        v.err_growth = max(
            (max(v.errors.get(cls, 0.0), ref) / ref for cls, ref in REFERENCE.get("sweep", {}).items()),
            default=1.0,
        )
    return v
