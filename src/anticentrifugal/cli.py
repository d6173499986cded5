"""Command-line front end.

Subcommands expose each computation as plot-ready CSV or JSON:

    potential     effective 1/r^2 potential on a radial grid
    wavefunction  planar bound-state amplitude and probability weight
    nodes         zero tables, spacings, densities, bunching verdicts
    boundstate    contact-potential bound state in 1, 2 or 3 dimensions
    verify        run every cross-check suite and report pass/fail

Output is deterministic byte for byte: CSV uses a single header row, LF
line endings and 17-significant-digit floats; JSON is one object with a
fixed key order. Both carry only finite numbers. Exit codes: 0 success, 2 a
validation or numerical error (one ``error:`` line on stderr), 3 a verify
suite failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Sequence

import numpy as np

from .boundstate import (
    DeltaCoupling2D,
    coupling_from_k,
    density,
    density_maximum,
    density_profile,
    normalize_check,
    one_three_d_bound_energy,
)
from .nodes import BracketingError, bunching_verdict, find_zeros, node_density
from .potentials import (
    UNITS,
    EffectivePotentialSpec,
    PotentialFamily,
    classify_potential,
    eval_potential,
)
from .quadrature import QuadratureError
from .radial import RadialGrid, assemble_phi2
from .specfun import CylinderFamily
from .verify import run_all

_FAMILY_MAP = {
    "twodim": PotentialFamily.PLANAR_WAVE,
    "threedim": PotentialFamily.SPATIAL_WAVE,
    "ndim": PotentialFamily.ZERO_MOMENTUM_NDIM,
    "classical": PotentialFamily.CLASSICAL,
    "quantum-anti": PotentialFamily.QUANTUM_ANTICENTRIFUGAL,
}

#: Size limits: the cost of the zero tables and of the grids grows linearly
#: in --n-max and --n-points (about 0.5 s and 1.5 s at the limits, and
#: about 3 MB and 11 MB of JSON).
_MAX_N_MAX = 10_000
_MAX_N_POINTS = 100_000


def _fmt(v: float) -> str:
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"Out of range float values are not CSV compliant: {v!r}")
    return f"{v:.17g}"


def _csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _check_n_points(n_points: int) -> None:
    if n_points > _MAX_N_POINTS:
        raise ValueError(f"--n-points must be at most {_MAX_N_POINTS}, got {n_points}")


def _write(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _add_output_args(p: argparse.ArgumentParser, formats: bool = True) -> None:
    if formats:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticentrifugal",
        description=(
            "Radial quantum mechanics of the attractive -1/(4 r^2) term: "
            "potentials, waves, node statistics and contact bound states. "
            f"Units: {UNITS}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("potential", help="evaluate an effective potential on a grid")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_MAP))
    p.add_argument("--m", type=int, default=0, help="angular momentum (twodim/threedim)")
    p.add_argument("--N", dest="n_dim", type=int, default=2, help="space dimension (ndim)")
    p.add_argument(
        "--l-squared", dest="l_squared", type=float, default=0.0,
        help="squared classical angular momentum (classical)",
    )
    p.add_argument("--r-min", type=float, default=0.5)
    p.add_argument("--r-max", type=float, default=10.0)
    p.add_argument("--n-points", type=int, default=200, help=f"at most {_MAX_N_POINTS}")
    _add_output_args(p)

    p = sub.add_parser(
        "wavefunction", help="planar bound-state amplitude and weight on a grid"
    )
    p.add_argument("--k", type=float, required=True, help="bound-state wavenumber")
    p.add_argument("--r-min", type=float, default=None, help="default 0.05/k")
    p.add_argument("--r-max", type=float, default=None, help="default 20/k")
    p.add_argument("--n-points", type=int, default=2000, help=f"at most {_MAX_N_POINTS}")
    _add_output_args(p)

    p = sub.add_parser("nodes", help="zero tables and bunching statistics")
    p.add_argument(
        "--n-max", type=int, default=20, help=f"zeros per table (2 to {_MAX_N_MAX})"
    )
    _add_output_args(p)

    p = sub.add_parser("boundstate", help="contact-potential bound state (JSON)")
    p.add_argument("--dimension", type=int, required=True, choices=(1, 2, 3))
    p.add_argument(
        "--k", type=float, default=None,
        help="wavenumber (3D inverse scattering length; alternative 2D input)",
    )
    p.add_argument("--coupling", type=float, default=None, help="contact strength")
    p.add_argument("--cutoff", type=float, default=None, help="2D momentum cutoff")
    _add_output_args(p, formats=False)

    p = sub.add_parser("verify", help="run every cross-check suite (JSON report)")
    p.add_argument(
        "--tolerance-scale", type=float, default=1.0,
        help="multiply every tolerance; 0 forces the failure path",
    )
    _add_output_args(p, formats=False)

    return parser


def _cmd_potential(args: argparse.Namespace) -> int:
    spec = EffectivePotentialSpec(
        _FAMILY_MAP[args.family],
        angular_momentum=args.m,
        n_dim=args.n_dim,
        classical_l_squared=args.l_squared,
    )
    _check_n_points(args.n_points)
    grid = RadialGrid(args.r_min, args.r_max, args.n_points)
    r = grid.points
    # a V that overflows is refused by the writers below, with one error line
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = eval_potential(spec, r)
    if args.format == "csv":
        text = _csv(("r", "V"), list(zip(r.tolist(), np.asarray(v).tolist())))
    else:
        text = _json(
            {
                "command": "potential",
                "family": args.family,
                "parameters": {
                    "m": args.m,
                    "N": args.n_dim,
                    "l_squared": args.l_squared,
                },
                "classification": classify_potential(spec).value,
                "units": UNITS,
                "rows": [
                    {"r": float(ri), "V": float(vi)} for ri, vi in zip(r, np.asarray(v))
                ],
            }
        )
    _write(text, args.output)
    return 0


def _cmd_wavefunction(args: argparse.Namespace) -> int:
    k = args.k
    if not (isinstance(k, float) and k > 0.0):
        raise ValueError(f"wavenumber must be positive, got {k!r}")
    r_min = args.r_min if args.r_min is not None else 0.05 / k
    r_max = args.r_max if args.r_max is not None else 20.0 / k
    _check_n_points(args.n_points)
    grid = RadialGrid(r_min, r_max, args.n_points)
    r = grid.points
    phi = assemble_phi2(k, grid)
    w = density_profile(2, k, r)
    if args.format == "csv":
        text = _csv(
            ("r", "phi2", "w2"),
            list(zip(r.tolist(), phi.tolist(), np.asarray(w).tolist())),
        )
    else:
        text = _json(
            {
                "command": "wavefunction",
                "k": k,
                "rows": [
                    {"r": float(a), "phi2": float(b), "w2": float(c)}
                    for a, b, c in zip(r, phi, np.asarray(w))
                ],
            }
        )
    _write(text, args.output)
    return 0


def _cmd_nodes(args: argparse.Namespace) -> int:
    if not 2 <= args.n_max <= _MAX_N_MAX:
        raise ValueError(f"--n-max must lie in [2, {_MAX_N_MAX}], got {args.n_max}")
    families = (CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y)
    reports = {}
    for fam in families:
        for order in (0, 1):
            reports[(fam, order)] = node_density(find_zeros(fam, order, args.n_max))
    if args.format == "csv":
        rows = []
        for (fam, order), rep in reports.items():
            z = rep.table.zeros
            for i in range(z.size - 1):
                rows.append(
                    (
                        fam.value,
                        order,
                        i + 1,
                        float(z[i]),
                        float(z[i + 1]),
                        float(rep.spacings[i]),
                        float(rep.densities[i]),
                    )
                )
        text = _csv(
            ("family", "order", "n", "zero_n", "zero_next", "spacing", "density"), rows
        )
    else:
        verdicts = {}
        tables = []
        for fam in families:
            verdict = bunching_verdict(reports[(fam, 0)], reports[(fam, 1)])
            verdicts[fam.value] = {
                "order0_bunched": verdict.order0_bunched,
                "order1_antibunched": verdict.order1_antibunched,
                "order0_monotone": verdict.order0_monotone,
                "order1_monotone": verdict.order1_monotone,
                "passed": verdict.passed,
                "max_violation": verdict.max_violation,
            }
            for order in (0, 1):
                rep = reports[(fam, order)]
                tables.append(
                    {
                        "family": fam.value,
                        "order": order,
                        "zeros": [float(v) for v in rep.table.zeros],
                        "spacings": [float(v) for v in rep.spacings],
                        "densities": [float(v) for v in rep.densities],
                    }
                )
        text = _json(
            {
                "command": "nodes",
                "n_max": args.n_max,
                "tables": tables,
                "verdicts": verdicts,
            }
        )
    _write(text, args.output)
    return 0


def _cmd_boundstate(args: argparse.Namespace) -> int:
    dim = args.dimension
    coupling = args.coupling
    cutoff = args.cutoff
    if dim == 1:
        if coupling is None:
            raise ValueError("dimension 1 needs --coupling (negative)")
        state = one_three_d_bound_energy(1, coupling=coupling)
        k = state.wavenumber
    elif dim == 3:
        if args.k is None:
            raise ValueError("dimension 3 needs --k (the inverse scattering length)")
        state = one_three_d_bound_energy(3, inverse_scattering_length=args.k)
        k = state.wavenumber
    else:
        if args.k is not None:
            k = args.k
            if cutoff is not None:
                coupling = coupling_from_k(k, cutoff)
        elif coupling is not None:
            if cutoff is None:
                raise ValueError("dimension 2 with --coupling also needs --cutoff")
            k = DeltaCoupling2D.from_coupling(coupling, cutoff).wavenumber
        else:
            raise ValueError("dimension 2 needs --k or --coupling with --cutoff")
    pd = density(dim, k, np.linspace(0.1 / k, 10.0 / k, 16))
    loc, val = density_maximum(pd)
    record = {
        "command": "boundstate",
        "dimension": dim,
        "wavenumber": k,
        "energy": -0.5 * k * k,
        "coupling": coupling,
        "cutoff": cutoff,
        "normalization": normalize_check(pd),
        "max_location": loc,
        "max_value": val,
    }
    bad = [key for key, v in record.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ArithmeticError(f"non-finite {', '.join(bad)} for dimension {dim}, k = {k!r}")
    _write(_json(record), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(args.tolerance_scale)
    all_passed = all(r.passed for r in results)
    text = _json(
        {
            "command": "verify",
            "tolerance_scale": args.tolerance_scale,
            "all_passed": all_passed,
            "suites": [dataclasses.asdict(r) for r in results],
        }
    )
    _write(text, args.output)
    return 0 if all_passed else 3


_DISPATCH = {
    "potential": _cmd_potential,
    "wavefunction": _cmd_wavefunction,
    "nodes": _cmd_nodes,
    "boundstate": _cmd_boundstate,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, ArithmeticError, QuadratureError, BracketingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
