"""Command-line front end.

Subcommands expose each computation as plot-ready CSV or JSON:

    potential     effective 1/r^2 potential on a radial grid
    wavefunction  planar bound-state amplitude and probability weight
    nodes         zero tables, spacings, densities, bunching verdicts
    boundstate    contact-potential bound state in 1, 2 or 3 dimensions
    verify        run every cross-check suite and report pass/fail

Output is deterministic byte for byte: CSV uses a single header row, LF
line endings and 17-significant-digit floats; JSON is one object with a
fixed key order, laid out as ``json.dumps(indent=2)`` lays it out. Both
carry only finite numbers. Exit codes: 0 success, 2 a validation or
numerical error or an ``--output`` path that cannot be opened (one
``error:`` line on stderr), 3 a verify suite failed. Each command checks
its ``--output`` after its arguments and before it computes, so a path
that cannot exist costs no computation; the file is opened only once the
output is complete, so a failing command writes none.

The module imports what every command but ``verify`` runs; ``verify``
imports its suites, and through them the radial solvers, when it runs,
so no other command compiles either.

Each command's options are declared once, in ``_COMMANDS``. A valid
command line is parsed from that table, without argparse or the locale
module its gettext loads; any other goes to a new ``build_parser()``,
built from the same table, which writes every help text and error.

One writer serves every table (the rows of ``potential`` and
``wavefunction``, the zero tables of ``nodes``): a float ndarray is
checked for finiteness once, and formatted by one ``%`` operation over a
per-row template, ``%.17g`` for CSV and ``%r`` (``float.__repr__``, as in
``json``) for JSON. A JSON table is spliced into the envelope that
``json.dumps`` writes around it, and the first non-finite number in
document order is refused with ``json``'s own message.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .boundstate import (
    DeltaCoupling2D,
    coupling_from_k,
    density,
    density_maximum,
    normalize_check,
    one_three_d_bound_energy,
    planar_rows,
)
from .nodes import BracketingError, bunching_verdict, find_zeros, node_density
from .potentials import (
    UNITS,
    EffectivePotentialSpec,
    PotentialFamily,
    RadialGrid,
    classify_potential,
    default_grid,
    eval_potential,
)
from .quadrature import QuadratureError
from .specfun import CylinderFamily

if TYPE_CHECKING:
    import argparse

_FAMILY_MAP = {
    "twodim": PotentialFamily.PLANAR_WAVE,
    "threedim": PotentialFamily.SPATIAL_WAVE,
    "ndim": PotentialFamily.ZERO_MOMENTUM_NDIM,
    "classical": PotentialFamily.CLASSICAL,
    "quantum-anti": PotentialFamily.QUANTUM_ANTICENTRIFUGAL,
}

#: Size limits: the cost of the zero tables and of the grids grows linearly
#: in --n-max and --n-points. At the limits, in process on a 2-core x86-64
#: host: nodes 0.23 s (3.3 MB of JSON), wavefunction 0.58 s (11.4 MB) and
#: potential 0.37 s (7.6 MB) as JSON, about half of which is float repr.
_MAX_N_MAX = 10_000
_MAX_N_POINTS = 100_000


class _Rows(NamedTuple):
    """A float table with named columns: CSV lines, or a JSON list of objects."""

    keys: tuple
    table: np.ndarray


def _check_finite(table: np.ndarray, fmt: str) -> None:
    # the message and the value json.dumps(allow_nan=False) reports for the
    # first non-finite number, in document order
    ok = np.isfinite(table)
    if not ok.all():
        bad = float(table.ravel()[np.argmin(ok.ravel())])
        raise ValueError(f"Out of range float values are not {fmt} compliant: {bad!r}")


def _render(template: str, sep: str, table: np.ndarray) -> str:
    # one %-format over the whole table: a row template per row, values
    # in row order; .tolist() gives Python floats, whose %r is float.__repr__
    return (sep.join([template] * len(table))) % tuple(table.ravel().tolist())


def _csv(header: Sequence[str], blocks: Sequence[tuple[str, np.ndarray]]) -> str:
    """The header line, then per (prefix, table) block one line per row:
    the prefix followed by the row's values as 17-digit floats."""
    parts = [",".join(header)]
    for prefix, table in blocks:
        _check_finite(table, "CSV")
        if len(table):
            parts.append(_render(prefix + ",".join(["%.17g"] * table.shape[1]), "\n", table))
    return "\n".join(parts) + "\n"


#: Where a table's items go in the envelope text: json.dumps(indent=2)
#: writes a one-string list ["\x00<i>"] as that string on its own line,
#: indented as the table's items are.
_SLOT = re.compile(r'( *)"\\u0000(\d+)"')


def _json(doc) -> str:
    """json.dumps(doc, indent=2, allow_nan=False) plus a newline, where an
    ndarray in ``doc`` is a list of floats and a _Rows a list of objects;
    their items are rendered by _render and spliced into the envelope."""
    tables = []

    def slot(v):
        if isinstance(v, (np.ndarray, _Rows)):
            table = v.table if isinstance(v, _Rows) else v
            _check_finite(table, "JSON")
            if not len(table):
                return []
            tables.append(v)
            return [f"\x00{len(tables) - 1}"]
        if isinstance(v, dict):
            return {key: slot(x) for key, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [slot(x) for x in v]
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        return v

    def items(m: re.Match) -> str:
        pad, v = m[1], tables[int(m[2])]
        if isinstance(v, np.ndarray):
            return _render(pad + "%r", ",\n", v)
        fields = ",\n".join(f"{pad}  {json.dumps(key)}: %r" for key in v.keys)
        return _render(f"{pad}{{\n{fields}\n{pad}}}", ",\n", v.table)

    text = json.dumps(slot(doc), indent=2, allow_nan=False)
    return _SLOT.sub(items, text) + "\n"


def _check_n_points(n_points: int) -> None:
    if n_points > _MAX_N_POINTS:
        raise ValueError(f"--n-points must be at most {_MAX_N_POINTS}, got {n_points}")


def _check_output(path) -> None:
    """Refuse, before a command computes, an --output that _write could not
    open, with _write's error: argparse's '--', an empty path, an existing
    directory, or a path whose directory cannot be reached.  It creates no
    file; what only the open can tell still raises from _write."""
    if path in (None, "-"):
        return
    # argparse before Python 3.13 reads --output=-- as an empty list
    if not isinstance(path, str):
        raise ValueError("--output needs a file path or '-', got '--'")
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    else:
        try:
            # a trailing separator makes open's error EISDIR, so it is left to open
            os.stat(os.path.dirname(path.rstrip(os.sep)) or ".")
            return
        except OSError as exc:
            code = exc.errno
    raise ValueError(f"cannot open --output {path!r}: {os.strerror(code)}")


def _write(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot open --output {path!r}: {exc.strerror}") from None
    with fh:
        fh.write(text)


class _Option(NamedTuple):
    """One ``--flag value`` option of a command, as ``add_argument`` takes it."""

    flag: str
    dest: str
    type: Callable[[str], object] = str
    default: object = None
    choices: Sequence | None = None
    required: bool = False
    help: str | None = None


class _Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace], int]
    options: tuple[_Option, ...]


_FORMAT = _Option("--format", "format", choices=("csv", "json"), default="csv")
_OUTPUT = _Option("--output", "output", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    """A new full parser over the option table of every command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="anticentrifugal",
        description=(
            "Radial quantum mechanics of the attractive -1/(4 r^2) term: "
            "potentials, waves, node statistics and contact bound states. "
            f"Units: {UNITS}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            p.add_argument(opt.flag, dest=opt.dest, type=opt.type, default=opt.default,
                           choices=opt.choices, required=opt.required, help=opt.help)
    return parser


def _parse_table(argv: list[str]) -> SimpleNamespace | None:
    """build_parser().parse_args(argv)'s attributes where argv is a command
    and exact ``--flag value`` or ``--flag=value`` options of it, with every
    value valid and every required flag given; None for any other argv."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {opt.flag: opt for opt in command.options}
    values = {opt.dest: opt.default for opt in command.options}
    missing = {opt.flag for opt in command.options if opt.required}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        opt = options.get(flag)
        if not eq:
            value = next(tokens, "-")  # a missing value reads as "-"
        # argparse may read a separate value that starts with '-' as an
        # option, and before Python 3.13 it drops a "--" given after '='
        if opt is None or value == "--" or not eq and value.startswith("-"):
            return None
        try:
            value = opt.type(value)
        except (TypeError, ValueError):
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value  # the last occurrence wins, as in argparse
        missing.discard(flag)
    if missing:
        return None
    return SimpleNamespace(command=argv[0], **values)


def _cmd_potential(args: argparse.Namespace) -> int:
    spec = EffectivePotentialSpec(
        _FAMILY_MAP[args.family],
        angular_momentum=args.m,
        n_dim=args.n_dim,
        classical_l_squared=args.l_squared,
    )
    _check_n_points(args.n_points)
    grid = RadialGrid(args.r_min, args.r_max, args.n_points)
    _check_output(args.output)
    r = grid.points
    # a V that overflows is refused by the writers below, with one error line
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = eval_potential(spec, r)
    rows = _Rows(("r", "V"), np.column_stack((r, v)))
    if args.format == "csv":
        text = _csv(rows.keys, [("", rows.table)])
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
                "rows": rows,
            }
        )
    _write(text, args.output)
    return 0


def _cmd_wavefunction(args: argparse.Namespace) -> int:
    k = args.k
    r_min, r_max = args.r_min, args.r_max
    if r_min is None or r_max is None:
        # default_grid checks k, as planar_rows does below; a window
        # given in full is used even where the default one overflows
        window = default_grid(k)
        r_min = window.r_min if r_min is None else r_min
        r_max = window.r_max if r_max is None else r_max
    _check_n_points(args.n_points)
    grid = RadialGrid(r_min, r_max, args.n_points)
    _check_output(args.output)
    r = grid.points
    rows = _Rows(("r", "phi2", "w2"), np.column_stack((r, *planar_rows(k, r))))
    if args.format == "csv":
        text = _csv(rows.keys, [("", rows.table)])
    else:
        text = _json({"command": "wavefunction", "k": k, "rows": rows})
    _write(text, args.output)
    return 0


def _cmd_nodes(args: argparse.Namespace) -> int:
    if not 2 <= args.n_max <= _MAX_N_MAX:
        raise ValueError(f"--n-max must lie in [2, {_MAX_N_MAX}], got {args.n_max}")
    _check_output(args.output)
    families = (CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y)
    reports = {}
    for fam in families:
        for order in (0, 1):
            reports[(fam, order)] = node_density(find_zeros(fam, order, args.n_max))
    if args.format == "csv":
        # n is a float column: %.17g prints 1 to 9999 as str(int) does
        blocks = [
            (
                f"{fam.value},{order},",
                np.column_stack(
                    (
                        np.arange(1.0, rep.table.zeros.size),
                        rep.table.zeros[:-1],
                        rep.table.zeros[1:],
                        rep.spacings,
                        rep.densities,
                    )
                ),
            )
            for (fam, order), rep in reports.items()
        ]
        text = _csv(("family", "order", "n", "zero_n", "zero_next", "spacing", "density"), blocks)
    else:
        verdicts = {}
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
        tables = [
            {
                "family": fam.value,
                "order": order,
                "zeros": rep.table.zeros,
                "spacings": rep.spacings,
                "densities": rep.densities,
            }
            for (fam, order), rep in reports.items()
        ]
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
    # a flag the dimension does not read would be dropped or echoed
    # unused in the record, so it is refused
    if dim != 2:
        reads = "coupling" if dim == 1 else "k"
        unread = [
            f"--{flag}" for flag in ("k", "coupling", "cutoff")
            if flag != reads and getattr(args, flag) is not None
        ]
        if unread:
            raise ValueError(f"dimension {dim} reads only --{reads}, not {' or '.join(unread)}")
    elif args.k is not None and coupling is not None:
        raise ValueError("dimension 2 reads --k or --coupling, not both")
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
    _check_output(args.output)
    # both checks read only the form and the wavenumber of pd
    pd = density(dim, k, [0.0])
    norm = normalize_check(pd)
    loc, val = density_maximum(pd)
    record = {
        "command": "boundstate",
        "dimension": dim,
        "wavenumber": k,
        "energy": -0.5 * k * k,
        "coupling": coupling,
        "cutoff": cutoff,
        "normalization": norm,
        "max_location": loc,
        "max_value": val,
    }
    bad = [key for key, v in record.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ArithmeticError(f"non-finite {', '.join(bad)} for dimension {dim}, k = {k!r}")
    _write(_json(record), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_all  # see the module docstring

    _check_output(args.output)
    results = run_all(args.tolerance_scale)
    all_passed = all(r.passed for r in results)
    text = _json(
        {
            "command": "verify",
            "tolerance_scale": args.tolerance_scale,
            "all_passed": all_passed,
            "suites": [r._asdict() for r in results],
        }
    )
    _write(text, args.output)
    return 0 if all_passed else 3


#: Each command's help line, runner and options, in the order the full
#: usage lists the commands: the one table build_parser() and _parse_table() read.
_COMMANDS = {
    "potential": _Command("evaluate an effective potential on a grid", _cmd_potential, (
        _Option("--family", "family", required=True, choices=sorted(_FAMILY_MAP)),
        _Option("--m", "m", int, 0, help="angular momentum (twodim/threedim)"),
        _Option("--N", "n_dim", int, 2, help="space dimension (ndim)"),
        _Option("--l-squared", "l_squared", float, 0.0,
                help="squared classical angular momentum (classical)"),
        _Option("--r-min", "r_min", float, 0.5),
        _Option("--r-max", "r_max", float, 10.0),
        _Option("--n-points", "n_points", int, 200, help=f"at most {_MAX_N_POINTS}"),
        _FORMAT, _OUTPUT,
    )),
    "wavefunction": _Command(
        "planar bound-state amplitude and weight on a grid", _cmd_wavefunction, (
        _Option("--k", "k", float, required=True, help="bound-state wavenumber"),
        _Option("--r-min", "r_min", float, help="default 0.05/k"),
        _Option("--r-max", "r_max", float, help="default 20/k"),
        _Option("--n-points", "n_points", int, 2000, help=f"at most {_MAX_N_POINTS}"),
        _FORMAT, _OUTPUT,
    )),
    "nodes": _Command("zero tables and bunching statistics", _cmd_nodes, (
        _Option("--n-max", "n_max", int, 20, help=f"zeros per table (2 to {_MAX_N_MAX})"),
        _FORMAT, _OUTPUT,
    )),
    "boundstate": _Command("contact-potential bound state (JSON)", _cmd_boundstate, (
        _Option("--dimension", "dimension", int, required=True, choices=(1, 2, 3)),
        _Option("--k", "k", float,
                help="wavenumber (3D inverse scattering length; alternative 2D input)"),
        _Option("--coupling", "coupling", float, help="contact strength"),
        _Option("--cutoff", "cutoff", float, help="2D momentum cutoff"),
        _OUTPUT,
    )),
    "verify": _Command("run every cross-check suite (JSON report)", _cmd_verify, (
        _Option("--tolerance-scale", "tolerance_scale", float, 1.0,
                help="multiply every tolerance; 0 forces the failure path"),
        _OUTPUT,
    )),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_table(argv)
    if args is None:
        # help, errors and exit codes come from the full parser alone
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command].run(args)
    except (ValueError, ArithmeticError, QuadratureError, BracketingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
