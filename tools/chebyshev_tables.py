"""The fitted Chebyshev tables of specfun, computed with mpmath.

specfun holds two tables, each a tuple of series c_n .. c_0 in a variable u
that runs from 1 at the left end of its interval to -1 at the right:

* _K01_CHEBYSHEV: e^x sqrt(x) K_0(x) and e^x sqrt(x) K_1(x) on [3, 20], in
  u = (120/x - 23)/17 (the Cephes k0e/k1e form: Moshier, Methods and
  Programs for Mathematical Functions, 1989), 80 nodes, 160-bit mpmath;
* _JY01_CHEBYSHEV: P_0 - 1, Q_0, P_1 - 1 and Q_1 on [2, 20], with P_m and
  Q_m the Hankel amplitudes, in u = (40/x - 11)/9, 120 nodes, 200-bit
  mpmath.  P_m stays within 0.04 of 1 there, so the series of P_m - 1 sums
  to a small number, and adding 1 is its only rounding at the scale of 1.
  It is the series of P_m, cut as below, with 2 taken from c_0 before
  rounding.  P_m and Q_m are defined by
  J_m = sqrt(2/(pi x)) (P_m cos w - Q_m sin w) and
  Y_m = sqrt(2/(pi x)) (P_m sin w + Q_m cos w), w = x - (2m + 1) pi/4
  (DLMF 10.17; the Cephes j0/y0 form), so that
  P_m = (J_m cos w + Y_m sin w) / sqrt(2/(pi x)) and
  Q_m = (Y_m cos w - J_m sin w) / sqrt(2/(pi x)).

The coefficients of a function g are the discrete Chebyshev transform

    c_j = 2/M sum_k g(x(theta_k)) cos(j theta_k),  theta_k = pi (k + 1/2) / M,

over M nodes, with x(theta) the interval's map at u = cos(theta), each
rounded once to the nearest double.  A series is c_0/2 + sum_{j>=1} c_j T_j(u),
cut after its last coefficient above 1e-17 of its largest, and listed
highest first, the order Clenshaw's recurrence reads them in.

Usage, from the repository root:

    python3 tools/chebyshev_tables.py           # print both tables as Python source
    python3 tools/chebyshev_tables.py --check   # exit 1 unless specfun holds them
"""

import sys
from pathlib import Path

import mpmath

#: Coefficients of a series past the last above this fraction of its largest
#: are dropped.
CUT = 1e-17

#: Enough coefficients to hold every series before its cut.
MAX_TERMS = 40


def _k_scaled(m: int):
    return lambda x: mpmath.exp(x) * mpmath.sqrt(x) * mpmath.besselk(m, x)


def _hankel_amplitude(m: int, which: str):
    def g(x):
        w = x - (2 * m + 1) * mpmath.pi / 4
        j, y = mpmath.besselj(m, x), mpmath.bessely(m, x)
        c, s = mpmath.cos(w), mpmath.sin(w)
        return (j * c + y * s if which == "P" else y * c - j * s) / mpmath.sqrt(2 / (mpmath.pi * x))

    return g


#: Per table: its name in specfun; x(u) = a / (b u + c); the number of nodes
#: and bits; and its series in order, each with the constant taken from it.
TABLES = (
    ("_K01_CHEBYSHEV", (120, 17, 23), 80, 160, ((_k_scaled(0), 0), (_k_scaled(1), 0))),
    (
        "_JY01_CHEBYSHEV",
        (40, 9, 11),
        120,
        200,
        tuple((_hankel_amplitude(m, which), int(which == "P")) for m in (0, 1) for which in "PQ"),
    ),
)


def coefficients(g, offset: int, mapping, nodes: int, bits: int) -> tuple[float, ...]:
    """c_n .. c_0 of g - offset, each rounded to a double: the series of g,
    cut after the last coefficient above CUT times the largest, with
    2 offset taken from c_0."""
    a, b, c = mapping
    with mpmath.workprec(bits):
        thetas = [mpmath.pi * (k + mpmath.mpf(0.5)) / nodes for k in range(nodes)]
        gs = [g(a / (b * mpmath.cos(t) + c)) for t in thetas]
        cs = [
            2 * mpmath.fsum(v * mpmath.cos(j * t) for v, t in zip(gs, thetas)) / nodes
            for j in range(MAX_TERMS)
        ]
        top = max(abs(v) for v in cs)
        n = 1 + max(j for j, v in enumerate(cs) if abs(v) > CUT * top)
        assert n < MAX_TERMS, "the series did not fall below its cut"
        cs[0] -= 2 * offset
        return tuple(float(v) for v in reversed(cs[:n]))


def source(name: str, rows) -> str:
    lines = [f"{name} = ("]
    for row in rows:
        for i in range(0, len(row), 3):
            lead = "    (" if i == 0 else "     "
            tail = ")," if i + 3 >= len(row) else ","
            lines.append(lead + ", ".join(repr(c) for c in row[i : i + 3]) + tail)
    lines.append(")")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: python3 tools/chebyshev_tables.py [--check]", file=sys.stderr)
        return 2
    tables = [
        (name, tuple(coefficients(g, offset, mapping, nodes, bits) for g, offset in series))
        for name, mapping, nodes, bits, series in TABLES
    ]
    if not argv:
        print("\n\n".join(source(name, rows) for name, rows in tables))
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from anticentrifugal import specfun

    failed = 0
    for name, rows in tables:
        if getattr(specfun, name, None) == rows:
            print(f"specfun.{name} matches the generator")
        else:
            print(f"specfun.{name} differs from the generator; it should read:")
            print(source(name, rows))
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
