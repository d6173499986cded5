"""Chebyshev coefficients of e^x sqrt(x) K_0(x) and e^x sqrt(x) K_1(x) on [3, 20].

specfun takes K_0 and K_1 on [3, 20) from these two series in
u = (120/x - 23)/17, which runs from 1 at x = 3 to -1 at x = 20 (the
Cephes k0e/k1e form: Moshier, Methods and Programs for Mathematical
Functions, 1989).  The coefficients are the discrete Chebyshev transform

    c_j = 2/M sum_k g(x(theta_k)) cos(j theta_k),  theta_k = pi (k + 1/2) / M,

of g = e^x sqrt(x) K_m(x) at x(theta) = 120 / (17 cos(theta) + 23), with
M = 80 nodes and 160-bit mpmath, each rounded once to the nearest double.
The series is c_0/2 + sum_{j>=1} c_j T_j(u); the table lists c_16 .. c_0,
highest first, the order Clenshaw's recurrence reads them in.

Usage, from the repository root:

    python3 tools/k01_chebyshev.py           # print the table as Python source
    python3 tools/k01_chebyshev.py --check   # exit 1 unless specfun holds it
"""

import sys
from pathlib import Path

import mpmath

PRECISION_BITS = 160
NODES = 80
TERMS = 17


def coefficients(m: int) -> tuple[float, ...]:
    """c_16 .. c_0 of e^x sqrt(x) K_m(x), each rounded to a double."""
    with mpmath.workprec(PRECISION_BITS):
        thetas = [mpmath.pi * (k + mpmath.mpf(0.5)) / NODES for k in range(NODES)]
        xs = [120 / (17 * mpmath.cos(t) + 23) for t in thetas]
        gs = [mpmath.exp(x) * mpmath.sqrt(x) * mpmath.besselk(m, x) for x in xs]
        cs = [
            2 * mpmath.fsum(g * mpmath.cos(j * t) for g, t in zip(gs, thetas)) / NODES
            for j in range(TERMS)
        ]
        return tuple(float(c) for c in reversed(cs))


def source(rows) -> str:
    lines = ["_K01_CHEBYSHEV = ("]
    for row in rows:
        for i in range(0, len(row), 3):
            lead = "    (" if i == 0 else "     "
            tail = ")," if i + 3 >= len(row) else ","
            lines.append(lead + ", ".join(repr(c) for c in row[i : i + 3]) + tail)
    lines.append(")")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: python3 tools/k01_chebyshev.py [--check]", file=sys.stderr)
        return 2
    rows = coefficients(0), coefficients(1)
    if not argv:
        print(source(rows))
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from anticentrifugal import specfun

    if specfun._K01_CHEBYSHEV == rows:
        print("specfun._K01_CHEBYSHEV matches the generator")
        return 0
    print("specfun._K01_CHEBYSHEV differs from the generator; it should read:")
    print(source(rows))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
