"""Cross-checking suites that pit independent computational routes against
each other: identities against direct evaluation, quadrature against series,
numeric integration against closed forms.

``run_all`` is what the command line's ``verify`` subcommand serializes.
Every check is deterministic, so repeated runs produce identical reports.
The one random sample set is frozen from seed 20240815: ``_SOMMERFELD_SAMPLE``
holds the 100 doubles that ``np.random.default_rng(20240815).uniform(0.0,
20.0, 100)`` draws, written by ``repr``, so a run never imports
``numpy.random``. ``tolerance_scale`` multiplies every tolerance; zero is
the supported way to exercise the failure path end to end.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .boundstate import (
    coupling_from_k,
    cutoff_integral,
    density,
    density_maximum,
    density_profile,
    k_from_coupling,
    normalize_check,
    ring_peak_parameter,
)
from .nodes import ZeroTable, bunching_verdict, find_zeros, node_density, solve_in_brackets
from .potentials import (
    EffectivePotentialSpec,
    PotentialFamily,
    SignClass,
    classify_potential,
)
from .radial import (
    Direction,
    RadialGrid,
    RadialWave,
    SolutionFamily,
    _integrate_runs,
    _reduction_check,
    analytic_radial,
    five_point_derivatives,
    integrate_radial,
    ode_residual,
)
from .specfun import (
    CylinderFamily,
    _crossover_mismatch,
    _slope,
    besselj,
    besselk,
    bessely,
    cylinder_rows,
    sommerfeld_j0,
)

#: np.random.default_rng(20240815).uniform(0.0, 20.0, 100), as Python floats
_SOMMERFELD_SAMPLE = (
    19.166741294300405, 12.998658843971008, 7.242694665890756, 11.608464099471362,
    10.027236037288835, 14.962778354653265, 12.76762770049973, 6.887716613829699,
    15.529680571043167, 2.470885556914164, 6.402395481099344, 8.016747231928036,
    12.688287492960036, 4.81204678803943, 16.613300226662787, 3.1599658908196915,
    9.379294644447729, 14.168011539034438, 17.247914486658388, 8.096686274088945,
    3.342019779855907, 2.397259886738994, 5.2585382082540715, 5.418526481135453,
    6.826573796492042, 13.022449786463945, 0.07114788067655642, 10.341787527984696,
    16.55226671766039, 13.863027608403462, 13.386647296997525, 15.371895253915675,
    2.7536367272948303, 9.802238721924702, 3.7139960699097685, 11.97560681816341,
    18.877528731140142, 10.43329143898572, 13.405286702078172, 0.2222546580134832,
    16.520865227096664, 12.575080085362735, 3.5831730163566267, 0.3676296827874981,
    12.224479902553774, 3.5260173924657856, 13.086473264360981, 1.6581865627101466,
    12.767393333641033, 2.5268020634863575, 10.129062230201335, 4.283782312512352,
    19.32720506128379, 6.9774665882988485, 8.956374656176473, 19.830943280553488,
    9.653407273048193, 10.282739223824393, 15.767282495925588, 0.6397092815259997,
    14.77729260469455, 10.715021204361776, 1.9573501618714606, 7.037964243192203,
    6.521585030867145, 15.900676583347463, 9.11891907019173, 15.966132358441179,
    10.86940246901811, 12.974375241171202, 14.583169158104166, 13.890151119719931,
    12.975897074117801, 1.0846728458219257, 17.69538440874652, 18.501046808775317,
    5.42047851905938, 12.612335162376368, 17.026987775920333, 2.0841260333872613,
    6.269790234697783, 14.587215169190134, 14.656633066162552, 7.59567085272751,
    9.67063418588815, 19.25997187129302, 1.4006043580990335, 8.44182154015908,
    4.22669704094136, 2.013840031000471, 0.9769730413486699, 8.030764699418832,
    4.289747592990405, 9.480409937857361, 5.256189136928791, 4.604946154739,
    1.053917641007469, 11.318073701800046, 7.5723538987373695, 18.742514335112446,
)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


class SuiteResult(Record):
    """One named check: observed worst error against its scaled tolerance."""

    name: str
    passed: bool
    max_error: float
    tolerance: float
    detail: str = ""


def _res(name: str, err: float, tol: float, scale: float, detail: str = "") -> SuiteResult:
    tol_eff = tol * scale
    return SuiteResult(name, bool(err <= tol_eff), float(err), float(tol_eff), detail)


def suite_wronskians(scale: float = 1.0) -> list[SuiteResult]:
    """Wronskian identities of the two solution pairs on a dense grid.

    J_m Y_m' - J_m' Y_m must equal 2/(pi x) and I_m K_m' - I_m' K_m must
    equal -1/x; each mixes all four evaluation regimes across [0.1, 50].
    Each family is evaluated at orders 0, 1 and 2 by cylinder_rows, bit
    for bit as by one call per order, with one pass per family: J and I
    take orders 0 to 2 from one series, Miller or Hankel pass, since those
    orders share the Miller start order and the switch to the Hankel rows;
    Y and K take orders 0 and 1 from one pass and order 2 from the upward
    step that bessely(2) and besselk(2) run on those rows.
    """
    xs = np.linspace(0.1, 50.0, 1000)
    # the slopes of orders 0 and 1 need nothing else
    values, slopes = {}, {}
    for fam in CylinderFamily:
        c0, c1, c2 = cylinder_rows(fam, xs, 3)
        values[fam] = (c0, c1)
        slopes[fam] = (_slope(fam, 0, None, c1), _slope(fam, 1, c0, c2))

    def wronskian(f: CylinderFamily, g: CylinderFamily, m: int) -> np.ndarray:
        return values[f][m] * slopes[g][m] - slopes[f][m] * values[g][m]

    osc = (CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y)
    mod = (CylinderFamily.MODIFIED_I, CylinderFamily.MODIFIED_K)
    worst_osc = max(
        float(np.max(np.abs(wronskian(*osc, m) - 2.0 / (math.pi * xs)))) for m in (0, 1)
    )
    worst_mod = max(float(np.max(np.abs(wronskian(*mod, m) + 1.0 / xs))) for m in (0, 1))
    detail = "orders 0 and 1 on 1000 points of [0.1, 50]"
    return [
        _res("wronskian-oscillatory", worst_osc, 1e-10, scale, detail),
        _res("wronskian-modified", worst_mod, 1e-10, scale, detail),
    ]


def suite_sommerfeld(scale: float = 1.0) -> list[SuiteResult]:
    """Angular plane-wave quadrature against the series evaluation of J_0,
    each taken by one array call, which gives the scalar calls' values."""
    args = np.array((0.0, 20.0) + _SOMMERFELD_SAMPLE)
    worst = float(np.max(np.abs(sommerfeld_j0(args) - besselj(0, args))))
    return [
        _res(
            "sommerfeld-interference",
            worst,
            1e-10,
            scale,
            "256-point angular quadrature, 100 seeded arguments plus endpoints",
        )
    ]


def suite_special_limits(scale: float = 1.0) -> list[SuiteResult]:
    """Limiting behavior of K_0 and continuity across method switches."""
    out = []
    # logarithmic divergence toward the origin
    err = abs(besselk(0, 1e-8) / (-math.log(1e-8)) - 1.0)
    out.append(
        _res("k0-log-divergence", err, 1e-2, scale, "K_0(x)/(-ln x) at x = 1e-8")
    )
    # exponential decay: the product K_0(x) e^x sqrt(x) approaches
    # sqrt(pi/2) like 1 - 1/(8x), so at x = 50 the raw product still sits
    # 2.5e-3 away; test the first-order-corrected ratio tightly and the
    # raw deviation loosely, plus its decrease with x
    def decay_product(x: float) -> float:
        return besselk(0, x) * math.exp(x) * math.sqrt(x)

    def corrected(x: float) -> float:
        return _SQRT_HALF_PI * (1.0 - 1.0 / (8.0 * x) + 9.0 / (128.0 * x * x))

    err = max(abs(decay_product(x) / corrected(x) - 1.0) for x in (50.0, 100.0, 200.0))
    out.append(
        _res(
            "k0-exponential-decay",
            err,
            1e-5,
            scale,
            "K_0(x) e^x sqrt(x) against sqrt(pi/2)(1 - 1/(8x) + 9/(128x^2))",
        )
    )
    dev50 = abs(decay_product(50.0) - _SQRT_HALF_PI)
    dev200 = abs(decay_product(200.0) - _SQRT_HALF_PI)
    out.append(
        _res(
            "k0-decay-trend",
            max(dev50 / 5e-3, dev200 / dev50 / 0.5),
            1.0,
            scale,
            "raw deviation below 5e-3 at x=50 and shrinking by x=200",
        )
    )
    # both evaluation routes agree at the switch points
    out.append(
        _res(
            "crossover-continuity",
            _crossover_mismatch(),
            1e-10,
            scale,
            "series vs large-argument routes 1e-6 on either side of each switch",
        )
    )
    return out


_QUANTUM_ANTI = EffectivePotentialSpec(PotentialFamily.QUANTUM_ANTICENTRIFUGAL)


def _match_grid(h: float) -> RadialGrid:
    n = round(20.0 / h) + 1
    return RadialGrid(0.05, 20.05, n)


def _seed_pair(fn, k: float, grid: RadialGrid, at: tuple[int, int]) -> tuple[float, float]:
    """sqrt(r) C_0(k r) at two grid indices only: the array path of *fn* is
    elementwise, so these equal analytic_radial's values there."""
    r = grid.points[list(at)]
    return tuple((np.sqrt(r) * fn(0, k * r)).tolist())


def _decaying_match(h: float, fine: RadialWave | None = None):
    """The closed-form decaying wave at k = 1 and its inward Numerov march
    on the matching grid of spacing h.

    *fine* is the closed form on a finer matching grid.  Where the points
    of this grid are every s-th point of that one, as linspace gives for
    spacings that differ by a power of two, the wave is its slice at
    stride s: the closed form is elementwise, so these are the values
    analytic_radial gives here.
    """
    grid = _match_grid(h)
    stride = round(h / fine.grid.spacing) if fine is not None else 0
    if stride and np.array_equal(grid.points, fine.grid.points[::stride]):
        ana = RadialWave(grid, fine.values[::stride], 1.0, fine.energy_sign, fine.family)
    else:
        ana = analytic_radial(SolutionFamily.DECAYING_MODIFIED, 0, 1.0, grid)
    num = integrate_radial(
        _QUANTUM_ANTI,
        -0.5,
        grid,
        (float(ana.values[-1]), float(ana.values[-2])),
        Direction.INWARD,
    )
    return ana, num


def suite_radial(scale: float = 1.0) -> list[SuiteResult]:
    """Numerov integration against the closed-form radial solutions."""
    out = []
    # decaying branch, marched inward: pointwise relative error is fair
    # because the solution never vanishes
    ana_k, num_k = _decaying_match(1e-3)
    grid = ana_k.grid
    err = float(np.max(np.abs(num_k.values - ana_k.values) / np.abs(ana_k.values)))
    out.append(
        _res("radial-match-decaying", err, 1e-6, scale, "inward Numerov vs closed form, h = 1e-3")
    )
    # oscillatory branch, marched outward: relative to the global amplitude
    # because the solution has zeros
    ana_j = analytic_radial(SolutionFamily.OSCILLATORY_REGULAR, 0, 1.0, grid)
    num_j = integrate_radial(
        _QUANTUM_ANTI,
        0.5,
        grid,
        (float(ana_j.values[0]), float(ana_j.values[1])),
        Direction.OUTWARD,
    )
    err = float(
        np.max(np.abs(num_j.values - ana_j.values)) / np.max(np.abs(ana_j.values))
    )
    out.append(
        _res("radial-match-oscillatory", err, 1e-6, scale, "outward Numerov vs closed form, h = 1e-3")
    )
    # closed-form solutions must satisfy the equation under finite differences
    res_grid = RadialGrid(0.5, 10.0, 9501)
    r1 = ode_residual(
        analytic_radial(SolutionFamily.DECAYING_MODIFIED, 0, 1.0, res_grid),
        _QUANTUM_ANTI,
        -0.5,
    )
    spec_m1 = EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, angular_momentum=1)
    r2 = ode_residual(
        analytic_radial(SolutionFamily.OSCILLATORY_REGULAR, 1, 1.0, res_grid),
        spec_m1,
        0.5,
    )
    out.append(
        _res("radial-residual", max(r1, r2), 1e-5, scale, "five-point defect of closed forms")
    )
    # fourth-order convergence, observed from three spacings
    pairs = [_decaying_match(h, ana_k) for h in (4e-3, 2e-3)] + [(ana_k, num_k)]
    errs = [float(np.max(np.abs(num.values - ana.values))) for ana, num in pairs]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    out.append(
        _res(
            "radial-convergence-order",
            max(abs(o - 4.0) for o in orders),
            0.2,
            scale,
            f"orders {orders[0]:.3f}, {orders[1]:.3f} from h = 4e-3, 2e-3, 1e-3",
        )
    )
    # branch selection: decaying seeds stay bounded inward, generic seeds
    # at the same negative energy blow up outward
    k_big = 30.0
    num = integrate_radial(
        _QUANTUM_ANTI,
        -0.5 * k_big * k_big,
        grid,
        _seed_pair(besselk, k_big, grid, (-1, -2)),
        Direction.INWARD,
    )
    bounded = float(np.max(np.abs(num.values))) < 10.0
    try:
        integrate_radial(
            _QUANTUM_ANTI, -0.5 * k_big * k_big, grid, (1e-6, 1.1e-6), Direction.OUTWARD
        )
        overflowed = False
    except OverflowError:
        overflowed = True
    out.append(
        _res(
            "radial-branch-selection",
            0.0 if (bounded and overflowed) else 1.0,
            0.0,
            scale,
            "inward decaying run bounded; outward generic run overflows",
        )
    )
    # constancy of the Wronskian of two independent numeric solutions
    wgrid = RadialGrid(0.5, 20.5, 20001)
    # the two marches share one build of the step coefficients
    seeds = [_seed_pair(fn, 1.0, wgrid, (0, 1)) for fn in (besselj, bessely)]
    waves = _integrate_runs(_QUANTUM_ANTI, 0.5, wgrid, seeds, Direction.OUTWARD)
    u1, u2 = (wave.values for wave in waves)
    d1 = five_point_derivatives(u1, wgrid.spacing)[0]
    d2 = five_point_derivatives(u2, wgrid.spacing)[0]
    w = u1[2:-2] * d2 - d1 * u2[2:-2]
    # the median, as the middle element of an odd count (19997 entries):
    # np.median would import numpy.ma; a nan in w still makes the drift nan
    mid = float(np.partition(w, w.size // 2)[w.size // 2])
    drift = float((np.max(w) - np.min(w)) / abs(mid))
    out.append(
        _res(
            "radial-wronskian-constancy",
            drift,
            1e-8,
            scale,
            "numeric solution pair on [0.5, 20.5]",
        )
    )
    # the polar equation and its half-power reduction agree; K_0 and K_1
    # come from one pass per wavenumber, as laplacian_reduction_check's
    # besselk(0) and besselk(1) give them
    lap_grid = RadialGrid(0.5, 10.0, 2001)
    phi = {k: cylinder_rows(CylinderFamily.MODIFIED_K, k * lap_grid.points, 2) for k in (1.0, 2.0)}
    lap = max(_reduction_check(m, k, lap_grid, phi[k][m]) for m in (0, 1) for k in (1.0, 2.0))
    out.append(
        _res("laplacian-reduction", lap, 1e-5, scale, "orders 0, 1 at k = 1, 2")
    )
    return out


def suite_normalization(scale: float = 1.0) -> list[SuiteResult]:
    """Unit total probability for every dimension.  The total is scale-free
    in k: W(r) dr = rho(xi) dxi in xi = k r, so one wavenumber serves all."""
    # normalize_check reads only the form
    worst = max(abs(normalize_check(density(dim, 1.0, [0.0])) - 1.0) for dim in (1, 2, 3))
    return [
        _res(
            "density-normalization",
            worst,
            1e-8,
            scale,
            "dimensions 1-3; the total is scale-free in k",
        )
    ]


def suite_nodes(scale: float = 1.0) -> list[SuiteResult]:
    """Node bunching/anti-bunching statistics and the large-index spacing."""
    out = []
    tables = {
        (fam, m): find_zeros(fam, m, 51)
        for fam in (CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y)
        for m in (0, 1)
    }
    worst_violation = 0.0
    first_densities = {}
    for fam in (CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y):
        reports = {
            m: node_density(
                ZeroTable(fam, m, tables[(fam, m)].zeros[:21])
            )
            for m in (0, 1)
        }
        verdict = bunching_verdict(reports[0], reports[1])
        worst_violation = max(worst_violation, verdict.max_violation)
        first_densities[fam] = float(reports[0].densities[0])
    out.append(
        _res(
            "node-bunching",
            worst_violation,
            0.0,
            scale,
            "orders 0/1 of both oscillatory families, 20 intervals",
        )
    )
    excess = first_densities[CylinderFamily.NEUMANN_Y] - first_densities[
        CylinderFamily.BESSEL_J
    ]
    out.append(
        _res(
            "neumann-bunching-excess",
            max(0.0, -excess),
            0.0,
            scale,
            "first-interval bunching stronger for the singular family",
        )
    )
    worst_gap = 0.0
    for table in tables.values():
        worst_gap = max(
            worst_gap, abs(float(table.zeros[50] - table.zeros[49]) - math.pi)
        )
    out.append(
        _res("spacing-approaches-pi", worst_gap, 1e-3, scale, "spacing of zeros 50-51")
    )
    return out


def suite_dimensions(scale: float = 1.0) -> list[SuiteResult]:
    """Sign pattern of the zero-angular-momentum potential across dimensions."""
    expected = {1: SignClass.VANISHING, 2: SignClass.ATTRACTIVE, 3: SignClass.VANISHING}
    mismatches = 0
    for n in range(1, 21):
        want = expected.get(n, SignClass.REPULSIVE)
        spec = EffectivePotentialSpec(PotentialFamily.ZERO_MOMENTUM_NDIM, n_dim=n)
        if classify_potential(spec) is not want:
            mismatches += 1
    return [
        _res(
            "dimension-sweep",
            float(mismatches),
            0.0,
            scale,
            "vanishing/attractive/vanishing/repulsive... for N = 1..20",
        )
    ]


def _quadrature_roots(couplings: np.ndarray, cutoff: float, guesses: np.ndarray) -> np.ndarray:
    """Wavenumber roots of the cutoff condition with the integral done by
    quadrature, one per coupling, by bracketed Newton steps in t = ln k
    on [ln guess - 0.2, ln guess + 0.2].

    The slope -L^2 / (L^2 + k^2) of the closed form only steers the
    steps; each root is where its quadrature condition changes sign.  All
    roots step together, one cutoff_integral pass per step, and each is
    the root its coupling's own solve gives.
    """
    targets = 2.0 * math.pi / couplings
    cut2 = cutoff * cutoff

    def value_and_slope(ts: np.ndarray, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ks = np.exp(ts)
        return cutoff_integral(ks, cutoff) - targets[lanes], -cut2 / (cut2 + ks * ks)

    ts = np.array([math.log(g) for g in guesses.tolist()])
    roots = solve_in_brackets(value_and_slope, np.stack((ts - 0.2, ts + 0.2), axis=1), ts)
    return np.array([math.exp(t) for t in roots.tolist()])


def suite_delta_coupling(scale: float = 1.0) -> list[SuiteResult]:
    """Closed-form planar wavenumber against the quadrature-evaluated
    condition, plus the coupling round trip."""
    cutoff = 1.0
    couplings = np.geomspace(0.1, 100.0, 20)
    k_closed = np.array([k_from_coupling(u0, cutoff) for u0 in couplings.tolist()])
    k_roots = _quadrature_roots(couplings, cutoff, k_closed)
    worst_root = 0.0
    worst_trip = 0.0
    for u0, k, root in zip(couplings.tolist(), k_closed.tolist(), k_roots.tolist()):
        worst_root = max(worst_root, abs(root - k) / k)
        worst_trip = max(worst_trip, abs(coupling_from_k(k, cutoff) - u0) / u0)
    return [
        _res(
            "delta-coupling-root",
            worst_root,
            1e-10,
            scale,
            "20 couplings spanning [0.1, 100] at unit cutoff",
        ),
        _res("delta-coupling-roundtrip", worst_trip, 1e-12, scale, "same couplings"),
    ]


def suite_density_geometry(scale: float = 1.0) -> list[SuiteResult]:
    """Shape statements: ring node and peak, origin maxima, origin cusp."""
    out = []
    k = 1.0
    radii = np.linspace(0.0, 8.0, 2001)
    pd2 = density(2, k, radii)
    w2 = pd2.weights
    slopes = np.sign(np.diff(w2))
    nz = slopes[slopes != 0.0]
    turns = int(np.count_nonzero(nz[1:] != nz[:-1]))
    err = abs(w2[0]) + abs(turns - 1)
    out.append(
        _res("ring-node-and-unimodality", err, 0.0, scale, "zero at origin, single interior peak")
    )
    xi = ring_peak_parameter()
    foc = abs(besselk(0, xi) - 2.0 * xi * besselk(1, xi))
    out.append(
        _res(
            "ring-peak-stationarity",
            foc,
            1e-10,
            scale,
            f"stationarity defect at xi = {xi:.12f}",
        )
    )
    worst = 0.0
    for dim in (1, 3):
        pd = density(dim, k, np.linspace(0.0, 10.0, 501))
        loc, val = density_maximum(pd)
        worst = max(worst, abs(loc), float(np.max(pd.weights) - val))
    loc2, val2 = density_maximum(pd2)
    if not loc2 > 0.0:
        worst = max(worst, 1.0)
    worst = max(worst, float(np.max(w2) - val2))
    out.append(
        _res(
            "density-maxima",
            max(0.0, worst),
            0.0,
            scale,
            "origin maxima for line/spatial, interior ring otherwise",
        )
    )
    d = np.array([1e-2, 1e-3, 1e-4])
    d2 = (2.0 * density_profile(2, k, d) / (d * d)).tolist()
    ratio_min = min(d2[1] / d2[0], d2[2] / d2[1])
    out.append(
        _res(
            "ring-cusp-divergence",
            max(0.0, 5.0 - ratio_min),
            0.0,
            scale,
            "second difference across the origin grows without bound",
        )
    )
    return out


_ALL_SUITES = (
    suite_wronskians,
    suite_sommerfeld,
    suite_special_limits,
    suite_radial,
    suite_normalization,
    suite_nodes,
    suite_dimensions,
    suite_delta_coupling,
    suite_density_geometry,
)


def run_all(tolerance_scale: float = 1.0) -> list[SuiteResult]:
    """Run every suite in a fixed order and return the flat result list."""
    if not (math.isfinite(tolerance_scale) and tolerance_scale >= 0.0):
        raise ValueError(
            f"tolerance_scale must be a non-negative finite number, got {tolerance_scale!r}"
        )
    results: list[SuiteResult] = []
    for suite in _ALL_SUITES:
        results.extend(suite(tolerance_scale))
    return results
