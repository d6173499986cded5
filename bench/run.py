"""Benchmark of the anticentrifugal CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload verify --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it runs samples of one workload for ``--seconds``
seconds, each in a fresh interpreter, checks every sample's output
against independent references, and reports the end-to-end metrics. With
``--trace 1`` it reports the per-layer metrics: the same untraced samples
(for the tail and the tracing overhead), traced samples of every
workload, and the per-layer probes. The timed path is never traced.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when a
result is printed, even if samples failed; it is 2 when the package or
a benchmark dependency is missing and nothing can be measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import ENTERED_LAYERS, NODES_DEEP_N_MAX, WORKLOADS, invocations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPANS_DIR = ROOT / ".bench_out"

#: Every run must end within 180 s; samples past this are cut.
HARD_LIMIT_S = 170.0
MIN_SAMPLES = 3
#: The reported tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: Traced samples of the selected workload, for the tracing overhead.
TRACED_SAMPLES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("err_growth", "ratio"),
)

VERIFY_SUITES = (
    "suite_wronskians",
    "suite_sommerfeld",
    "suite_special_limits",
    "suite_radial",
    "suite_normalization",
    "suite_nodes",
    "suite_dimensions",
    "suite_delta_coupling",
    "suite_density_geometry",
)

PROBES = (
    ("specfun.j_series_us", "us"),
    ("specfun.j_miller_us", "us"),
    ("specfun.j_miller_far_us", "us"),
    ("specfun.y_series_us", "us"),
    ("specfun.y_neumann_us", "us"),
    ("specfun.i_series_us", "us"),
    ("specfun.i_miller_us", "us"),
    ("specfun.k_series_us", "us"),
    ("specfun.k_trapezoid_us", "us"),
    ("radial.numerov_us", "us"),
    ("nodes.find_zeros_ms", "ms"),
    ("boundstate.normalize_ms", "ms"),
    ("boundstate.ring_peak_ms", "ms"),
)

#: The calibration kernel's time on the host where the benchmark was defined
#: (an Intel Xeon VM with 2 vCPUs, in its fast state). Times are reported in
#: that host's seconds: each sample's times are scaled by CAL_REF_S over the
#: mean time of the kernel runs that bracket it, which removes most of the
#: host's CPU-speed drift.
CAL_REF_S = 0.1

#: Stands in for a per-layer figure a failed sample could not give.
MISSING = -1.0


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric, in print order, with its unit."""
    import oracles

    spec = [
        ("run.trace_overhead", "ratio"),
        ("run.wall_s_tail", "s"),
        ("run.tail_pct", "%"),
        ("run.samples", "count"),
        ("run.raw_setup_s", "s"),
        ("run.raw_wall_s", "s"),
        ("run.host_scale", "ratio"),
    ]
    for workload in WORKLOADS:
        for layer in ENTERED_LAYERS[workload]:
            spec += [(f"{workload}.{layer}.self_s", "s"), (f"{workload}.{layer}.calls", "count")]
        spec.append((f"{workload}.cli.bytes_out", "B"))
    spec += [
        ("verify.quadrature.intervals", "count"),
        ("verify.quadrature.integrand_evals", "count"),
        ("sweep.quadrature.intervals", "count"),
        ("sweep.quadrature.integrand_evals", "count"),
        ("nodes-deep.nodes.evals_per_zero", "count"),
        ("sweep.max_rel_err", "ratio"),
        ("nodes-deep.max_rel_err", "ratio"),
    ]
    spec += [(f"verify.{suite}.s", "s") for suite in VERIFY_SUITES]
    spec += [(f"verify.{name}.max_error", "err") for name in oracles.REFERENCE["verify"]["names"]]
    spec += list(PROBES)
    return spec


class ChildError(RuntimeError):
    pass


def run_child(script: str, request: dict, timeout: float) -> dict:
    """Run a benchmark script in a fresh interpreter and parse its JSON output.

    ``subprocess.run`` kills the child at the timeout and waits for it.
    """
    proc = subprocess.run(
        [sys.executable, str(BENCH / script)],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=max(timeout, 1.0),
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise ChildError(f"{script} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


@dataclass
class Sample:
    failures: list[str] = field(default_factory=list)
    result: dict | None = None
    wall_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    calibration_s: list[float] = field(default_factory=list)
    bytes_out: int = 0
    max_rel_err: float = 0.0
    err_growth: float = 1.0

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def timed(self) -> bool:
        return self.result is not None

    @property
    def host_scale(self) -> float:
        """Factor that converts this sample's seconds into reference-host seconds."""
        return CAL_REF_S / statistics.fmean(self.calibration_s)


def run_sample(workload: str, seed: int, index: int, deadline: float, trace: bool = False) -> Sample:
    import oracles

    argvs = invocations(workload, seed, index)
    sample = Sample()
    spans = None
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = str(SPANS_DIR / f"spans-{workload}.json")
    try:
        result = run_child("child.py", {"argvs": argvs, "trace": trace, "spans": spans}, deadline - time.monotonic())
    except (ChildError, subprocess.TimeoutExpired, ValueError) as exc:
        sample.failures.append(f"sample {index}: {exc}")
        return sample
    sample.result = result
    sample.wall_s = sum(call["wall_s"] for call in result["calls"])
    sample.setup_s = result["setup_s"]
    sample.rss_mb = result["rss_kb"] / 1024.0
    sample.calibration_s = result["calibration_s"]
    sample.bytes_out = sum(len(call["out"].encode()) for call in result["calls"])
    verdict = oracles.check(workload, result["calls"])
    sample.failures = verdict.failures
    sample.max_rel_err = verdict.max_rel_err
    sample.err_growth = verdict.err_growth
    return sample


def collect(workload: str, seed: int, seconds: float, min_samples: int, deadline: float) -> list[Sample]:
    """Untraced samples for ``seconds`` seconds, and at least ``min_samples``."""
    samples: list[Sample] = []
    start = time.monotonic()
    while (time.monotonic() - start < seconds or len(samples) < min_samples) and time.monotonic() < deadline:
        samples.append(run_sample(workload, seed, len(samples), deadline))
    return samples


def _timed(samples: list[Sample]) -> list[Sample]:
    ok = [s for s in samples if s.timed and not s.failed]
    return ok or [s for s in samples if s.timed]


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    timed = _timed(samples)
    return {
        "setup_s": statistics.median(s.setup_s * s.host_scale for s in timed),
        "wall_s": statistics.median(s.wall_s * s.host_scale for s in timed),
        "peak_rss_mb": statistics.median(s.rss_mb for s in timed),
        "err_growth": max(s.err_growth for s in timed),
    }


def raw_medians(timed: list[Sample]) -> dict[str, float]:
    """Unscaled medians in this host's seconds, and the median scale factor."""
    return {
        "run.raw_setup_s": statistics.median(s.setup_s for s in timed),
        "run.raw_wall_s": statistics.median(s.wall_s for s in timed),
        "run.host_scale": statistics.median(s.host_scale for s in timed),
    }


def tail(walls: list[float]) -> tuple[float, float] | None:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(walls)
    index = len(ordered) - 1 - TAIL_BEYOND
    if index < 0:
        return None
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def layer_metrics(workload: str, traced: list[Sample]) -> dict[str, float]:
    """Per-layer figures of one workload, as medians over its traced samples."""
    summaries = [s.result["trace"] for s in traced if s.timed]
    if not summaries:
        return {}

    def median(get) -> float:
        return statistics.median(get(t) for t in summaries)

    def scaled_median(get) -> float:
        return statistics.median(get(s.result["trace"]) * s.host_scale for s in traced if s.timed)

    out = {}
    for layer in ENTERED_LAYERS[workload]:
        out[f"{workload}.{layer}.self_s"] = scaled_median(lambda t: t["layers"].get(layer, {}).get("self_s", 0.0))
        out[f"{workload}.{layer}.calls"] = median(lambda t: t["layers"].get(layer, {}).get("calls", 0))
    out[f"{workload}.cli.bytes_out"] = statistics.median(s.bytes_out for s in traced if s.timed)
    if workload in ("verify", "sweep"):
        out[f"{workload}.quadrature.intervals"] = median(lambda t: t["intervals"])
        out[f"{workload}.quadrature.integrand_evals"] = median(
            lambda t: 15 * t["functions"].get("quadrature.gauss_kronrod_15", {}).get("calls", 0)
        )
    if workload in ("sweep", "nodes-deep"):
        out[f"{workload}.max_rel_err"] = max(s.max_rel_err for s in traced if s.timed)
    if workload == "nodes-deep":
        out["nodes-deep.nodes.evals_per_zero"] = median(
            lambda t: t["cross_calls"].get("nodes>specfun", 0) / (4 * NODES_DEEP_N_MAX)
        )
    if workload == "verify":
        for suite in VERIFY_SUITES:
            out[f"verify.{suite}.s"] = scaled_median(
                lambda t: t["functions"].get(f"verify.{suite}", {}).get("total_s", 0.0)
            )
        for sample in traced:
            if sample.timed and not sample.failed:
                doc = json.loads(sample.result["calls"][0]["out"])
                for record in doc["suites"]:
                    out[f"verify.{record['name']}.max_error"] = record["max_error"]
                break
    return out


def profile(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list[Sample], dict[str, float]]:
    """The --trace 1 run: tail and overhead of the selected workload, traced
    samples of every workload, and the probes."""
    untraced = collect(workload, seed, seconds, TAIL_BEYOND + 1, deadline)
    samples = list(untraced)
    metrics: dict[str, float] = {}
    for other in WORKLOADS:
        count = TRACED_SAMPLES if other == workload else 1
        first = len(untraced) if other == workload else 0
        traced = [run_sample(other, seed, first + i, deadline, trace=True) for i in range(count)]
        samples += traced
        metrics.update(layer_metrics(other, traced))
        if other == workload and _timed(traced) and _timed(untraced):
            metrics["run.trace_overhead"] = (
                statistics.median(s.wall_s * s.host_scale for s in _timed(traced))
                / statistics.median(s.wall_s * s.host_scale for s in _timed(untraced))
                - 1.0
            )
    timed = _timed(untraced)
    walls = [s.wall_s * s.host_scale for s in timed]
    found = tail(walls)
    if found is not None:
        metrics["run.wall_s_tail"], metrics["run.tail_pct"] = found
    metrics["run.samples"] = len(walls)
    if timed:
        metrics.update(raw_medians(timed))
    try:
        probes = run_child("probes.py", {}, deadline - time.monotonic())
        scale = CAL_REF_S / statistics.fmean(probes["calibration_s"])
        metrics.update({name: value * scale for name, value in probes["metrics"].items()})
    except (ChildError, subprocess.TimeoutExpired, ValueError) as exc:
        samples.append(Sample(failures=[f"probes: {exc}"]))
    return samples, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "anticentrifugal" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    try:
        import oracles  # noqa: F401  (needs scipy, the benchmark's own dependency)
    except ImportError as exc:
        print(f"error: the benchmark's oracles cannot load: {exc}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    if args.trace:
        samples, values = profile(args.workload, args.seed, args.seconds, deadline)
        spec = per_layer_spec()
    else:
        samples = collect(args.workload, args.seed, args.seconds, MIN_SAMPLES, deadline)
        values = end_to_end(samples) if _timed(samples) else {}
        spec = list(END_TO_END)
    if not _timed(samples):
        for sample in samples:
            print("\n".join(sample.failures), file=sys.stderr)
        print("error: no sample produced a measurement", file=sys.stderr)
        return 1

    failed = sum(s.failed for s in samples)
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"attempted {len(samples)}  failed {failed}  fail_share {failed / len(samples):.4f}"
    )
    for sample in samples:
        for failure in sample.failures:
            print(f"FAIL {failure}")
    timed = _timed(samples)
    raw = raw_medians(timed)
    print(
        f"raw medians (this host's seconds): setup {raw['run.raw_setup_s']:.4f} s, "
        f"wall {raw['run.raw_wall_s']:.4f} s, "
        f"calibration {statistics.median(t for s in timed for t in s.calibration_s):.4f} s; "
        f"host scale {raw['run.host_scale']:.4f}"
    )
    if args.workload != "verify":
        print(f"{'max_rel_err':<40} {max(s.max_rel_err for s in timed):.6g}")
    metrics = {}
    for name, unit in spec:
        value = values.get(name, MISSING)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<40} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
