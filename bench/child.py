"""One benchmark sample, run in a fresh interpreter.

Reads a JSON request on stdin: ``argvs`` (the CLI argument lists to run
in order), ``trace`` (wrap the layers before running) and ``spans`` (where
a traced sample writes its spans). Times the import of
``anticentrifugal.cli`` and each ``main()`` call, captures what each call
writes to stdout, runs the calibration kernel before the import and after
the last call, and prints one JSON object with the results. Only the
standard library is imported before the timed import, so the import time
includes numpy as a shell invocation's would.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


def calibration_kernel() -> float:
    """Seconds for a fixed pure-Python workload that shares no code with the
    package: a float series loop, and backward-recurrence tables kept in a
    bounded memo, the kinds of interpreter work the package does. Its speed
    tracks the host's, so dividing by it removes most of a shared host's
    CPU-speed drift from the reported times."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 60001):
        x = i * 1e-3
        term = 1.0
        part = 0.0
        for k in range(1, 5):
            term *= -x / (k * (k + 1.0))
            part += term
        total += math.exp(-x) * part
    memo: dict[float, tuple[float, ...]] = {}
    for i in range(1, 2401):
        x = 2.0 + (i % 1200) * 0.083 + i * 1e-7
        top = int(x) + 24
        table = [0.0] * (top + 1)
        prev, cur = 0.0, 1e-30
        for k in range(top, 0, -1):
            prev, cur = cur, (2.0 * k / x) * cur - prev
            table[k - 1] = cur
        norm = 1.0 / (table[0] + 2.0 * sum(table[2::2]))
        memo[x] = tuple(v * norm for v in table)
        if len(memo) > 256:
            memo.pop(next(iter(memo)))
        total += memo[x][0]
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise ArithmeticError("calibration kernel diverged")
    return elapsed


def main() -> int:
    request = json.load(sys.stdin)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))

    calibration_s = [calibration_kernel()]
    start = time.perf_counter()
    import anticentrifugal.cli as cli
    setup_s = time.perf_counter() - start

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"imported {cli.__file__}, not the package under {src}", file=sys.stderr)
        return 2

    tracer = None
    if request["trace"]:
        from tracer import Tracer
        from workloads import LAYERS

        tracer = Tracer()
        tracer.install("anticentrifugal", LAYERS)

    calls = []
    for argv in request["argvs"]:
        out = io.StringIO()
        error = ""
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a traceback is a failed sample, not a crashed run
                rc = -1
                error = traceback.format_exc()
            wall_s = time.perf_counter() - t0
        calls.append({"argv": argv, "rc": rc, "wall_s": wall_s, "out": out.getvalue(), "error": error})
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration_s.append(calibration_kernel())

    result = {"setup_s": setup_s, "rss_kb": rss_kb, "calibration_s": calibration_s, "calls": calls}
    if tracer is not None:
        result["trace"] = tracer.summary()
        if request.get("spans"):
            tracer.write(request["spans"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
