"""The benchmark's own self-test.

Checks that:

* ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints, with the
  same units;
* an untouched sample of each workload passes its oracle, and a
  deliberately perturbed output value, a nonzero exit code and a truncated
  output each count as a failed sample;
* the traced ``verify`` and ``nodes-deep`` samples show ``specfun`` as the
  layer with the most self time.

Run from the repository root; it takes about 20 seconds and exits 1 on
any failed check:

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
import time

import oracles
from run import END_TO_END, HARD_LIMIT_S, ROOT, per_layer_spec, run_sample

FAILED: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILED.append(what)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END),
        "BENCHMARK.json end_to_end matches run.py",
    )
    expect(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_spec(),
        "BENCHMARK.json per_layer matches run.py",
    )


def _edit_json_number(out: str, path: list, change) -> str:
    doc = json.loads(out)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return json.dumps(doc, indent=2) + "\n"


def _scale_csv_cell(out: str, row: int, col: int, factor: float) -> str:
    lines = out.split("\n")
    cells = lines[row].split(",")
    cells[col] = f"{float(cells[col]) * factor:.17g}"
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def perturbed(calls: list[dict], index: int, out: str) -> list[dict]:
    changed = copy.deepcopy(calls)
    changed[index]["out"] = out
    return changed


def check_oracles(samples: dict) -> None:
    for workload, sample in samples.items():
        expect(sample.timed and not sample.failed, f"{workload}: untouched sample passes ({sample.failures[:3]})")

    verify = samples["verify"].result["calls"]
    out = verify[0]["out"]
    tol = oracles.REFERENCE["verify"]["tolerance"]["wronskian-oscillatory"]
    expect(
        bool(oracles.check("verify", perturbed(verify, 0, _edit_json_number(out, ["suites", 0, "max_error"], lambda _: 2 * tol))).failures),
        "verify: a max_error above its tolerance, still marked passed, fails",
    )
    expect(
        bool(oracles.check("verify", perturbed(verify, 0, out.replace('"all_passed": true', '"all_passed": false'))).failures),
        "verify: all_passed false fails",
    )
    name = oracles.REFERENCE["verify"]["names"][7]
    recorded = oracles.REFERENCE["verify"]["max_error"][name]
    grown = oracles.check("verify", perturbed(verify, 0, _edit_json_number(out, ["suites", 7, "max_error"], lambda _: 1.5 * recorded)))
    expect(not grown.failures and abs(grown.err_growth - 1.5) < 1e-12, f"verify: {name} at 1.5x its recorded error reads err_growth 1.5")

    sweep = samples["sweep"].result["calls"]
    index = next(i for i, c in enumerate(sweep) if c["argv"][0] == "wavefunction" and "csv" in c["argv"])
    expect(
        bool(oracles.check("sweep", perturbed(sweep, index, _scale_csv_cell(sweep[index]["out"], 5, 1, 1 + 1e-9))).failures),
        "sweep: a phi2 value off by 1e-9 fails",
    )
    index = next(i for i, c in enumerate(sweep) if c["argv"][0] == "boundstate")
    expect(
        bool(oracles.check("sweep", perturbed(sweep, index, _edit_json_number(sweep[index]["out"], ["normalization"], lambda v: v + 1e-8))).failures),
        "sweep: a normalization off by 1e-8 fails",
    )
    expect(
        bool(oracles.check("sweep", perturbed(sweep, 0, sweep[0]["out"][: len(sweep[0]["out"]) // 2])).failures),
        "sweep: a truncated output fails",
    )
    crashed = copy.deepcopy(sweep)
    crashed[1]["rc"] = 2
    expect(bool(oracles.check("sweep", crashed).failures), "sweep: a nonzero exit code fails")

    nodes = samples["nodes-deep"].result["calls"]
    expect(
        bool(oracles.check("nodes-deep", perturbed(nodes, 0, _edit_json_number(nodes[0]["out"], ["tables", 2, "zeros", 60], lambda v: v * (1 + 1e-9)))).failures),
        "nodes-deep: a zero off by 1e-9 fails",
    )


def check_traces(deadline: float) -> None:
    for workload in ("verify", "nodes-deep"):
        sample = run_sample(workload, 0, 0, deadline, trace=True)
        layers = sample.result["trace"]["layers"] if sample.timed else {}
        top = max(layers, key=lambda name: layers[name]["self_s"], default=None)
        expect(top == "specfun", f"{workload}: traced top self-time layer is {top}")


def main() -> int:
    deadline = time.monotonic() + HARD_LIMIT_S
    check_benchmark_json()
    samples = {w: run_sample(w, 0, 0, deadline) for w in ("verify", "sweep", "nodes-deep")}
    if all(s.timed for s in samples.values()):
        check_oracles(samples)
    else:
        expect(False, "every workload produced a sample")
    check_traces(deadline)
    print(f"{len(FAILED)} self-test checks failed" if FAILED else "all self-test checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
