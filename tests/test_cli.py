"""End-to-end tests of the command-line interface.

Every invocation goes through ``main(argv)`` in process, so exit codes
and byte-for-byte output stability can be asserted without spawning
subprocesses.
"""

import json
import math

import numpy as np
import pytest

import oracles
from anticentrifugal import cli
from anticentrifugal.cli import main
from anticentrifugal.nodes import BracketingError
from anticentrifugal.quadrature import QuadratureError


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# potential

def test_potential_csv_shape_and_values(capsys):
    rc, out, err = run(capsys, "potential", "--family", "ndim", "--N", "2",
                       "--r-min", "1.0", "--r-max", "2.0", "--n-points", "3")
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "r,V"
    assert len(lines) == 4
    r0, v0 = lines[1].split(",")
    assert float(r0) == 1.0
    assert float(v0) == -0.25
    assert "\r" not in out  # LF endings only


def test_potential_csv_floats_round_trip(capsys):
    rc, out, _ = run(capsys, "potential", "--family", "twodim", "--m", "1",
                     "--r-min", "0.3", "--r-max", "7.0", "--n-points", "50")
    assert rc == 0
    for line in out.splitlines()[1:]:
        r, v = map(float, line.split(","))
        assert v == 0.75 / r**2  # 17 significant digits reproduce the double


def test_potential_families_have_expected_signs(capsys):
    _, out, _ = run(capsys, "potential", "--family", "threedim", "--m", "0",
                    "--n-points", "10")
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert all(v == 0.0 for v in values)

    _, out, _ = run(capsys, "potential", "--family", "quantum-anti", "--n-points", "10")
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert all(v < 0.0 for v in values)


def test_potential_json_document(capsys):
    rc, out, _ = run(capsys, "potential", "--family", "ndim", "--N", "5",
                     "--n-points", "4", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "potential"
    assert doc["classification"] == "repulsive"
    assert doc["parameters"]["N"] == 5
    assert "hbar" in doc["units"]
    assert len(doc["rows"]) == 4


def test_potential_rejects_bad_arguments(capsys):
    rc, _, err = run(capsys, "potential", "--family", "twodim", "--m", "-3")
    assert rc == 2
    assert err.startswith("error:")
    rc, _, _ = run(capsys, "potential", "--family", "unknown")
    assert rc == 2


# ---------------------------------------------------------------------------
# wavefunction

def test_wavefunction_window_follows_wavenumber(capsys):
    rc, out, _ = run(capsys, "wavefunction", "--k", "2.0", "--n-points", "100")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "r,phi2,w2"
    assert len(lines) == 101
    first_r = float(lines[1].split(",")[0])
    last_r = float(lines[-1].split(",")[0])
    assert first_r == pytest.approx(0.025)
    assert last_r == pytest.approx(10.0)


def test_wavefunction_columns_encode_the_ring(capsys):
    _, out, _ = run(capsys, "wavefunction", "--k", "1.0", "--n-points", "400")
    rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
    phi2 = [row[1] for row in rows]
    w2 = [row[2] for row in rows]
    # amplitude falls monotonically, weight rises to an interior peak
    assert all(a > b for a, b in zip(phi2, phi2[1:]))
    peak = w2.index(max(w2))
    assert 0 < peak < len(w2) - 1
    r_peak = rows[peak][0]
    assert r_peak == pytest.approx(oracles.RING_XI, abs=0.05)


def test_wavefunction_spot_value(capsys):
    _, out, _ = run(capsys, "wavefunction", "--k", "1.0",
                    "--r-min", "1.0", "--r-max", "2.0", "--n-points", "3")
    first = out.splitlines()[1].split(",")
    assert float(first[1]) == pytest.approx(oracles.PHI2_AT_K1_R1, rel=1e-13)
    assert float(first[2]) == pytest.approx(oracles.W2_AT_K1_R1, rel=1e-13)


def test_wavefunction_rejects_bad_window(capsys):
    rc, _, err = run(capsys, "wavefunction", "--k", "1.0",
                     "--r-min", "5.0", "--r-max", "1.0")
    assert rc == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# nodes

def test_nodes_csv_layout(capsys):
    rc, out, _ = run(capsys, "nodes", "--n-max", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "family,order,n,zero_n,zero_next,spacing,density"
    assert len(lines) == 1 + 4 * 3  # four tables, n_max - 1 rows each
    first = lines[1].split(",")
    assert first[0] == "J" and first[1] == "0" and first[2] == "1"
    assert float(first[3]) == pytest.approx(oracles.J0_ZEROS_1_TO_3[0], abs=1e-11)
    assert float(first[6]) == pytest.approx(oracles.G_J0_FIRST, rel=1e-11)


def test_nodes_json_verdicts(capsys):
    rc, out, _ = run(capsys, "nodes", "--n-max", "4", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["tables"]) == 4
    for family in ("J", "Y"):
        verdict = doc["verdicts"][family]
        assert verdict["passed"] is True
        assert verdict["max_violation"] == 0.0


def test_nodes_requires_two_zeros(capsys):
    rc, _, _ = run(capsys, "nodes", "--n-max", "1")
    assert rc == 2


@pytest.mark.parametrize("n_max", ["1001", "100000000"])
def test_nodes_size_is_bounded(capsys, n_max):
    rc, out, err = run(capsys, "nodes", "--n-max", n_max)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --n-max")


@pytest.mark.parametrize("command", [
    ["potential", "--family", "twodim"],
    ["wavefunction", "--k", "1.0"],
])
def test_grid_size_is_bounded(capsys, command):
    rc, out, err = run(capsys, *command, "--n-points", "100001")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --n-points")


@pytest.mark.parametrize("exc", [ArithmeticError, QuadratureError, BracketingError])
def test_numerical_errors_exit_with_code_two(capsys, monkeypatch, exc):
    def fail(*args):
        raise exc("no sign change")

    monkeypatch.setattr(cli, "find_zeros", fail)
    rc, out, err = run(capsys, "nodes")
    assert rc == 2
    assert out == ""
    assert err == "error: no sign change\n"


# ---------------------------------------------------------------------------
# boundstate

def test_boundstate_planar_from_coupling(capsys):
    rc, out, _ = run(capsys, "boundstate", "--dimension", "2",
                     "--coupling", repr(4.0 * math.pi), "--cutoff", "1.0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["wavenumber"] == pytest.approx(oracles.K_AT_U0_4PI, rel=1e-14)
    assert doc["energy"] == pytest.approx(oracles.E_AT_U0_4PI, rel=1e-13)
    assert doc["normalization"] == pytest.approx(1.0, abs=1e-8)
    assert doc["max_location"] == pytest.approx(oracles.RING_XI / doc["wavenumber"], rel=1e-12)


def test_boundstate_planar_from_wavenumber(capsys):
    rc, out, _ = run(capsys, "boundstate", "--dimension", "2", "--k", "1.0",
                     "--cutoff", "1.0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["wavenumber"] == 1.0
    assert doc["coupling"] == pytest.approx(4.0 * math.pi / math.log(2.0), rel=1e-13)
    assert doc["max_value"] == pytest.approx(oracles.RING_W_MAX_K1, rel=1e-12)


def test_boundstate_line_and_point(capsys):
    rc, out, _ = run(capsys, "boundstate", "--dimension", "1", "--coupling", "-2.0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["wavenumber"] == 1.0
    assert doc["energy"] == -0.5
    assert doc["max_location"] == 0.0

    rc, out, _ = run(capsys, "boundstate", "--dimension", "3", "--k", "2.0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["energy"] == -2.0
    assert doc["max_value"] == 4.0


def test_boundstate_error_paths(capsys):
    rc, _, err = run(capsys, "boundstate", "--dimension", "1", "--coupling", "1.0")
    assert rc == 2
    assert "negative coupling" in err
    rc, _, err = run(capsys, "boundstate", "--dimension", "2", "--coupling", "4.0")
    assert rc == 2  # missing cutoff
    rc, _, _ = run(capsys, "boundstate", "--dimension", "4", "--k", "1.0")
    assert rc == 2


def test_boundstate_refuses_non_finite_output(capsys):
    # E = -k^2/2 overflows: the document used to carry -Infinity and exit 0
    rc, out, err = run(capsys, "boundstate", "--dimension", "2", "--k", "1e200")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: non-finite energy")


def test_csv_output_carries_only_finite_numbers(capsys, recwarn):
    # V = -1/(4 r^2) overflows at r = 1e-200: the table used to carry -inf,
    # exit 0 and leave a numpy warning on stderr
    rc, out, err = run(capsys, "potential", "--family", "twodim", "--r-min", "1e-200",
                       "--n-points", "3")
    assert rc == 2
    assert out == ""
    assert err == "error: Out of range float values are not CSV compliant: -inf\n"
    assert len(recwarn) == 0


def test_json_output_carries_only_finite_numbers(capsys):
    with np.errstate(divide="ignore"):
        rc, out, err = run(capsys, "potential", "--family", "twodim", "--r-min", "1e-200",
                           "--format", "json")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_and_reports(capsys):
    rc, out, _ = run(capsys, "verify")
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["tolerance_scale"] == 1.0
    assert len(doc["suites"]) == 25
    assert all(s["passed"] for s in doc["suites"])


def test_verify_zero_tolerance_fails_with_code_three(capsys):
    rc, out, _ = run(capsys, "verify", "--tolerance-scale", "0")
    assert rc == 3
    doc = json.loads(out)
    assert doc["all_passed"] is False


# ---------------------------------------------------------------------------
# plumbing shared by all subcommands

def test_output_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = run(capsys, "potential", "--family", "classical",
                            "--l-squared", "2.0", "--n-points", "7")
    target = tmp_path / "table.csv"
    rc = main(["potential", "--family", "classical", "--l-squared", "2.0",
               "--n-points", "7", "--output", str(target)])
    capsys.readouterr()
    assert rc == 0
    assert target.read_text() == stdout_text


def test_repeated_runs_are_byte_identical(capsys):
    args = ("nodes", "--n-max", "5", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_usage_errors_exit_with_code_two(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "potential", "--bogus-flag")[0] == 2
    assert run(capsys)[0] == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "potential" in out and "verify" in out
