"""End-to-end tests of the command-line interface.

Every invocation goes through ``main(argv)`` in process, so exit codes
and byte-for-byte output stability can be asserted without spawning
subprocesses; only the checks of which modules importing the package and
a valid call load (no ``argparse``, ``locale``, ``dataclasses`` or
``fractions``) need a fresh interpreter.
"""

import ast
import contextlib
import functools
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from anticentrifugal import cli
from anticentrifugal.boundstate import coupling_from_k, density_profile, k_from_coupling, planar_rows
from anticentrifugal.cli import main
from anticentrifugal.nodes import BracketingError, bunching_verdict, find_zeros, node_density
from anticentrifugal.potentials import (
    UNITS,
    EffectivePotentialSpec,
    PotentialFamily,
    classify_potential,
    eval_potential,
)
from anticentrifugal.quadrature import QuadratureError
from anticentrifugal.radial import RadialGrid
from anticentrifugal.specfun import CylinderFamily, besselk


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


@pytest.mark.parametrize("window", [(), ("--r-min", "1", "--r-max", "2")])
@pytest.mark.parametrize("k", ["0", "-1", "nan", "inf"])
def test_wavefunction_rejects_bad_wavenumber(capsys, k, window):
    rc, out, err = run(capsys, "wavefunction", "--k", k, *window)
    assert (rc, out) == (2, "")
    assert err == f"error: wavenumber must be positive and finite, got {float(k)!r}\n"


@pytest.mark.parametrize("k", ["1e-320", "1e-308"])
def test_wavefunction_names_a_wavenumber_too_small_for_the_default_window(capsys, k):
    # 20 / k overflows: at 1e-320 both ends of the window, at 1e-308 r_max
    rc, out, err = run(capsys, "wavefunction", "--k", k)
    assert (rc, out) == (2, "")
    assert err == (
        f"error: wavenumber {float(k)!r} is too small: the default window 20 / k overflows\n"
    )


def test_wavefunction_explicit_window_where_the_default_overflows(capsys):
    # 20 / k overflows at k = 5e-324; a window given in full is still used
    rc, out, err = run(capsys, "wavefunction", "--k", "5e-324",
                       "--r-min", "1", "--r-max", "2", "--n-points", "3")
    assert (rc, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()] == ["r", "1", "1.5", "2"]


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


@pytest.mark.parametrize("n_max", ["10001", "100000000"])
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


def test_boundstate_planar_where_k_squared_underflows(capsys):
    # 2 k^2 underflowed to 0: normalization and max_value used to print 0.0
    k = 1e-200
    rc, out, _ = run(capsys, "boundstate", "--dimension", "2", "--k", repr(k))
    assert rc == 0
    doc = json.loads(out)
    assert doc["normalization"] == pytest.approx(1.0, abs=1e-8)
    xi = oracles.RING_XI
    assert doc["max_value"] == pytest.approx(2.0 * xi * besselk(0, xi) ** 2 * k, rel=1e-15)


def _check_w2_against_mpmath(k, out, floor=0.0):
    rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
    with mp.workdps(30):
        for r, _, w2 in rows:
            want = 2 * mp.mpf(k) ** 2 * mp.mpf(r) * mp.besselk(0, mp.mpf(k) * mp.mpf(r)) ** 2
            assert abs(w2 - want) <= 1e-13 * want + floor


def test_wavefunction_weight_where_k_squared_underflows(capsys):
    # the w2 column used to be all zeros at k = 1e-300
    k = 1e-300
    rc, out, _ = run(capsys, "wavefunction", "--k", repr(k), "--n-points", "41")
    assert rc == 0
    # plus one subnormal step: the far tail lies below 2.2e-308
    _check_w2_against_mpmath(k, out, floor=2.0**-1074)


def test_wavefunction_weight_where_k_squared_overflows(capsys):
    # 2 k^2 overflows at k = 1e200: the command used to exit 2 on an inf w2
    k = 1e200
    rc, out, err = run(capsys, "wavefunction", "--k", repr(k), "--n-points", "3")
    assert (rc, err) == (0, "")
    _check_w2_against_mpmath(k, out)


def test_wavefunction_weight_where_k0_underflows(capsys):
    # 2 k (k r) overflows where K_0(k r) underflows to 0: the command used to
    # write two numpy warnings and exit 2 on a nan w2
    argv = ("wavefunction", "--k", "1e200", "--r-min", "1e-3", "--r-max", "40", "--n-points", "57")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 57
    assert all(w2 == "0" for _, _, w2 in rows)


@pytest.mark.parametrize("k, r_max", [
    ("1e150", "1e100"),  # 2 k^2 r overflows where K_0(k r) is 0: w2 was nan
    ("1e100", "1e210"),  # k r overflows: besselk refused an infinite argument
])
def test_wavefunction_where_k0_is_zero_writes_zeros(capsys, k, r_max):
    # both used to write numpy warnings and exit 2
    r_min = repr(0.1 / float(k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "wavefunction", "--k", k, "--r-min", r_min,
                           "--r-max", r_max, "--n-points", "3")
    assert (rc, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 3
    assert float(rows[0][1]) > 0.0 and float(rows[0][2]) > 0.0
    assert [row[1:] for row in rows[1:]] == [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("k", [3e307, 1e308])
def test_wavefunction_weight_near_the_top_of_the_double_range(capsys, k):
    # 2 k K_0(k r) overflows at the first row (k r = 0.05), and 2 k itself
    # from k of about 9e307 on, though w2 <= 1.24 k does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "wavefunction", "--k", repr(k), "--n-points", "41")
    assert (rc, err) == (0, "")
    _check_w2_against_mpmath(k, out)


@pytest.mark.parametrize("argv", [
    ("--k", "1.4e308"),  # the amplitude k / sqrt(pi) K_0 exceeds the double range
    ("--k", "1.7e308"),
    ("--k", "1.79e308", "--n-points", "2000"),  # and so does W near the ring
])
def test_wavefunction_past_the_double_range_exits_2_with_one_line(capsys, argv):
    # numpy's two-line RuntimeWarning used to come before the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "wavefunction", *argv)
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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


@pytest.mark.parametrize(
    "argv, flags",
    [
        # the given coupling was discarded for the one --k and --cutoff give
        (("--dimension", "2", "--k", "1.0", "--coupling", "3.0", "--cutoff", "1.0"),
         ("--k", "--coupling")),
        (("--dimension", "2", "--k", "1.0", "--coupling", "3.0"), ("--k", "--coupling")),
        # the wavenumber printed was the coupling's, not the given one
        (("--dimension", "1", "--coupling=-2.0", "--k", "5.0"), ("--k",)),
        # the coupling or cutoff was echoed although nothing read it
        (("--dimension", "3", "--k", "1.0", "--coupling", "3.0"), ("--coupling",)),
        (("--dimension", "1", "--coupling=-2.0", "--cutoff", "5.0"), ("--cutoff",)),
        (("--dimension", "3", "--k", "1.0", "--cutoff", "5.0"), ("--cutoff",)),
        (("--dimension", "3", "--k", "1.0", "--coupling", "3.0", "--cutoff", "5.0"),
         ("--coupling", "--cutoff")),
        (("--dimension", "1", "--k", "5.0"), ("--k",)),
    ],
)
def test_boundstate_refuses_a_flag_its_dimension_does_not_read(capsys, argv, flags):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "boundstate", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(flag in err for flag in flags), err


@pytest.mark.parametrize(
    "argv, wavenumber, coupling, cutoff",
    [
        (("--dimension", "1", "--coupling=-2.0"), 1.0, -2.0, None),
        (("--dimension", "2", "--k", "1.0"), 1.0, None, None),
        (("--dimension", "2", "--k", "1.0", "--cutoff", "2.0"), 1.0, coupling_from_k(1.0, 2.0), 2.0),
        (("--dimension", "2", "--coupling", "3.0", "--cutoff", "1.0"),
         k_from_coupling(3.0, 1.0), 3.0, 1.0),
        (("--dimension", "3", "--k", "1.0"), 1.0, None, None),
    ],
)
def test_boundstate_prints_the_inputs_it_read(capsys, argv, wavenumber, coupling, cutoff):
    rc, out, _ = run(capsys, "boundstate", *argv)
    assert rc == 0
    doc = json.loads(out)
    assert (doc["wavenumber"], doc["coupling"], doc["cutoff"]) == (wavenumber, coupling, cutoff)


def test_boundstate_refuses_non_finite_output(capsys):
    # E = -k^2/2 overflows: the document used to carry -Infinity and exit 0
    rc, out, err = run(capsys, "boundstate", "--dimension", "2", "--k", "1e200")
    assert rc == 2
    assert out == ""
    # the normalization and the ring maximum are finite there
    assert err == "error: non-finite energy for dimension 2, k = 1e+200\n"


@pytest.mark.parametrize("argv, error", [
    (("--dimension", "1", "--coupling=-1e-323"), None),
    (("--dimension", "2", "--k", "5e-324"), "5e-324"),
    (("--dimension", "2", "--k", "1e-307"), None),
    (("--dimension", "3", "--k", "5e-324"), None),
])
def test_boundstate_where_40_over_k_overflows(capsys, argv, error):
    # the normalization runs in xi = k r and prints the k = 1 value; only
    # a ring radius xi / k that overflows exits 2, with one line naming k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "boundstate", *argv)
    if error is not None:
        assert (rc, out) == (2, "")
        assert err == (
            f"error: wavenumber {error} is too small: the ring radius xi / k overflows\n"
        )
        return
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    at_k1 = "--coupling=-2.0" if argv[1] == "1" else "--k=1.0"
    _, ref, _ = run(capsys, "boundstate", "--dimension", argv[1], at_k1)
    assert doc["normalization"] == json.loads(ref)["normalization"]


def test_boundstate_where_2k_overflows_exits_2_with_one_line(capsys):
    # 2 k exp(-2 k r) was inf * 0 = nan at r = 0, with numpy's two-line
    # RuntimeWarning before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "boundstate", "--dimension", "3", "--k", "9e307")
    assert (rc, out) == (2, "")
    assert err == "error: non-finite energy, max_value for dimension 3, k = 9e+307\n"


def test_wavefunction_where_k_r_underflows(capsys):
    # K_0(k r) at k r = 0 used to raise "K_m requires x > 0"
    k = 1e-200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            rc, out, err = run(capsys, "wavefunction", "--k", repr(k), "--r-min", "1e-200",
                               "--r-max", "1e-150", "--n-points", "3")
    assert (rc, err) == (0, "")
    rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
    with mp.workdps(40):
        for r, phi2, w2 in rows:
            want = mp.mpf(k) / mp.sqrt(mp.pi) * mp.besselk(0, mp.mpf(k) * mp.mpf(r))
            assert abs(phi2 - want) <= 1e-15 * want
            assert w2 == 0.0  # 2 k^2 r K_0^2 is below 1e-340


@pytest.mark.parametrize("coupling", ["0.002", "0.0088"])
def test_boundstate_coupling_below_the_normal_range_exits_2(capsys, coupling):
    # k underflows (0.002) or turns subnormal (0.0088): once a RuntimeWarning
    # and its source line on stderr before the error, or exit 0 with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "boundstate", "--dimension", "2",
                           "--coupling", coupling, "--cutoff", "1")
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: coupling {coupling} ")
    assert err.count("\n") == 1


def test_boundstate_coupling_above_the_range_names_coupling_and_cutoff(capsys):
    # k overflows: the error once named only the wavenumber, inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "boundstate", "--dimension", "2",
                           "--coupling", "1e6", "--cutoff", "1e308")
    assert rc == 2
    assert out == ""
    assert err == (
        "error: coupling 1000000.0 at cutoff 1e+308 gives a wavenumber above "
        "the double-precision range\n"
    )


def test_boundstate_weakest_normal_coupling_exits_0(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "boundstate", "--dimension", "2",
                           "--coupling", "0.009", "--cutoff", "1")
    assert rc == 0
    assert err == ""
    k = json.loads(out)["wavenumber"]
    assert k == pytest.approx(math.exp(-2.0 * math.pi / 0.009), rel=1e-12)


def test_csv_output_carries_only_finite_numbers(capsys, recwarn):
    # V = -1/(4 r^2) overflows at r = 1e-200: the table used to carry -inf,
    # exit 0 and leave a numpy warning on stderr
    rc, out, err = run(capsys, "potential", "--family", "twodim", "--r-min", "1e-200",
                       "--n-points", "3")
    assert rc == 2
    assert out == ""
    assert err == "error: Out of range float values are not CSV compliant: -inf\n"
    assert len(recwarn) == 0


def test_vanishing_potential_prints_zeros_where_r_squared_underflows(capsys):
    rc, out, err = run(capsys, "potential", "--family", "ndim", "--N", "3",
                       "--r-min", "1e-200", "--n-points", "3")
    assert rc == 0
    assert err == ""
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["0", "0", "0"]


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


@pytest.mark.parametrize("value", ["{tmp}/no/such/dir/x.csv", "", "--"])
def test_output_path_that_cannot_be_opened_exits_two(tmp_path, monkeypatch, capsys, value):
    # a missing directory, an empty path, and --output=--, which argparse
    # before Python 3.13 reads as an empty list: one error line, no file
    argv = ["nodes", "--n-max", "2", "--output=" + value.format(tmp=tmp_path)]
    if value == "--" and isinstance(cli.build_parser().parse_args(argv).output, str):
        pytest.skip("this argparse keeps '--' as the path")
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


#: Per command: arguments that pass its checks, and where the first call
#: that computes is looked up when the command runs: in cli, or in verify,
#: which _cmd_verify imports.
_FIRST_COMPUTE = {
    "potential": (["--family", "ndim", "--n-points", "100000"], "cli.eval_potential"),
    "wavefunction": (["--k", "1.0", "--n-points", "100000"], "cli.planar_rows"),
    "nodes": (["--n-max", "10000"], "cli.find_zeros"),
    "boundstate": (["--dimension", "2", "--k", "1.0"], "cli.density"),
    "verify": ([], "verify.run_all"),
}


@pytest.mark.parametrize("command", sorted(_FIRST_COMPUTE))
@pytest.mark.parametrize("value", ["{tmp}/no/such/dir/x.json", "", "{tmp}"])
def test_output_that_cannot_exist_is_refused_before_computing(tmp_path, monkeypatch, capsys, command, value):
    # a missing directory, an empty path and an existing directory: the
    # error the late open gives, before the command computes anything
    path = value.format(tmp=tmp_path)
    with pytest.raises(OSError) as opened:
        open(path, "w")
    args, compute = _FIRST_COMPUTE[command]
    calls = []
    monkeypatch.setattr(f"anticentrifugal.{compute}", lambda *a, **kw: calls.append(a))
    rc, out, err = run(capsys, command, *args, "--output=" + path)
    assert (rc, out, calls) == (2, "", [])
    assert err == f"error: cannot open --output {path!r}: {opened.value.strerror}\n"
    assert list(tmp_path.iterdir()) == []


def test_output_check_raises_only_the_error_of_the_open(tmp_path, monkeypatch):
    # every path the early check refuses, open refuses with the same
    # message; the paths it lets through are left to open, which may
    # still fail (a trailing separator, a file standing in for a directory)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("")
    paths = ["", "/", "d", "d/", "d/new", "f/x", "f/x/y", "missing/x", "missing/", "missing/x/", "-"]
    refused = []
    for p in [str(tmp_path / p) for p in paths] + paths:
        try:
            cli._check_output(p)
        except ValueError as exc:
            refused.append(p)
            with pytest.raises(OSError) as opened:
                open(p, "w")
            assert str(exc) == f"cannot open --output {p!r}: {opened.value.strerror}"
    for p in ("", "/", "d", "d/", "missing/x", str(tmp_path / "d"), str(tmp_path / "missing/x/")):
        assert p in refused
    assert sorted(q.name for q in tmp_path.iterdir()) == ["d", "f"]


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


_PARSER_SEQUENCE = (
    ("potential", "--bogus-flag"),
    ("--help",),
    ("nodes", "--n-max", "5", "--format", "json"),
    (),
    ("wavefunction", "--help"),
    ("wavefunction", "--k", "abc"),
    ("wavefunction", "--k", "1.5", "--n-points", "4"),
    ("boundstate", "--dimension", "4"),
    ("boundstate", "--dimension", "2", "--k", "1.0"),
    ("potential", "--family", "ndim", "--N", "3", "--n-points", "3", "--format", "json"),
    ("nodes", "--n-max", "1"),
    ("nodes", "--n-max", "5", "--format", "json"),
)


def _sequence(capsys):
    return [run(capsys, *argv) for argv in _PARSER_SEQUENCE]


def test_mixed_calls_read_as_fresh_full_parsers(capsys, monkeypatch):
    # valid calls, --help and errors in one process must read as they do
    # when a new full parser reads every call
    mixed = _sequence(capsys)
    monkeypatch.setattr(cli, "_parse_table", lambda argv: None)
    fresh = _sequence(capsys)
    assert mixed == fresh
    assert [rc for rc, _, _ in mixed] == [2, 0, 0, 2, 0, 2, 0, 2, 0, 0, 2, 0]
    assert mixed[2] == mixed[-1]


def _fresh_process(code: str) -> str:
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout


def test_import_builds_no_parser():
    # argparse is imported by build_parser() alone, so the import time a
    # shell invocation pays includes neither it nor its gettext
    code = (
        "import sys\n"
        "import anticentrifugal.cli\n"
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    assert _fresh_process(code) == "[]\n"


#: One valid command line per command, writing nowhere.
_VALID_CALLS = (
    ["potential", "--family", "ndim", "--n-points", "3"],
    ["wavefunction", "--k=1.5", "--n-points", "4"],
    ["nodes", "--n-max", "2", "--format", "json"],
    ["boundstate", "--dimension", "1", "--coupling=-2"],
    ["verify", "--tolerance-scale", "1"],
)


def test_valid_calls_build_no_parser():
    # a valid call of each command is parsed from the option table alone,
    # so it builds no parser and loads neither argparse nor locale
    code = (
        "import sys\n"
        "from anticentrifugal import cli\n"
        "def no_parser():\n"
        "    raise AssertionError('a parser was built')\n"
        "cli.build_parser = no_parser\n"
        "print([cli.main([*argv, '--output', %r]) for argv in %r])\n"
        "print(sorted({'argparse', 'locale'} & set(sys.modules)))\n"
        % (os.devnull, _VALID_CALLS)
    )
    assert _fresh_process(code) == "[0, 0, 0, 0, 0]\n[]\n"


def test_each_command_loads_only_the_modules_it_runs():
    # the package root loads no module; the CLI loads those that every
    # command but verify shares; verify alone adds itself and the radial
    # solvers it checks, which its import brings in
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m.partition('.')[2] for m in sys.modules if m.startswith('anticentrifugal.'))\n"
        "import anticentrifugal\n"
        "print(loaded())\n"
        "from anticentrifugal import cli\n"
        "print(loaded())\n"
        "print([cli.main([*argv, '--output', %r]) for argv in %r])\n"
        "print(loaded())\n"
        "print(cli.main([*%r, '--output', %r]))\n"
        "print(loaded())\n"
        % (os.devnull, _VALID_CALLS[:-1], _VALID_CALLS[-1], os.devnull)
    )
    shared = ["_record", "boundstate", "cli", "nodes", "potentials", "quadrature", "specfun"]
    assert _VALID_CALLS[-1][0] == "verify"
    assert _fresh_process(code).splitlines() == [
        "[]",
        str(shared),
        "[0, 0, 0, 0]",
        str(shared),
        "0",
        str(sorted([*shared, "radial", "verify"])),
    ]


def test_import_loads_neither_dataclasses_nor_fractions():
    # the records define no generated methods and the potentials keep exact
    # strengths as integer ratios, so a fresh process pays for neither module
    code = (
        "import sys\n"
        "import anticentrifugal.cli\n"
        "print(sorted({'dataclasses', 'fractions'} & set(sys.modules)))\n"
    )
    assert _fresh_process(code) == "[]\n"


#: Argument lists whose parse ends in help or an error.
_PARSE_EXITS = [(command, "--help") for command in cli._COMMANDS] + [
    ("--help",),
    ("-h",),
    ("nodes", "--n-max", "abc"),
    ("nodes", "--bogus"),
    ("nodes", "--n-max", "5", "potential"),
    ("boundstate", "--dimension", "4"),
    ("potential",),
    (),
    ("no-such-command",),
]


@pytest.mark.parametrize("argv", _PARSE_EXITS, ids=lambda argv: " ".join(argv) or "no command")
def test_parse_exits_read_as_the_full_parser(capsys, argv):
    # the option table declines these, so their help, errors and exit
    # codes are those of build_parser(), on every call
    assert cli._parse_table(list(argv)) is None
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(list(argv))
    full = capsys.readouterr()
    expected = (0 if exc.value.code in (0, None) else 2, full.out, full.err)
    assert run(capsys, *argv) == expected
    assert run(capsys, *argv) == expected


# ---------------------------------------------------------------------------
# the option table against argparse

_OPTIONS = {name: command.options for name, command in cli._COMMANDS.items()}
_FLAGS = sorted({opt.flag for options in _OPTIONS.values() for opt in options})
#: the proper prefixes of the flags, which argparse takes as abbreviations
_ABBREVIATIONS = sorted({flag[:n] for flag in _FLAGS for n in range(3, len(flag))} - set(_FLAGS))
_CHOICES = sorted({str(c) for options in _OPTIONS.values() for opt in options for c in opt.choices or ()})
_values = st.sampled_from(
    ["1", "-1", "-1e-3", "-", "", "nan", "abc", "json", "0", "4", "xml", "-h", "--", *_CHOICES]
)
_tokens = st.one_of(
    st.sampled_from(
        [*_FLAGS, *_ABBREVIATIONS, "-h", "--help", "--", "--bogus", "-k", "bogus", *cli._COMMANDS]
    ),
    _values,
    st.builds("{}={}".format, st.sampled_from([*_FLAGS, *_ABBREVIATIONS, "--bogus"]), _values),
)


def _good_values(opt):
    if opt.choices:
        return st.sampled_from([str(c) for c in opt.choices])
    return st.sampled_from({int: ["2", "3"], float: ["0.5", "2", "1e-3"]}.get(opt.type, ["out.csv"]))


def _option(opt):
    """``opt``'s flag or one of its abbreviations, with a value that is
    valid or drawn from the shared list, separate or joined by '='."""
    flag = st.one_of(st.just(opt.flag), st.sampled_from([opt.flag[:n] for n in range(3, len(opt.flag) + 1)]))
    value = st.one_of(_good_values(opt), _good_values(opt), _values)  # mostly valid
    return st.one_of(
        st.tuples(flag, value),
        st.builds("{}={}".format, flag, value).map(lambda token: (token,)),
    )


def _command_lines(name):
    """``name``, its required flags with valid values or not, then its own
    options and a few stray tokens in any order."""
    options = _OPTIONS.get(name, _OPTIONS["potential"])
    required = [
        [opt.flag, str(opt.choices[0]) if opt.choices else "1"]
        for opt in options if opt.required
    ]
    parts = st.tuples(
        st.booleans(),
        st.lists(st.sampled_from(options).flatmap(_option), max_size=5),
        st.lists(_tokens.map(lambda token: (token,)), max_size=1),
    )
    return parts.flatmap(
        lambda drawn: st.permutations(drawn[1] + drawn[2]).map(
            lambda order: [name, *(t for part in required for t in part if drawn[0]),
                           *(t for part in order for t in part)]
        )
    )


_argvs = st.one_of(
    st.just([]),
    # each command twice, so that more lines parse
    st.sampled_from([*cli._COMMANDS] * 2 + ["bogus", "-h", "--help", "--"]).flatmap(_command_lines),
)


def _attributes(args):
    return repr(sorted(vars(args).items()))  # repr: nan equals itself, 1 differs from 1.0


def _echo(args):
    print(_attributes(args))
    return 0


#: Every command, echoing its parsed attributes in place of running.
_ECHOING = {name: command._replace(run=_echo) for name, command in cli._COMMANDS.items()}


@functools.lru_cache(maxsize=1)
def _echoing_parser():
    # the full parser over the echoing commands, built once for every
    # example: argparse keeps no state from one parse to the next
    with mock.patch.object(cli, "_COMMANDS", _ECHOING):
        return cli.build_parser()


def _triple(call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = call()
        except SystemExit as exc:
            rc = 0 if exc.code in (0, None) else 2
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_argvs)
@example(["nodes", "--output", "-h"])
@example(["nodes", "--output", "--"])
@example(["nodes", "--output", "-"])
@example(["verify", "--output=--"])
@example(["wavefunction", "--k", "-1e-3"])
@example(["nodes", "--n-max", "3", "--n-max=4", "--format", "json"])
@example(["boundstate", "--dimension=2", "--k", "nan", "--output="])
def test_option_table_parses_as_argparse(argv):
    # what the table parser accepts, argparse reads to the same attributes;
    # what it declines, main() hands to the full parser, so the exit code,
    # stdout and stderr are the full parser's (the commands only echo here)
    parser = _echoing_parser()
    with (
        mock.patch.object(cli, "_COMMANDS", _ECHOING),
        mock.patch.object(cli, "build_parser", lambda: parser),
    ):
        parsed = cli._parse_table(list(argv))
        if parsed is not None:
            assert _attributes(parsed) == _attributes(parser.parse_args(list(argv)))
        else:
            full = _triple(lambda: _echo(parser.parse_args(list(argv))))
            assert _triple(lambda: cli.main(list(argv))) == full


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_option_table_parses_every_benchmark_invocation():
    # the benchmark's calls must not fall back to argparse
    workloads = _bench_workloads()
    argvs = [
        argv
        for workload in workloads.WORKLOADS
        for seed in range(21)
        for sample in range(10)
        for argv in workloads.invocations(workload, seed, sample)
    ]
    assert len(argvs) == 21 * 10 * 10
    assert [argv for argv in argvs if cli._parse_table(argv) is None] == []


def test_option_table_parses_every_workflow_command_line():
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    shell = [shlex.split(line) for line in re.findall(r"-m anticentrifugal ([^|>)\\\n]*)", workflow)]
    python = [ast.literal_eval(argv) for argv in re.findall(r"main\((\[[^\]]*\])\)", workflow)]
    assert len(shell) >= 20 and len(python) >= 5
    assert [argv for argv in shell + python if cli._parse_table(argv) is None] == []


# ---------------------------------------------------------------------------
# the table writer against the standard library

def _csv_reference(header, rows):
    """One f"{v:.17g}" per float cell, str() for the rest, the first
    non-finite float refused in row order."""
    lines = [",".join(header)]
    for row in rows:
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"Out of range float values are not CSV compliant: {v!r}")
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_reference(doc):
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _message(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


_KEYS = ("r", "phi2", "w2", "V")
_SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 1e16, 0.1)
_cells = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
_tables = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(_cells, min_size=width, max_size=width), max_size=6)
)


def _documents(rows, column, after):
    """The writer's document and the plain-list document json.dumps takes."""
    width = len(rows[0]) if rows else 1
    table = np.array(rows, dtype=float).reshape(len(rows), width)
    keys = _KEYS[:width]
    fast = {
        "command": "test",
        "k": 0.5,
        "rows": cli._Rows(keys, table),
        "tables": [{"family": "J", "zeros": np.array(column, dtype=float)}],
        "verdicts": {"passed": True, "max_violation": after},
    }
    plain = {
        "command": "test",
        "k": 0.5,
        "rows": [dict(zip(keys, row)) for row in rows],
        "tables": [{"family": "J", "zeros": list(column)}],
        "verdicts": {"passed": True, "max_violation": after},
    }
    return keys, table, fast, plain


@settings(max_examples=60)
@given(rows=_tables, column=st.lists(_cells, max_size=5), after=_cells)
def test_writers_match_the_standard_library(rows, column, after):
    keys, table, fast, plain = _documents(rows, column, after)
    assert cli._csv(keys, [("", table)]) == _csv_reference(keys, rows)
    assert cli._csv(("family", "n") + keys, [("J,", np.column_stack((np.arange(1.0, len(rows) + 1), table)))]) == (
        _csv_reference(("family", "n") + keys, [("J", i + 1, *row) for i, row in enumerate(rows)])
    )
    assert cli._json(fast) == _json_reference(plain)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["k", "first", "middle", "last", "column", "after", "row and after"])
def test_writers_refuse_the_first_non_finite_value_as_the_standard_library(bad, where):
    rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
    column = [0.5, 1.5]
    after = 0.25
    if where == "first":
        rows[0][0] = bad
    elif where == "middle":
        rows[1][1] = bad
    elif where == "last":
        rows[2][2] = bad
    elif where == "column":
        column[1] = bad
    elif where == "after":
        after = bad
    elif where == "row and after":
        rows[2][0] = -bad
        after = bad
    keys, table, fast, plain = _documents(rows, column, after)
    if where == "k":
        fast["k"] = plain["k"] = bad
        fast["rows"] = cli._Rows(keys, np.full((3, 3), -bad))
        plain["rows"] = [dict(zip(keys, row)) for row in np.full((3, 3), -bad).tolist()]
    want = _message(_json_reference, plain)
    assert _message(cli._json, fast) == want
    assert want.startswith("Out of range float values are not JSON compliant: ")
    if where in ("first", "middle", "last", "row and after"):
        assert _message(cli._csv, keys, [("", table)]) == _message(_csv_reference, keys, rows)


def test_potential_matches_the_standard_library(capsys):
    spec = EffectivePotentialSpec(PotentialFamily.PLANAR_WAVE, angular_momentum=1)
    r = RadialGrid(0.5, 10.0, 57).points
    v = eval_potential(spec, r)
    argv = ("potential", "--family", "twodim", "--m", "1", "--n-points", "57")
    assert run(capsys, *argv)[1] == _csv_reference(("r", "V"), zip(r.tolist(), v.tolist()))
    assert run(capsys, *argv, "--format", "json")[1] == _json_reference(
        {
            "command": "potential",
            "family": "twodim",
            "parameters": {"m": 1, "N": 2, "l_squared": 0.0},
            "classification": classify_potential(spec).value,
            "units": UNITS,
            "rows": [{"r": a, "V": b} for a, b in zip(r.tolist(), v.tolist())],
        }
    )


def test_wavefunction_matches_the_standard_library(capsys):
    k = 0.76
    grid = RadialGrid(0.05 / k, 20.0 / k, 101)
    r = grid.points.tolist()
    phi = planar_rows(k, grid.points)[0].tolist()
    w = density_profile(2, k, grid.points).tolist()
    argv = ("wavefunction", "--k", repr(k), "--n-points", "101")
    assert run(capsys, *argv)[1] == _csv_reference(("r", "phi2", "w2"), zip(r, phi, w))
    assert run(capsys, *argv, "--format", "json")[1] == _json_reference(
        {
            "command": "wavefunction",
            "k": k,
            "rows": [{"r": a, "phi2": b, "w2": c} for a, b, c in zip(r, phi, w)],
        }
    )


def test_nodes_match_the_standard_library(capsys):
    n_max = 7
    families = (CylinderFamily.BESSEL_J, CylinderFamily.NEUMANN_Y)
    reports = {
        (fam, order): node_density(find_zeros(fam, order, n_max))
        for fam in families
        for order in (0, 1)
    }
    rows = [
        (fam.value, order, i + 1, *(float(a[i]) for a in (z[:-1], z[1:], rep.spacings, rep.densities)))
        for (fam, order), rep in reports.items()
        for z in [rep.table.zeros]
        for i in range(z.size - 1)
    ]
    header = ("family", "order", "n", "zero_n", "zero_next", "spacing", "density")
    assert run(capsys, "nodes", "--n-max", str(n_max))[1] == _csv_reference(header, rows)
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
            "zeros": rep.table.zeros.tolist(),
            "spacings": rep.spacings.tolist(),
            "densities": rep.densities.tolist(),
        }
        for (fam, order), rep in reports.items()
    ]
    got = run(capsys, "nodes", "--n-max", str(n_max), "--format", "json")[1]
    assert got == _json_reference(
        {"command": "nodes", "n_max": n_max, "tables": tables, "verdicts": verdicts}
    )
