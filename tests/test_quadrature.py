"""Tests for the Gauss-Kronrod panel rule."""

import math

import numpy as np
import pytest

from anticentrifugal.quadrature import gauss_kronrod_15


def test_single_panel_exact_on_low_degree_polynomials():
    # the 15-point Kronrod rule integrates degree <= 22 exactly; the
    # embedded 7-point Gauss rule only degree <= 13, so the reported
    # estimate |K - G| stays at rounding level through degree 13 and
    # grows beyond it while the value itself remains exact
    for degree in (0, 1, 2, 3, 7, 13):
        value, err = gauss_kronrod_15(lambda t, d=degree: t ** d, 0.0, 1.0)
        assert value == pytest.approx(1.0 / (degree + 1), rel=1e-14)
        assert err <= 1e-13
    for degree in (14, 18, 21):
        value, err = gauss_kronrod_15(lambda t, d=degree: t ** d, 0.0, 1.0)
        assert value == pytest.approx(1.0 / (degree + 1), rel=1e-14)


def test_single_panel_error_estimate_brackets_truth():
    value, err = gauss_kronrod_15(np.exp, 0.0, 1.0)
    true = math.e - 1.0
    assert abs(value - true) <= max(err, 1e-15)


def test_the_integrand_is_called_once_on_every_node():
    shapes = []

    def f(t):
        shapes.append(t.shape)
        return np.sin(t)

    gauss_kronrod_15(f, 0.0, 1.0)
    gauss_kronrod_15(f, np.array([0.0, 1.0, 3.0]), np.array([1.0, 3.0, 3.5]))
    assert shapes == [(15,), (15, 3)]


def test_array_panels_are_float_panels_bit_for_bit():
    rng = np.random.default_rng(19)
    a = rng.uniform(-5.0, 5.0, 40)
    b = a + 10.0 ** rng.uniform(-6.0, 1.0, 40)
    f = lambda t: np.exp(-t * t) / (1.0 + t * t)
    values, errors = gauss_kronrod_15(f, a, b)
    for i in range(a.size):
        value, err = gauss_kronrod_15(f, a[i].item(), b[i].item())
        assert (values[i].hex(), errors[i].hex()) == (value.hex(), err.hex())
