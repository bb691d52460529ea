"""Dilation laws of the operator estimators on the moment curve.

The moment curve satisfies Gamma(s w) = D_s Gamma(w) with
D_s = diag(s, s**2, s**3), and its L3 is the constant 12.  So with
f_s(w) = f(s w):

- extension: E f_s(z) = s**-2 E f(D_s**-1 z), on the support disk of
  radius R / s;
- convolution: T_{sR}(f o D_s**-1)(D_s z) = s**2 T_R f(z), and the same for
  the standard error;
- weighted norms: ||f_s||_p = s**(-2/p) ||f||_p.

At s a power of two every scaling is exact in binary floating point, so the
first two laws hold bit for bit; the norm's final power rounds, so it holds
to one unit in the last place.
"""

import math

import numpy as np
import pytest

from curvetorsion import convolve, weighted_lp_norm
from curvetorsion.cli import _scan_family
from curvetorsion.operators import _extension_values

DILATIONS = (0.25, 0.5, 2.0, 4.0)


def weights_of(s):
    """The diagonal of D_s."""
    return np.array([s, s**2, s**3])


def dilated(f, s):
    """f_s(w) = f(s w)."""
    return lambda w: f(s * w)


@pytest.mark.parametrize("s", DILATIONS)
@pytest.mark.parametrize("index", range(3))
def test_extension_law_is_exact(moment_curve, s, index):
    _, f, support = _scan_family()[index]
    rng = np.random.default_rng(11)
    zs = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    lhs = _extension_values(moment_curve, dilated(f, s), zs, 48, support / s)
    rhs = s**-2 * _extension_values(moment_curve, f, zs / weights_of(s), 48, support)
    assert np.array_equal(lhs, rhs)


def gaussian(u):
    return np.exp(-np.sum(np.abs(u) ** 2, axis=1))


@pytest.mark.parametrize("s", DILATIONS)
def test_convolution_law_is_exact(moment_curve, s):
    z = np.array([0.3 - 0.2j, 0.1 + 0.4j, -0.2 + 0.1j])
    base, base_err = convolve(moment_curve, gaussian, z, 1.0, 20_000, 3)
    shrunk = lambda u: gaussian(u / weights_of(s))
    value, err = convolve(moment_curve, shrunk, weights_of(s) * z, s, 20_000, 3)
    assert base_err > 0.0
    assert value == s**2 * base
    assert err == s**2 * base_err


@pytest.mark.parametrize("s", DILATIONS)
@pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0))
def test_norm_law_to_one_ulp(moment_curve, s, p):
    _, f, support = _scan_family()[0]
    norm = weighted_lp_norm(moment_curve, f, p, 24, support)
    scaled = weighted_lp_norm(moment_curve, dilated(f, s), p, 24, support / s)
    expected = s ** (-2.0 / p) * norm
    assert abs(scaled - expected) <= math.ulp(expected)
