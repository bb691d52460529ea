import json
import math
from pathlib import Path

import numpy as np
import pytest

from curvetorsion import CurveGamma, classify_regions, torsion_triple
from curvetorsion.curves import lambda_weight
from curvetorsion.operators import _complex_stderr
from curvetorsion.polynomials import ComplexPolynomial


try:
    import jsonschema

    HAVE_JSONSCHEMA = True
except ImportError:  # pragma: no cover
    HAVE_JSONSCHEMA = False

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"


def poly(*coeffs):
    return ComplexPolynomial(list(coeffs))


def from_roots(lead, roots_with_mults):
    """``lead * prod (z - r)**m`` from (root, multiplicity) pairs."""
    coeffs = np.array([complex(lead)], dtype=np.complex128)
    for root, mult in roots_with_mults:
        factor = np.array([-complex(root), 1.0], dtype=np.complex128)
        for _ in range(int(mult)):
            coeffs = np.convolve(coeffs, factor)
    return ComplexPolynomial(coeffs)


def validate(payload, schema_name):
    if not HAVE_JSONSCHEMA:
        pytest.skip("jsonschema not installed")
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(payload, schema)


@pytest.fixture(scope="session")
def moment_curve():
    return CurveGamma.from_components(poly(0, 1), poly(0, 0, 1), poly(0, 0, 0, 1))


@pytest.fixture(scope="session")
def normalized_curve():
    return CurveGamma.from_components(poly(0, 1), poly(0, 0, 0.5), poly(0, 0, 0, 1 / 6))


@pytest.fixture(scope="session")
def curve_z2z4():
    return CurveGamma.from_components(poly(0, 1), poly(0, 0, 1), poly(0, 0, 0, 0, 1))


@pytest.fixture(scope="session")
def curve_z3z5():
    return CurveGamma.from_components(poly(0, 1), poly(0, 0, 0, 1), poly(0, 0, 0, 0, 0, 1))


@pytest.fixture(scope="session")
def curve_mixed():
    return CurveGamma.from_components(poly(0, 1), poly(0, 0, 1, 1), poly(0, 0, 0, 0, 1))


@pytest.fixture(scope="session")
def curve_suite(moment_curve, curve_z2z4, curve_z3z5, curve_mixed):
    return {
        "moment": moment_curve,
        "z2z4": curve_z2z4,
        "z3z5": curve_z3z5,
        "mixed": curve_mixed,
    }


@pytest.fixture(scope="session")
def suite_reports(curve_suite):
    """Classified decompositions for the whole curve suite (computed once)."""
    out = {}
    for name, curve in curve_suite.items():
        tt = torsion_triple(curve)
        out[name] = (curve, tt, classify_regions(tt))
    return out


def random_curve(rng, degree):
    comps = [
        ComplexPolynomial(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
        for _ in range(3)
    ]
    return CurveGamma.from_components(*comps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def reference_sample(S, n, rng):
    """n points uniform in the MeasurableSet S, drawn whole from rng in one pass."""
    center = np.asarray(S.center, dtype=np.complex128)
    if S.kind == "box":
        coords = rng.uniform(-S.size, S.size, size=(n, 6))
    else:
        g = rng.standard_normal((n, 6))
        norm = np.linalg.norm(g, axis=1, keepdims=True)
        radii = S.size * rng.random(n) ** (1.0 / 6.0)
        coords = g / norm * radii[:, None]
    return center + coords[:, :3] + 1j * coords[:, 3:]


def reference_disk(n, radius, rng):
    """n points uniform in the disk, r then theta drawn whole from rng."""
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    return r * np.exp(1j * theta)


def reference_pairing(curve, E, F, disk_radius, n, seed):
    """``operators.pairing``'s samples, estimate and standard error from
    whole draws of F's points, then the disk's."""
    rng = np.random.default_rng(seed)
    z = reference_sample(F, n, rng)
    w = reference_disk(n, disk_radius, rng)
    samples = np.where(E.contains(z - curve(w)), lambda_weight(curve.torsion, w), 0.0)
    scale = F.volume * math.pi * disk_radius**2
    est = float(scale * samples.mean())
    return samples, est, _complex_stderr(samples.astype(np.complex128), scale)
