"""Property tests of the real-arithmetic polygon sampler, of the
Python-``complex`` half-plane clip and the polygon area, and of the
Jacobian built from the curve's cached derivatives."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from curvetorsion.curves import CurveGamma
from curvetorsion.geometry import (
    _edge_terms,
    _in_polygon_parts,
    clip_halfplane,
    halfplane_value,
    point_in_polygon,
    polygon_area,
    polygon_bbox,
    sample_polygon,
)
from curvetorsion.jacobian import (
    Triple,
    _det3_values,
    derivative_columns,
    jacobian_direct,
    jacobian_direct_batch,
)
from curvetorsion.polynomials import ComplexPolynomial
from curvetorsion.verification import _bound_values, _interleaved_values


def reference_sample(poly, n, rng):
    """The rejection loop with complex membership tests."""
    re0, re1, im0, im1 = polygon_bbox(poly)
    out = np.empty(n, dtype=np.complex128)
    got = 0
    while got < n:
        batch = max(256, 2 * (n - got))
        re = rng.uniform(re0, re1, batch)
        im = rng.uniform(im0, im1, batch)
        z = re + 1j * im
        hits = z[point_in_polygon(z, poly)]
        take = min(hits.size, n - got)
        out[got:got + take] = hits[:take]
        got += take
    return out


@st.composite
def convex_polygons(draw, min_size=3, max_size=8):
    """3-8 vertices (or min_size-max_size) on a stretched circle,
    counterclockwise."""
    weights = draw(st.lists(st.floats(1.0, 3.0), min_size=min_size, max_size=max_size))
    start = draw(st.floats(0.0, 2.0 * math.pi))
    radius = 10.0 ** draw(st.floats(-3.0, 3.0))
    stretch = draw(st.floats(0.2, 5.0))
    cx, cy = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))
    total = sum(weights)
    poly, angle = [], start
    for w in weights:
        poly.append(complex(cx + stretch * radius * math.cos(angle),
                            cy + radius * math.sin(angle)))
        angle += 2.0 * math.pi * w / total
    return tuple(poly)


@settings(max_examples=150, deadline=None, database=None)
@given(poly=convex_polygons(), n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_sample_polygon_matches_complex_rejection_loop(poly, n, seed):
    got = sample_polygon(poly, n, np.random.default_rng(seed))
    assert got.tobytes() == reference_sample(poly, n, np.random.default_rng(seed)).tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(poly=convex_polygons(),
       spots=st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 1.0)), min_size=1, max_size=60))
def test_real_membership_matches_complex_on_edge_points(poly, spots):
    # Points interpolated along the edges sit within roundoff of them, where
    # a fused and a twice-rounded edge value can differ in sign; about a
    # fifth of them take the exact-zero path.
    z = np.array([poly[i % len(poly)] + t * (poly[(i + 1) % len(poly)] - poly[i % len(poly)])
                  for i, t in spots])
    got = _in_polygon_parts(z.real.copy(), z.imag.copy(), poly, _edge_terms(poly))
    assert np.array_equal(got, point_in_polygon(z, poly))


def reference_clip(poly, anchor, normal):
    """The Sutherland-Hodgman clip in numpy scalars, with every vertex value
    taken from ``halfplane_value`` at both edges that end there."""
    if not poly:
        return ()
    out = []
    n = len(poly)
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        fa = halfplane_value(a, anchor, normal)
        fb = halfplane_value(b, anchor, normal)
        if fa >= 0.0:
            out.append(a)
            if fb < 0.0:
                t = fa / (fa - fb)
                out.append(a + t * (b - a))
        elif fb >= 0.0:
            t = fa / (fa - fb)
            out.append(a + t * (b - a))
    return tuple(out)


def reference_area(poly):
    if len(poly) < 3:
        return 0.0
    v = np.asarray(poly, dtype=np.complex128)
    return float(0.5 * np.sum((np.conj(v) * np.roll(v, -1)).imag))


def vertex_bytes(poly):
    return np.array(poly, dtype=np.complex128).reshape(-1).tobytes()


@st.composite
def halfplanes(draw, poly):
    """(anchor, normal) through a vertex, an edge point or a point near the
    polygon, with a normal of any direction and scale."""
    i = draw(st.integers(0, len(poly) - 1))
    a, b = complex(poly[i]), complex(poly[(i + 1) % len(poly)])
    kind = draw(st.sampled_from(["vertex", "edge", "free"]))
    if kind == "vertex":
        anchor = a
    elif kind == "edge":
        anchor = a + draw(st.floats(0.0, 1.0)) * (b - a)
    else:
        anchor = a + complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))) * abs(b - a)
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    normal = 10.0 ** draw(st.floats(-3.0, 3.0)) * complex(math.cos(phi), math.sin(phi))
    if draw(st.booleans()):
        anchor, normal = np.complex128(anchor), np.complex128(normal)
    return anchor, normal


@st.composite
def clip_cases(draw):
    poly = draw(convex_polygons() | convex_polygons(8, 24))
    if draw(st.booleans()):
        poly = tuple(np.complex128(v) for v in poly)
    cuts = [draw(halfplanes(poly)) for _ in range(draw(st.integers(1, 4)))]
    return poly, cuts


@settings(max_examples=300, deadline=None, database=None)
@given(case=clip_cases())
def test_clip_is_bitwise_the_numpy_scalar_clip(case):
    # Successive cuts feed each clip's output to the next, as region
    # building does; the reference keeps its numpy-scalar vertices.
    poly, cuts = case
    got, want = poly, poly
    for anchor, normal in cuts:
        got = clip_halfplane(got, anchor, normal)
        want = reference_clip(want, anchor, normal)
        assert len(got) == len(want)
        assert vertex_bytes(got) == vertex_bytes(want)


@settings(max_examples=300, deadline=None, database=None)
@given(poly=convex_polygons() | convex_polygons(8, 24), as_numpy=st.booleans(),
       cw=st.booleans())
def test_area_is_bitwise_the_rolled_area(poly, as_numpy, cw):
    if as_numpy:
        poly = tuple(np.complex128(v) for v in poly)
    if cw:
        poly = poly[::-1]
    got = polygon_area(poly)
    assert np.float64(got).tobytes() == np.float64(reference_area(poly)).tobytes()


parts = st.floats(-3.0, 3.0, allow_nan=False)
coeff_lists = st.lists(st.builds(complex, parts, parts), min_size=1, max_size=6)
point_arrays = st.lists(st.tuples(parts, parts), min_size=1, max_size=20)


def reference_columns(curve, z):
    """Derivative columns with the derivatives rebuilt on every call."""
    zz = np.asarray(z, dtype=np.complex128)
    return np.stack([np.asarray(c.derivative()(zz)) for c in curve.components], axis=-1)


@settings(max_examples=100, deadline=None, database=None)
@given(comps=st.tuples(coeff_lists, coeff_lists, coeff_lists),
       pts=st.tuples(point_arrays, point_arrays, point_arrays))
def test_jacobian_with_cached_derivatives_is_bitwise_the_cofactor_of_columns(comps, pts):
    curve = CurveGamma.from_components(*(ComplexPolynomial(c) for c in comps))
    size = min(len(p) for p in pts)
    z1, z2, z3 = (np.array([complex(*xy) for xy in p[:size]]) for p in pts)
    got = jacobian_direct_batch(curve, z1, z2, z3).tobytes()
    assert got == _det3_values(*(derivative_columns(curve, z) for z in (z1, z2, z3))).tobytes()
    assert got == _det3_values(*(reference_columns(curve, z) for z in (z1, z2, z3))).tobytes()
    single = jacobian_direct(curve, Triple(complex(z1[0]), complex(z2[0]), complex(z3[0])))
    expected = _det3_values(*(reference_columns(curve, complex(z[0])) for z in (z1, z2, z3)))
    assert np.asarray(single).tobytes() == np.asarray(complex(expected)).tobytes()


@settings(max_examples=60, deadline=None, database=None)
@given(comps=st.tuples(coeff_lists, coeff_lists, coeff_lists),
       n=st.integers(1, 3000) | st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_interleaved_evaluation_is_bitwise_the_strided_one(comps, n, seed):
    # One evaluation on the contiguous 3n array, sliced afterwards, must take
    # the same rounding as evaluating each strided slice: numpy's SIMD
    # complex product can round differently from its other loops.
    curve = CurveGamma.from_components(*(ComplexPolynomial(c) for c in comps))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3.0, 3.0, 3 * n) + 1j * rng.uniform(-3.0, 3.0, 3 * n)
    z1, z2, z3 = pts[0::3], pts[1::3], pts[2::3]
    bound, jac = _interleaved_values(curve, curve.torsion, pts)
    assert bound.tobytes() == _bound_values(curve.torsion, z1, z2, z3).tobytes()
    assert jac.tobytes() == jacobian_direct_batch(curve, z1, z2, z3).tobytes()
