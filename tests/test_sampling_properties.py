"""Property tests of the triangle-fan region sampler, of the
Python-``complex`` half-plane clip and the polygon area, and of the
Jacobian built from the curve's cached derivatives."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from curvetorsion.curves import CurveGamma
from curvetorsion.decomposition import Region
from curvetorsion.errors import EmptyRegion
from curvetorsion.geometry import clip_halfplane, polygon_area, sample_fan
from curvetorsion.jacobian import Triple, _interleaved_jacobian, jacobian_direct
from curvetorsion.polynomials import ComplexPolynomial, _det3_entries
from curvetorsion.verification import _interleaved_values


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


def region_of(poly):
    return Region(center=0j, theta_range=None, radial_range=(0.0, math.inf),
                  sampling_polygon=tuple(poly), parent_voronoi=0,
                  region_id="test", unbounded=False)


def seeded_polygon(rng, squeeze):
    """A counterclockwise convex polygon of 3-12 vertices on an ellipse
    whose axes are in the ratio ``squeeze``, turned by a random angle, so
    that a small ``squeeze`` gives a thin sliver in any orientation."""
    m = int(rng.integers(3, 13))
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
    radius = 10.0 ** rng.uniform(-3.0, 3.0)
    pts = radius * (np.cos(angles) + 1j * squeeze * np.sin(angles))
    pts = pts * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    pts = pts + complex(*rng.uniform(-50.0, 50.0, 2))
    return tuple(complex(v) for v in pts)


def edge_slack(z, poly):
    """Smallest signed distance of each point to the polygon's edge lines
    (positive inside)."""
    v = np.asarray(poly, dtype=np.complex128)
    edges = np.roll(v, -1) - v
    cross = ((np.conj(edges)[:, None] * (z[None, :] - v[:, None])).imag
             / np.abs(edges)[:, None])
    return cross.min(axis=0)


SQUEEZES = [1.0, 0.3, 1e-2, 1e-4, 1e-7]


@pytest.mark.parametrize("seed", range(40))
def test_fan_samples_lie_inside_the_polygon(seed):
    rng = np.random.default_rng(seed)
    poly = seeded_polygon(rng, SQUEEZES[seed % len(SQUEEZES)])
    z = sample_fan(poly, 2000, rng)
    # Rounding of the map and of the distance, relative to the coordinates.
    tol = 1e-13 * max(abs(v) for v in poly)
    assert z.shape == (2000,)
    assert edge_slack(z, poly).min() >= -tol


def diagonal_sliver(width):
    """A parallelogram of the given width along the diagonal from 0 to
    0.5 + 0.5j; it fills about 2.8 * width of its bounding box."""
    d = width * complex(-1.0, 1.0) / math.sqrt(2.0)
    return (0j, complex(0.5, 0.5), complex(0.5, 0.5) + d, d)


def test_fan_draws_3n_uniforms_once(suite_reports):
    # Region.sample is sample_fan for every shape: a general pentagon, a
    # half-box right triangle, z2z4's region 0 (the polygon that both
    # min-ratio pins sample) and a 1e-12-wide diagonal sliver.
    polys = [
        (0j, 1 + 0j, 2 + 1j, 1 + 3j, -1 + 1j),
        (0j, 2 + 0j, 0.5j),
        suite_reports["z2z4"][2].regions[0].sampling_polygon,
        diagonal_sliver(1e-12),
    ]
    for poly in polys:
        fan_rng, region_rng, ref = (np.random.default_rng(3) for _ in range(3))
        want = sample_fan(poly, 500, fan_rng)
        got = region_of(poly).sample(500, region_rng)
        ref.random(1500)
        assert got.tobytes() == want.tobytes()
        assert fan_rng.bit_generator.state == ref.bit_generator.state
        assert region_rng.bit_generator.state == ref.bit_generator.state


def fan_triangle_index(z, poly):
    """Index k of the fan triangle (v0, v[k+1], v[k+2]) holding each point:
    the rays v0 -> v[j] turn counterclockwise, so k + 1 counts the rays
    that the point lies to the left of."""
    v = np.asarray(poly, dtype=np.complex128)
    rays = v[1:] - v[0]
    left = (np.conj(rays)[:, None] * (z[None, :] - v[0])).imag >= 0.0
    return np.clip(left.sum(axis=0) - 1, 0, len(poly) - 3)


def chi2_upper(df, z=3.719):
    """Wilson-Hilferty approximation of the chi-square quantile at the
    standard normal quantile z (3.719: upper tail 1e-4)."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


@pytest.mark.parametrize("seed", range(8))
def test_fan_counts_follow_area_shares(seed):
    rng = np.random.default_rng(100 + seed)
    poly = seeded_polygon(rng, SQUEEZES[seed % len(SQUEEZES)])
    while len(poly) < 5:
        poly = seeded_polygon(rng, SQUEEZES[seed % len(SQUEEZES)])
    n = 60_000
    z = sample_fan(poly, n, rng)
    v = np.asarray(poly, dtype=np.complex128)
    e = v[1:] - v[0]
    areas = (np.conj(e[:-1]) * e[1:]).imag
    expected = n * areas / areas.sum()
    counts = np.bincount(fan_triangle_index(z, poly), minlength=len(poly) - 2)
    keep = expected > 5.0
    stat = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
    assert stat < chi2_upper(max(int(keep.sum()) - 1, 1))
    # Within each triangle the square-root map is uniform too: the sample
    # mean sits at the centroid, within five standard errors a side.
    centroid = np.sum(areas * (v[0] + v[1:-1] + v[2:]) / 3.0) / areas.sum()
    for part in (np.real, np.imag):
        err = part(z).std() / math.sqrt(n)
        assert abs(part(z).mean() - part(centroid)) < 5.0 * err


def test_sliver_that_defeats_rejection_samples_exactly():
    # A point drawn from the bounding box would land in it about once in
    # 3.5e11 tries.
    poly = diagonal_sliver(1e-12)
    z = region_of(poly).sample(3000, np.random.default_rng(0))
    assert z.shape == (3000,)
    assert edge_slack(z, poly).min() >= -1e-15


@pytest.mark.parametrize("poly", [
    (0j, 1 + 0j, 2 + 0j),
    (0j, 1 + 1j, 2 + 2j, 1 + 1j),
    (1 + 1j, 1 + 1j, 1 + 1j),
    (0j, 1 + 0j),
    (0j, complex(math.nan, 1.0), 1 + 1j),
    (0j, complex(math.inf, 0.0), 1 + 1j),
], ids=["collinear", "diagonal", "point", "two-vertices", "nan", "inf"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_polygon_without_area_raises_before_drawing(poly):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(EmptyRegion, match="no area"):
        region_of(poly).sample(100, rng)
    assert rng.bit_generator.state == state


def halfplane_value(z, anchor, normal):
    """Re(conj(normal) * (z - anchor)): nonnegative inside the half plane."""
    return ((z - anchor) * np.conj(normal)).real


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


def _det3_values(c1, c2, c3):
    """Cofactor determinant of (..., 3) column arrays."""
    return _det3_entries(*((col[..., 0], col[..., 1], col[..., 2]) for col in (c1, c2, c3)))


def _bound_values(tt, z1, z2, z3):
    """The lower-bound product with L3 evaluated on each point array on its own."""
    l3 = np.abs(tt.L3(z1) * tt.L3(z2) * tt.L3(z3))
    return l3 ** (1.0 / 3.0) * (np.abs(z2 - z1) * np.abs(z3 - z1) * np.abs(z3 - z2))


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
    got = _interleaved_jacobian(curve, np.stack([z1, z2, z3], axis=1).ravel()).tobytes()
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
    expected = _det3_values(*(reference_columns(curve, z) for z in (z1, z2, z3)))
    assert jac.tobytes() == expected.tobytes()
