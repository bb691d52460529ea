"""Property tests of the real-arithmetic rejection sampler and the
triangle-fan sampler, of the Python-``complex`` half-plane clip and the
polygon area, and of the Jacobian built from the curve's cached
derivatives."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from curvetorsion.curves import CurveGamma
from curvetorsion.decomposition import FAN_CUTOFF, Region
from curvetorsion.errors import EmptyRegion
from curvetorsion.geometry import (
    _edge_terms,
    _in_polygon_parts,
    clip_halfplane,
    halfplane_value,
    point_in_polygon,
    polygon_area,
    polygon_bbox,
    sample_fan,
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


def region_of(poly):
    return Region(center=0j, theta_range=None, radial_range=(0.0, math.inf), halfplanes=(),
                  sampling_polygon=tuple(poly), clipped=tuple(poly), parent_voronoi=0,
                  region_id="test", unbounded=False, thickening=1.1)


def acceptance(poly):
    re0, re1, im0, im1 = polygon_bbox(poly)
    return polygon_area(poly) / ((re1 - re0) * (im1 - im0))


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


def test_fan_draws_3n_uniforms_once():
    poly = (0j, 1 + 0j, 2 + 1j, 1 + 3j, -1 + 1j)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    sample_fan(poly, 500, rng)
    ref.random(1500)
    assert rng.bit_generator.state == ref.bit_generator.state


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


def diagonal_sliver(width):
    """A parallelogram of length 1 and the given width along the diagonal,
    whose bounding box is the unit square."""
    d = width * complex(-1.0, 1.0) / math.sqrt(2.0)
    return (0j, complex(0.5, 0.5), complex(0.5, 0.5) + d, d)


def test_sliver_that_defeats_rejection_samples_exactly():
    poly = diagonal_sliver(1e-12)
    with pytest.raises(RuntimeError):
        sample_polygon(poly, 10, np.random.default_rng(0))
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


def right_triangles(rng, count):
    for _ in range(count):
        o = complex(*rng.uniform(-20.0, 20.0, 2))
        w, h = 10.0 ** rng.uniform(-3.0, 2.0, 2)
        corner = int(rng.integers(4))
        box = [o, o + w, o + complex(w, h), o + 1j * h]
        yield tuple(box[(corner + i) % 4] for i in range(4) if i != 2)


@pytest.mark.parametrize("seed", range(6))
def test_rejection_stream_kept_at_and_above_the_cutoff(seed):
    rng = np.random.default_rng(200 + seed)
    polys = list(right_triangles(rng, 10))
    while len(polys) < 20:
        poly = seeded_polygon(rng, 10.0 ** rng.uniform(-0.5, 0.0))
        if acceptance(poly) >= FAN_CUTOFF:
            polys.append(poly)
    for poly in polys:
        assert acceptance(poly) >= FAN_CUTOFF
        n = int(rng.integers(1, 700))
        got = region_of(poly).sample(n, np.random.default_rng(seed))
        assert got.tobytes() == sample_polygon(poly, n, np.random.default_rng(seed)).tobytes()


def test_pinned_z2z4_region_keeps_its_rejection_stream(suite_reports):
    # Region 0 of z2z4 is a half-box right triangle up to rounding; both
    # min-ratio pins sample it.
    region = suite_reports["z2z4"][2].regions[0]
    assert FAN_CUTOFF <= acceptance(region.sampling_polygon) < 0.5
    got = region.sample(3000, np.random.default_rng(11))
    want = sample_polygon(region.sampling_polygon, 3000, np.random.default_rng(11))
    assert got.tobytes() == want.tobytes()


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
