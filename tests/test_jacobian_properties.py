"""Property tests of the identity-trial screen and of the Jacobian's
nested line-integral representation."""

import cmath
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from curvetorsion.curves import CurveGamma
from curvetorsion.errors import NonConvergence, SegmentHitsSingularity
from curvetorsion.geometry import _hulls_within
from curvetorsion.jacobian import (
    QuadratureSpec,
    Triple,
    check_triple_clear,
    jacobian_direct,
    jacobian_integral,
)
from curvetorsion.polynomials import ComplexPolynomial

from conftest import random_curve

coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_subnormal=False)
points = st.builds(complex, coords, coords)


@st.composite
def triangles(draw):
    """A triangle, possibly with coincident or collinear vertices."""
    a, b = draw(points), draw(points)
    kind = draw(st.sampled_from(["free", "coincident", "collinear", "point"]))
    if kind == "free":
        c = draw(points)
    elif kind == "coincident":
        c = a
    elif kind == "collinear":
        c = a + draw(st.floats(min_value=-2.0, max_value=2.0)) * (b - a)
    else:
        b = c = a
    return draw(st.permutations([a, b, c]))


@st.composite
def poles_near(draw, tri, margin):
    """Points scattered freely and at margin * (1 +- 1e-12) from an edge."""
    out = draw(st.lists(points, max_size=3))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=2))
        a, b = tri[i], tri[(i + 1) % 3]
        foot = a + draw(st.floats(min_value=0.0, max_value=1.0)) * (b - a)
        edge = b - a
        normal = 1j * edge / abs(edge) if edge != 0 else cmath.rect(1.0, draw(coords))
        side = draw(st.sampled_from([1.0, -1.0]))
        scale = 1.0 + draw(st.sampled_from([-1e-12, 0.0, 1e-12]))
        out.append(foot + side * margin * scale * normal)
    return out


def scalar_excludes(poles, tri, margin) -> bool:
    try:
        check_triple_clear(SimpleNamespace(singular_points=tuple(poles)), Triple(*tri), margin)
    except SegmentHitsSingularity:
        return True
    return False


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), margin=st.floats(min_value=0.01, max_value=1.0))
def test_screen_excludes_only_what_the_scalar_test_excludes(data, margin):
    tris = data.draw(st.lists(triangles(), min_size=1, max_size=4))
    poles = data.draw(poles_near(tris[0], margin))
    a, b, c = (np.array(v, dtype=np.complex128) for v in zip(*tris))
    flagged = _hulls_within(poles, a, b, c, margin)
    for tri, hit in zip(tris, flagged):
        if hit:
            assert scalar_excludes(poles, tri, margin), (tri, poles, margin)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_screen_decides_seeded_draws_like_the_scalar_test(seed, curve_mixed, curve_z3z5):
    rng = np.random.default_rng(seed)
    curve = (curve_mixed, curve_z3z5, random_curve(rng, 3))[seed]
    poles = curve.torsion.singular_points
    z = rng.uniform(-1.0, 1.0, 6 * 2000).view(np.complex128).reshape(-1, 3)
    flagged = _hulls_within(poles, z[:, 0], z[:, 1], z[:, 2], 0.3)
    scalar = [scalar_excludes(poles, row, 0.3) for row in z.tolist()]
    assert 0 < int(flagged.sum()) < len(scalar)
    assert flagged.tolist() == scalar


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_hull_is_not_clear(curve_mixed):
    # The pole -1/3 of the mixed curve lies 0.24 from this hull's edge
    # through the origin, but the hull's squared edge lengths overflow, and
    # so the distance comes out as 7.6e199 when they go unchecked.
    tri = (1e200 - 1e200j, -1e200 + 1e200j, 3e199 + 7e199j)
    poles = curve_mixed.torsion.singular_points
    assert scalar_excludes(poles, tri, 0.35)
    assert _hulls_within(poles, *([v] for v in tri), 0.35).all()


coefficients = st.builds(complex, coords, coords)


@st.composite
def curves(draw):
    degree = draw(st.sampled_from([3, 4]))
    comps = [ComplexPolynomial(draw(st.lists(coefficients, min_size=degree + 1,
                                             max_size=degree + 1)))
             for _ in range(3)]
    return CurveGamma.from_components(*comps)


@settings(max_examples=30, deadline=None, database=None)
@given(curve=curves(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_integral_jacobian_equals_direct(curve, seed):
    assume(not curve.torsion.degenerate)
    rng = np.random.default_rng(seed)
    q = QuadratureSpec(nodes_per_segment=16)
    for _ in range(2000):
        t = Triple(*rng.uniform(-1.0, 1.0, 6).view(np.complex128).tolist())
        try:
            integral = jacobian_integral(curve, t, q, singularity_margin=0.3)
        except (SegmentHitsSingularity, NonConvergence):
            continue
        direct = jacobian_direct(curve, t)
        assert abs(integral - direct) <= 1e-6 * max(1.0, abs(direct)), (t, integral, direct)
        return
    assume(False)
