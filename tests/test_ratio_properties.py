"""Property tests of the geometric ratio |J| / (|L3(z1) L3(z2) L3(z3)|^(1/3)
times the pairwise distances): it is unchanged by an invertible affine map
of C^3 applied to the curve, and by an affine reparametrization of the
curve compared at the mapped triple.  The two ratios agree to 1e-8 relative
plus the rounding bound of each side's evaluation."""

import cmath
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from curvetorsion.curves import CurveGamma, affine_apply
from curvetorsion.errors import DegenerateTriple
from curvetorsion.jacobian import Triple, _interleaved_jacobian
from curvetorsion.polynomials import ComplexPolynomial, _eval_error_bound, _magnitude_bound
from curvetorsion.verification import geometric_ratio

reals = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_subnormal=False)
complexes = st.builds(complex, reals, reals)


@st.composite
def curves(draw):
    """Three components of degree 3 or 4 with bounded coefficients."""
    comps = [ComplexPolynomial(draw(st.lists(complexes, min_size=4, max_size=5)))
             for _ in range(3)]
    return CurveGamma.from_components(*comps)


triples = st.builds(Triple, complexes, complexes, complexes)
scales = st.builds(cmath.rect, st.floats(min_value=0.25, max_value=2.0),
                   st.floats(min_value=-math.pi, max_value=math.pi))


def ratio_or_none(curve, t):
    """The ratio, or None when its bound is within reach of 0."""
    try:
        sample = geometric_ratio(curve, t)
    except DegenerateTriple:
        return None
    return sample.ratio if sample.bound_value > 1e-3 else None


def composed(p, inner):
    """p(inner(z)) by Horner's scheme over polynomials."""
    out = ComplexPolynomial([0.0])
    for c in p.coeffs[::-1]:
        out = out * inner + c
    return out


# geometric_ratio's rounding, counted in units of EPS from the operations it
# performs: a real rounding errs by at most EPS / 2 relative, a complex
# product by sqrt(2) EPS and a complex sum by EPS / 2.
EPS = np.finfo(float).eps
# The cofactor a(ei - fh) - b(di - fg) + c(dh - eg): per term two products,
# their difference and one more product, then two sums between the terms;
# relative to the permanent of the entry moduli.
COFACTOR = 2 * math.sqrt(2) + 1.5
# The bound's distances (a difference and a modulus each, two products), the
# product of the three L3 values with its modulus and cube root, |J| and the
# division.
REST = 10.0


def permanent(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i + f * h) + b * (d * i + f * g) + c * (d * h + e * g)


def rounding_bound(curve, t):
    """Relative rounding bound of ``geometric_ratio(curve, t)`` on the
    curve's coefficients and the triple as given, to first order in EPS.

    Entry (i, k) of J's matrix is P_i'(z_k).  The power rule rounds each of
    its K_i coefficients once, and Horner's rule errs by at most
    (2 K_i + 1) EPS times M_ik = sum |c_j| |z_k|^j.  Each cofactor term
    takes one entry of each row, so J errs by at most (the rows' counts +
    COFACTOR) EPS perm(M).  L3's coefficients come from the cofactor
    expansion of the frame rows (P_i', P_i'', P_i'''): three power rules
    (3 EPS over a term's entries), two convolutions of at most K terms
    (2 sqrt(2) + K - 1), a difference and two sums (1.5), relative to
    ``L3_magnitude``; evaluating L3's k3 coefficients adds 2 k3 + 1.  The
    bound takes the cube root of the product of the three L3 values, so a
    third of each one's relative error.
    """
    pts = np.array(t, dtype=np.complex128)
    coeffs = [d.coeffs for d in curve.derivatives]
    size = np.array([_magnitude_bound(c, pts) for c in coeffs])
    rows = sum(2 * c.size + 1.5 for c in coeffs)
    jac = abs(_interleaved_jacobian(curve, pts)[0])
    jac_share = (rows + COFACTOR) * EPS * permanent(size) / jac
    tt = curve.torsion
    mag = tt.L3_magnitude.coeffs
    expansion = max(c.size for c in coeffs) + 4.5 + 2 * math.sqrt(2)
    l3_err = expansion * EPS * _magnitude_bound(mag, pts) + _eval_error_bound(mag, pts)
    l3_share = float(np.sum(l3_err / np.abs(tt.L3(pts)))) / 3.0
    return jac_share + l3_share + REST * EPS


def assert_same(a, b, side_a, side_b):
    """a and b agree to 1e-8 relative plus each side's rounding bound; a
    side is the (curve, triple) its ratio was evaluated at."""
    tol = 1e-8 * a + a * rounding_bound(*side_a) + b * rounding_bound(*side_b)
    assert abs(a - b) <= tol


@settings(max_examples=200, deadline=None)
@given(curves(), triples, st.lists(complexes, min_size=9, max_size=9),
       st.lists(complexes, min_size=3, max_size=3))
# L3(0) is 0 in exact arithmetic and ~1e-15 as computed, while the other two
# L3 values lift the bound past the cutoff; the ratio must not be taken
@example(
    CurveGamma.from_components([0j, 1.8544136941302112j, 0.375, -1j],
                               [0j, 1.8544136941302112j, 0.375, -1j, 1j],
                               [0j, 1, 0j, 1]),
    Triple(0j, 1j, 2j), [0j, 0j, 1j, 0j, 1.25j, 0j, 1j, 0j, 0j], [0j, 0j, 0j],
)
# The image's J cancels: perm(|P_i'(z_k)|) / |J| is 1.45 for the curve but
# 5.8e8 for its image, and the two ratios differ by 1.04e-8 relative
@example(
    CurveGamma.from_components([0j, 0.5j], [0j, 0j, 0j, 0j, 2j], [0j, 0j, 0j, 1e-6j],
                               degree_bound=4),
    Triple(1j, -2j, 2 + 1j), [0j, 1j, 0j, 0.5j, 1 + 0j, 0j, 0j, 1 + 0j, 1j], [0j, 0j, 0j],
)
def test_affine_map_of_the_curve(curve, t, entries, offset):
    # J and L3 both scale by det M, so |J| and the bound scale by |det M|;
    # the translation drops out of every derivative
    matrix = np.array(entries).reshape(3, 3)
    assume(np.linalg.cond(matrix) < 1e3)
    base = ratio_or_none(curve, t)
    assume(base is not None)
    linear = affine_apply(curve, matrix)
    mapped = CurveGamma.from_components(
        *(c + o for c, o in zip(linear.components, offset)),
        degree_bound=linear.degree_bound,
    )
    moved = ratio_or_none(mapped, t)
    assume(moved is not None)
    assert_same(base, moved, (curve, t), (mapped, t))


@settings(max_examples=200, deadline=None)
@given(curves(), triples, scales, complexes)
def test_affine_reparametrization(curve, t, lam, h):
    # g(z) = curve(lam * z + h): J and the bound both scale by |lam|^3
    reparam = CurveGamma.from_components(*(
        composed(c, ComplexPolynomial([h, lam])) for c in curve.components
    ))
    moved = ratio_or_none(reparam, t)
    assume(moved is not None)
    mapped_t = Triple(*(lam * z + h for z in t))
    base = ratio_or_none(curve, mapped_t)
    assume(base is not None)
    assert_same(base, moved, (curve, mapped_t), (reparam, t))


def test_rounding_bound_grows_only_with_cancellation():
    # The second pinned draw: the curve's own side adds nothing visible to
    # 1e-8, while its image's side carries the cancellation of its J.
    curve = CurveGamma.from_components([0j, 0.5j], [0j, 0j, 0j, 0j, 2j],
                                       [0j, 0j, 0j, 1e-6j], degree_bound=4)
    t = Triple(1j, -2j, 2 + 1j)
    mapped = affine_apply(curve, np.array([[0, 1j, 0], [0.5j, 1, 0], [0, 1, 1j]]))
    assert rounding_bound(curve, t) < 1e-13
    assert rounding_bound(mapped, t) > 1e-7
    a, b = ratio_or_none(curve, t), ratio_or_none(mapped, t)
    assert abs(a - b) > 1e-8 * a
    assert_same(a, b, (curve, t), (mapped, t))
