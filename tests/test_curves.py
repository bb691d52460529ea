import numpy as np
import pytest

from curvetorsion import (
    CurveGamma,
    affine_apply,
    lambda_weight,
    torsion_triple,
)
from conftest import poly, random_curve


class TestTorsionTriple:
    def test_moment_curve(self, moment_curve):
        tt = torsion_triple(moment_curve)
        assert tt.L1 == poly(1)
        assert tt.L2 == poly(2)
        assert tt.L3 == poly(12)
        assert not tt.degenerate

    def test_planar_curve_degenerate(self):
        curve = CurveGamma.from_components(poly(0, 1), poly(0, 0, 1), poly(0))
        tt = torsion_triple(curve)
        assert tt.degenerate
        assert tt.L3.degree == -1

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 2)])
    def test_equal_components_degenerate(self, pair, rng):
        # Equal components give equal frame rows; the cofactor expansion may
        # leave a rounding residue, which torsion_triple maps to L3 = 0.
        i, j = pair
        for _ in range(200):
            comps = list(random_curve(rng, int(rng.integers(2, 7))).components)
            comps[j] = comps[i]
            tt = torsion_triple(CurveGamma.from_components(*comps))
            assert tt.degenerate
            assert tt.L3.degree == -1

    @pytest.mark.parametrize("scale", [2.0**-14, 2.0**-20])
    def test_scaled_curves_keep_their_torsion(self, moment_curve, curve_mixed, scale):
        # L3 and its rounding scale L3_magnitude both scale by scale**3.
        for curve in (moment_curve, curve_mixed):
            small = CurveGamma.from_components(*(scale * c for c in curve.components))
            tt = torsion_triple(small)
            assert not tt.degenerate
            assert np.array_equal(tt.L3.coeffs, scale**3 * curve.torsion.L3.coeffs)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-20])
    def test_dependent_and_quadratic_curves_stay_degenerate(self, rng, scale):
        p1, p2, _ = random_curve(rng, 4).components
        for comps in ((p1, p2, p1 + p2), random_curve(rng, 2).components):
            tt = torsion_triple(CurveGamma.from_components(*(scale * c for c in comps)))
            assert tt.degenerate
            assert tt.L3.degree == -1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CurveGamma.from_components(poly(0, 1), poly(0, 0, bad), poly(0, 0, 0, 1))

    def test_normalized_curve_unit_torsion(self, normalized_curve):
        tt = torsion_triple(normalized_curve)
        assert np.allclose(tt.L1.coeffs, [1])
        assert np.allclose(tt.L2.coeffs, [1])
        assert np.allclose(tt.L3.coeffs, [1])

    def test_z2z4_torsion(self, curve_z2z4):
        # symbolic oracle: frame rows (1,0,0), (2z,2,0), (4z^3,12z^2,24z)
        # so L3 = 2 * 24z = 48z; checked against a numeric determinant below
        tt = torsion_triple(curve_z2z4)
        assert tt.L1 == poly(1)
        assert tt.L2 == poly(2)
        assert np.allclose(tt.L3.coeffs, [0, 48])
        z0 = 0.7 + 0.3j
        frame = curve_z2z4.derivative_frame()
        m = np.array([[frame[i][j](z0) for j in range(3)] for i in range(3)])
        assert abs(tt.L3(z0) - np.linalg.det(m)) < 1e-10 * abs(np.linalg.det(m))


class TestLambdaWeight:
    def test_moment_constant(self, moment_curve):
        tt = torsion_triple(moment_curve)
        for z in (0.0, 2 - 1j, 100j):
            assert abs(lambda_weight(tt, z) - 12 ** (1 / 3)) < 1e-12

    def test_degenerate_zero(self):
        curve = CurveGamma.from_components(poly(0, 1), poly(0, 0, 1), poly(0))
        tt = torsion_triple(curve)
        assert lambda_weight(tt, 3 + 4j) == 0.0

    def test_z2z4_at_one(self, curve_z2z4):
        tt = torsion_triple(curve_z2z4)
        assert abs(lambda_weight(tt, 1.0) - 48 ** (1 / 3)) < 1e-12


class TestAffineApply:
    def test_identity(self, moment_curve):
        out = affine_apply(moment_curve, np.eye(3))
        for a, b in zip(out.components, moment_curve.components):
            assert np.allclose(a.coeffs, b.coeffs)

    def test_diag_normalizes_moment(self, moment_curve, normalized_curve):
        out = affine_apply(moment_curve, np.diag([1.0, 0.5, 1.0 / 6.0]))
        tt = torsion_triple(out)
        assert np.allclose(tt.L3.coeffs, [1.0])
        for a, b in zip(out.components, normalized_curve.components):
            assert np.allclose(a.coeffs, b.coeffs)

    def test_double_scales_torsion_by_eight(self, moment_curve, rng):
        out = affine_apply(moment_curve, 2.0 * np.eye(3))
        tt0 = torsion_triple(moment_curve)
        tt1 = torsion_triple(out)
        z = rng.normal(size=10) + 1j * rng.normal(size=10)
        assert np.allclose(tt1.L3(z), 8.0 * np.asarray(tt0.L3(z)))

    def test_torsion_scaling_property(self, rng):
        for _ in range(50):
            curve = random_curve(rng, int(rng.integers(2, 5)))
            tt = torsion_triple(curve)
            if tt.degenerate:
                continue
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            offset = rng.normal(size=3) + 1j * rng.normal(size=3)
            moved = affine_apply(curve, m)
            moved = CurveGamma.from_components(
                *(c + o for c, o in zip(moved.components, offset)),
                degree_bound=moved.degree_bound,
            )
            tt2 = torsion_triple(moved)
            z = rng.normal(size=20) + 1j * rng.normal(size=20)
            lhs = np.asarray(tt2.L3(z))
            rhs = np.linalg.det(m) * np.asarray(tt.L3(z))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(rhs) + 1)


class TestSerialization:
    def test_curve_json_roundtrip(self, curve_mixed):
        data = curve_mixed.to_json()
        back = CurveGamma.from_json(data)
        assert back.degree_bound == curve_mixed.degree_bound
        for a, b in zip(back.components, curve_mixed.components):
            assert np.array_equal(a.coeffs, b.coeffs)
