import math

import numpy as np
import pytest

from curvetorsion import (
    DegenerateTriple,
    QuadratureSpec,
    Triple,
    geometric_ratio,
    modulus_comparability_check,
    torsion_triple,
    verify_region,
)
from curvetorsion import jacobian
from curvetorsion.curves import affine_apply, CurveGamma
from curvetorsion.polynomials import ComplexPolynomial

from conftest import random_curve

Q32 = QuadratureSpec(nodes_per_segment=32)

ROUNDED_ZERO_CURVE = CurveGamma.from_components(
    ComplexPolynomial([0j, 1.8544136941302112j, 0.375, -1j]),
    ComplexPolynomial([0j, 1.8544136941302112j, 0.375, -1j, 1j]),
    ComplexPolynomial([0j, 1, 0j, 1]),
)


class TestGeometricRatio:
    def test_moment_curve_half(self, moment_curve, rng):
        for _ in range(20):
            z = rng.normal(size=3) * 2 + 1j * rng.normal(size=3)
            sample = geometric_ratio(moment_curve, Triple(*z))
            assert abs(sample.ratio - 0.5) < 1e-9

    def test_normalized_curve_half(self, normalized_curve, rng):
        # cofactor oracle: J = V/2 and the torsion is 1, so the ratio is
        # exactly 1/2 (it is invariant under the affine map that carries
        # the moment curve to this one)
        for _ in range(20):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            sample = geometric_ratio(normalized_curve, Triple(*z))
            assert abs(sample.ratio - 0.5) < 1e-9

    def test_degenerate_triple(self, moment_curve):
        with pytest.raises(DegenerateTriple):
            geometric_ratio(moment_curve, Triple(1.0, 1.0, 2.0))

    def test_zero_torsion_point(self, curve_z2z4):
        with pytest.raises(DegenerateTriple):
            geometric_ratio(curve_z2z4, Triple(0.0, 1.0, 2.0))

    def test_torsion_at_rounding_level(self):
        # L3(0) = 0 exactly, since the first two rows of the frame agree at
        # 0, but the cofactor expansion leaves ~1e-15 in L3's constant term
        curve = ROUNDED_ZERO_CURVE
        assert curve.torsion.L3(0j) != 0
        with pytest.raises(DegenerateTriple):
            geometric_ratio(curve, Triple(0j, 1j, 2j))

    def test_permutation_invariance(self, curve_mixed, rng):
        import itertools

        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        base = geometric_ratio(curve_mixed, Triple(*z)).ratio
        for perm in itertools.permutations(range(3)):
            val = geometric_ratio(curve_mixed, Triple(*z[list(perm)])).ratio
            assert abs(val - base) <= 1e-12 * max(1.0, base)

    def test_unimodular_affine_invariance(self, rng):
        for _ in range(10):
            curve = random_curve(rng, 4)
            if torsion_triple(curve).degenerate:
                continue
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            det = np.linalg.det(m)
            if abs(det) < 1e-3:
                continue
            m = m / det ** (1 / 3)
            moved = affine_apply(curve, m)
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            a = geometric_ratio(curve, Triple(*z)).ratio
            b = geometric_ratio(moved, Triple(*z)).ratio
            assert abs(a - b) <= 1e-8 * max(1.0, a)

    @pytest.mark.parametrize("s", [2.0, 0.5, 1j])
    def test_parameter_scaling_invariance(self, s, rng):
        curve = random_curve(np.random.default_rng(5), 4)
        scaled = CurveGamma.from_components(
            *(ComplexPolynomial(c.coeffs * s ** np.arange(c.coeffs.size))
              for c in curve.components)
        )
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        a = geometric_ratio(curve, Triple(*z)).ratio
        b = geometric_ratio(scaled, Triple(*(z / s))).ratio
        assert abs(a - b) <= 1e-8 * max(1.0, a)


class TestVerifyRegion:
    def test_moment_constant_ratio(self, suite_reports):
        curve, tt, rep = suite_reports["moment"]
        region = rep.regions[0]
        report = verify_region(curve, region, region.sigma, 1000, seed=99, tt=tt)
        assert abs(report.min_ratio - 0.5) < 1e-9
        assert abs(report.median_ratio - 0.5) < 1e-9
        assert abs(report.max_ratio - 0.5) < 1e-9
        assert report.min_ratio <= report.median_ratio <= report.max_ratio

    def test_requires_positive_n(self, suite_reports):
        curve, tt, rep = suite_reports["moment"]
        with pytest.raises(ValueError):
            verify_region(curve, rep.regions[0], rep.regions[0].sigma, 0, seed=1)

    def test_deterministic(self, suite_reports):
        curve, tt, rep = suite_reports["z2z4"]
        region = rep.regions[0]
        a = verify_region(curve, region, region.sigma, 500, seed=7, tt=tt)
        b = verify_region(curve, region, region.sigma, 500, seed=7, tt=tt)
        assert a == b

    def test_regression_pinned_floor(self, suite_reports):
        # regression pin from the first audited run of this configuration
        curve, tt, rep = suite_reports["z2z4"]
        region = rep.regions[0]
        seed = int(np.random.default_rng([4, 0]).integers(2**31))
        report = verify_region(curve, region, region.sigma, 10000, seed, tt=tt)
        assert report.min_ratio > 0
        assert abs(report.min_ratio - 0.49950644518007264) < 1e-9
        assert report.worst_witness.ratio == report.min_ratio

    def test_inadmissible_refused_without_flag(self, suite_reports):
        from curvetorsion import SigmaExponents

        curve, tt, rep = suite_reports["z2z4"]
        bad = SigmaExponents("T10", 0, 1, 0, (1, -2, 1))
        with pytest.raises(ValueError):
            verify_region(curve, rep.regions[0], bad, 10, seed=1)
        rep2 = verify_region(curve, rep.regions[0], bad, 10, seed=1, exploratory=True)
        assert rep2.exploratory


def triple_integral_bound_check(t, q):
    """Nested modulus integral against the pairwise-distance product.

    lhs integrates |w2 - w1| over the two outer segments with moduli kept
    inside; rhs is the product of the three pairwise distances.  Returns
    (lhs, rhs, ratio) with ratio = lhs / rhs (inf when rhs vanishes but lhs
    does not, 0 when both vanish).
    """
    z1, z2, z3 = map(complex, t)
    _, wt, w1, w2 = jacobian._outer_segments(z1, z2, z3, q.nodes_per_segment)
    block = np.abs(w2[None, :] - w1[:, None])
    inner = abs(z3 - z2) * np.tensordot(block, wt, axes=([1], [0]))
    lhs = abs(z2 - z1) * float(np.dot(wt, inner))
    rhs = abs(z3 - z1) * abs(z3 - z2) * abs(z2 - z1)
    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = math.inf if lhs > 0.0 else 0.0
    return lhs, rhs, ratio


class TestTripleIntegralBound:
    def test_collinear_closed_form(self):
        # the integrand 1 + s - t is positive and linear, so the rule is
        # exact: the double integral is 1 and the distance product is 2
        lhs, rhs, ratio = triple_integral_bound_check(Triple(0, 1, 2), Q32)
        assert abs(lhs - 1.0) < 1e-12
        assert abs(rhs - 2.0) < 1e-12
        assert abs(ratio - 0.5) < 1e-12

    def test_right_angle_closed_form(self):
        # double integral of sqrt((1-t)^2 + s^2) over the unit square
        lhs, rhs, ratio = triple_integral_bound_check(Triple(0, 1, 1 + 1j), Q32)
        analytic = (math.sqrt(2) + math.asinh(1.0)) / 3.0
        assert abs(lhs - analytic) < 1e-6
        assert abs(ratio - analytic / math.sqrt(2)) < 1e-6

    def test_collapse_sequence_bounded(self):
        for k in range(1, 11):
            t = Triple(0.0, 1.0, 1.0 + 2.0**-k * 1j)
            _, _, ratio = triple_integral_bound_check(t, Q32)
            assert 0.05 < ratio < 20.0


class TestModulusComparability:
    def test_moment_exact(self, moment_curve):
        lhs, rhs = modulus_comparability_check(moment_curve, None, Triple(0, 1, 2), Q32)
        assert abs(lhs - 12.0) < 1e-9
        assert abs(rhs - 12.0) < 1e-9

    def test_collapsed_triple(self, moment_curve):
        lhs, rhs = modulus_comparability_check(
            moment_curve, None, Triple(1.0, 1.0, 1.0), Q32
        )
        assert lhs == 0.0 and rhs == 0.0

    def test_ratio_logged_not_asserted(self, curve_mixed, rng):
        tt = torsion_triple(curve_mixed)
        done = 0
        while done < 5:
            z = rng.normal(size=3) * 0.5 + 1j * rng.normal(size=3) * 0.5 + 2.0
            try:
                lhs, rhs = modulus_comparability_check(
                    curve_mixed, None, Triple(*z), Q32, tt=tt
                )
            except Exception:
                continue
            if rhs > 0:
                assert 0 < lhs / rhs < 10.0
                done += 1


class _FixedSamples:
    """A region stand-in whose samples are given, duplicates included."""

    region_id = "fixed"

    def __init__(self, pts):
        self.pts = np.asarray(pts, dtype=np.complex128)

    def sample(self, n, rng):
        assert n == self.pts.size
        return self.pts.copy()


def test_verify_region_excludes_coincident_triples(suite_reports):
    # L3 = 12 on the moment curve, so only the coincident pairs are excluded
    curve, tt, rep = suite_reports["moment"]
    pts = [3, 3, 1j,  0, 1, 2j,  1j, 2, 1j,  5, 5, 5,  -1, 1 + 1j, 2]
    report = verify_region(curve, _FixedSamples(pts), rep.regions[0].sigma, 5, seed=0)
    assert report.excluded_count == 3
    assert report.worst_witness.triple in (Triple(0j, 1 + 0j, 2j), Triple(-1 + 0j, 1 + 1j, 2 + 0j))
    assert report.min_ratio == report.worst_witness.ratio
    assert abs(report.min_ratio - 0.5) < 1e-12 and abs(report.max_ratio - 0.5) < 1e-12


def test_verify_region_excludes_torsion_at_rounding_level(suite_reports):
    # the same triples through the region verifier: only the one at 0 goes
    curve = ROUNDED_ZERO_CURVE
    pts = [0, 1j, 2j,  0.5, 1j, 2j]
    sig = suite_reports["moment"][2].regions[0].sigma
    report = verify_region(curve, _FixedSamples(pts), sig, 2, seed=0)
    assert report.excluded_count == 1
    assert report.worst_witness.triple == Triple(0.5 + 0j, 1j, 2j)
