import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial import legendre

from curvetorsion import (
    NonConvergence,
    QuadratureSpec,
    SegmentHitsSingularity,
    Triple,
    jacobian_direct,
    jacobian_identity_trials,
    jacobian_integral,
    torsion_triple,
)

from curvetorsion import jacobian, polynomials
from curvetorsion.curves import CurveGamma

from conftest import poly, random_curve


def vandermonde(t):
    return (t.z2 - t.z1) * (t.z3 - t.z1) * (t.z3 - t.z2)


class TestQuadratureSpec:
    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_segment=3)


class TestJacobianDirect:
    def test_moment_closed_form(self, moment_curve):
        t = Triple(0, 1, 2)
        assert abs(jacobian_direct(moment_curve, t) - 12) < 1e-12
        assert abs(jacobian_direct(moment_curve, t) - 6 * vandermonde(t)) < 1e-12

    def test_moment_vandermonde_identity(self, moment_curve, rng):
        for _ in range(200):
            z = rng.normal(size=3) * 2 + 1j * rng.normal(size=3) * 2
            t = Triple(*z)
            j = jacobian_direct(moment_curve, t)
            v = 6 * vandermonde(t)
            assert abs(j - v) <= 1e-12 * max(1.0, abs(v))

    def test_repeated_point_vanishes(self, curve_mixed):
        assert jacobian_direct(curve_mixed, Triple(0.5j, 0.5j, 1.0)) == 0

    def test_normalized_curve_half_vandermonde(self, normalized_curve):
        # cofactor oracle: the third derivative row is z^2/2, so the
        # determinant is half the Vandermonde product
        t = Triple(0, 1, 2)
        j = jacobian_direct(normalized_curve, t)
        assert abs(j - 1.0) < 1e-12
        assert abs(j - 0.5 * vandermonde(t)) < 1e-12

    def test_exact_antisymmetry_under_first_swap(self, curve_mixed, rng):
        for _ in range(50):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            a = jacobian_direct(curve_mixed, Triple(z[0], z[1], z[2]))
            b = jacobian_direct(curve_mixed, Triple(z[1], z[0], z[2]))
            assert a == -b


class TestJacobianIntegral:
    def test_moment_exact(self, moment_curve):
        q = QuadratureSpec(nodes_per_segment=16)
        val = jacobian_integral(moment_curve, Triple(0, 1, 2), q)
        assert abs(val - 12) <= 1e-10 * 12

    def test_collapsed_segment_zero(self, moment_curve):
        q = QuadratureSpec(nodes_per_segment=16)
        val = jacobian_integral(moment_curve, Triple(0.3, 1 + 1j, 1 + 1j), q)
        assert abs(val) < 1e-12

    def test_random_curve_identity(self, rng):
        q = QuadratureSpec(nodes_per_segment=16)
        curve = random_curve(rng, 4)
        tt = torsion_triple(curve)
        found = 0
        while found < 5:
            pts = rng.uniform(-1, 1, 6)
            t = Triple(complex(pts[0], pts[1]), complex(pts[2], pts[3]),
                       complex(pts[4], pts[5]))
            try:
                val = jacobian_integral(curve, t, q, singularity_margin=0.3, tt=tt)
            except (SegmentHitsSingularity, NonConvergence):
                continue
            direct = jacobian_direct(curve, t)
            assert abs(val - direct) <= 1e-6 * max(1.0, abs(direct))
            found += 1

    def test_quadrature_convergence_polynomial_case(self, curve_z2z4):
        # constant L1, L2 make the integrand a polynomial: node counts at
        # 6N and above integrate it exactly
        from curvetorsion.jacobian import _nested_quadrature

        tt = torsion_triple(curve_z2z4)
        t = Triple(0.3 + 0.2j, -0.5, 1.1 - 0.4j)
        n = 6 * curve_z2z4.degree_bound
        a = _nested_quadrature(tt, t, n)
        b = _nested_quadrature(tt, t, 2 * n)
        assert abs(a - b) <= 1e-8 * max(abs(b), 1e-12)

    def test_degenerate_collapse_linear(self, moment_curve):
        # J = 6 (z2-z1)(z3-z1)(z3-z2), so |J| / |z3-z2| tends to 6 here
        q = QuadratureSpec(nodes_per_segment=8)
        for k in range(1, 9):
            h = 2.0**-k
            val = jacobian_integral(moment_curve, Triple(0.0, 1.0, 1.0 + h * 1j), q)
            assert 5.0 < abs(val) / h < 10.0

    def test_segment_hits_singularity(self, curve_z3z5):
        # L2 = 6z vanishes at 0, which lies on the segment [-1, 1]
        q = QuadratureSpec(nodes_per_segment=8)
        with pytest.raises(SegmentHitsSingularity):
            jacobian_integral(curve_z3z5, Triple(-1.0, 1.0, 0.5j), q)

    def test_singular_points_cached_on_triple(self, curve_z3z5):
        tt = torsion_triple(curve_z3z5)
        pts = tt.singular_points
        assert pts is tt.singular_points
        assert len(pts) == 1 and abs(pts[0]) < 1e-12  # L1 = 1, L2 = 6z

    def test_identically_zero_denominator(self):
        # a constant first component makes L1 = P1' vanish identically
        curve = CurveGamma.from_components(poly(1), poly(0, 0, 1), poly(0, 0, 0, 1))
        tt = torsion_triple(curve)
        q = QuadratureSpec(nodes_per_segment=8)
        for _ in range(2):
            with pytest.raises(SegmentHitsSingularity,
                               match="an integrand denominator polynomial vanishes identically"):
                jacobian_integral(curve, Triple(0.0, 1.0, 1j), q, tt=tt)

    def test_identity_trials_clean_curve(self, moment_curve):
        res = jacobian_identity_trials(moment_curve, 50, seed=3)
        assert res["passes"] == 50 and res["failures"] == 0
        assert res["worst_relative_deviation"] < 1e-10


def reference_identity_trials(curve, n_trials, seed, *, margin=0.3):
    """``jacobian_identity_trials`` one attempt at a time: a draw of 6
    values and the scalar exclusion test inside ``jacobian_integral``."""
    tt = curve.torsion
    rng = np.random.default_rng(seed)
    q = QuadratureSpec(nodes_per_segment=12)
    passes = failures = excluded = attempts = 0
    worst = 0.0
    while passes + failures < n_trials and attempts < 300 * n_trials:
        attempts += 1
        pts = rng.uniform(-1.0, 1.0, 6)
        t = Triple(complex(pts[0], pts[1]), complex(pts[2], pts[3]),
                   complex(pts[4], pts[5]))
        try:
            integral = jacobian_integral(curve, t, q, singularity_margin=margin,
                                         abs_tol=0.1 * jacobian._IDENTITY_TOL,
                                         max_doublings=5, tt=tt)
        except (SegmentHitsSingularity, NonConvergence):
            excluded += 1
            continue
        direct = jacobian_direct(curve, t)
        dev = abs(integral - direct) / max(1.0, abs(direct))
        worst = max(worst, dev)
        if dev <= jacobian._IDENTITY_TOL:
            passes += 1
        else:
            failures += 1
    return {"trials": passes + failures, "passes": passes, "failures": failures,
            "excluded_count": excluded, "worst_relative_deviation": worst}


def _cubic(seed):
    rng = np.random.default_rng(seed)
    while True:
        curve = random_curve(rng, 3)
        if not torsion_triple(curve).degenerate:
            return curve


class TestScreenedIdentityTrials:
    """Drawing attempts in blocks and screening them in one vector pass
    gives exactly the per-attempt loop's result."""

    @pytest.mark.parametrize("name", ["mixed", "z3z5", "cubic0", "cubic1", "cubic2"])
    def test_equals_per_attempt_loop(self, name, monkeypatch, curve_mixed, curve_z3z5):
        curve = {"mixed": curve_mixed, "z3z5": curve_z3z5}.get(name) or _cubic(int(name[-1]))
        expected = reference_identity_trials(curve, 12, seed=5)
        assert expected["excluded_count"] > 0
        for block in (1, 7, jacobian._TRIAL_BLOCK):
            monkeypatch.setattr(jacobian, "_TRIAL_BLOCK", block)
            got = jacobian_identity_trials(curve, 12, seed=5)
            assert got == expected
            assert (got["worst_relative_deviation"].hex()
                    == expected["worst_relative_deviation"].hex())

    @pytest.mark.parametrize("block", [1, 7, jacobian._TRIAL_BLOCK])
    @pytest.mark.parametrize("case", ["margin 10", "L1 vanishes"])
    def test_all_excluded_stops_at_attempt_cap(self, case, block, monkeypatch, curve_mixed):
        # with L1 identically zero there are no poles to screen with, and
        # check_triple_clear raises on every draw
        curve, margin = {
            "margin 10": (curve_mixed, 10.0),
            "L1 vanishes": (CurveGamma.from_components(poly(1), poly(0, 0, 1),
                                                       poly(0, 0, 0, 1)), 0.3),
        }[case]
        monkeypatch.setattr(jacobian, "_TRIAL_BLOCK", block)
        n = 3
        got = jacobian_identity_trials(curve, n, seed=1, margin=margin)
        assert got == reference_identity_trials(curve, n, seed=1, margin=margin)
        assert got["excluded_count"] == 300 * n and got["trials"] == 0

    def test_no_quadrature_without_poles(self, monkeypatch):
        # L1 vanishes identically, so every draw would be excluded
        calls = Counter()
        real = jacobian.jacobian_integral

        def counting(*args, **kwargs):
            calls["integral"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(jacobian, "jacobian_integral", counting)
        curve = CurveGamma.from_components(poly(1), poly(0, 0, 1), poly(0, 0, 0, 1))
        got = jacobian_identity_trials(curve, 3, seed=1)
        assert calls["integral"] == 0
        assert got == {"trials": 0, "passes": 0, "failures": 0,
                       "excluded_count": 900, "worst_relative_deviation": 0.0}

    def test_each_rule_built_once(self, monkeypatch, curve_mixed):
        built = Counter()
        real = legendre.leggauss

        def counting(n):
            built[n] += 1
            return real(n)

        monkeypatch.setattr(legendre, "leggauss", counting)
        polynomials.gauss_legendre.cache_clear()
        try:
            for seed in (7, 8):
                jacobian_identity_trials(curve_mixed, 10, seed)
        finally:
            polynomials.gauss_legendre.cache_clear()
        assert {12, 24} <= set(built)
        assert set(built.values()) == {1}


def whole_grid_quadrature(tt, t, n, modulus=False):
    """``_nested_quadrature`` with the whole n x n x n grid built at once."""
    f = abs if modulus else (lambda v: v)
    z1, z2, z3 = map(complex, t)
    tau, wt, w1, w2 = jacobian._outer_segments(z1, z2, z3, n)

    L1, L2, L3 = tt.L1, tt.L2, tt.L3
    r2_w1 = f(np.asarray(L2(w1))) / f(np.asarray(L1(w1))) ** 2
    r2_w2 = f(np.asarray(L2(w2))) / f(np.asarray(L1(w2))) ** 2

    seg = w2[None, :] - w1[:, None]
    y = w1[:, None, None] + seg[:, :, None] * tau[None, None, :]
    r3 = f(np.asarray(L1(y))) * f(np.asarray(L3(y))) / f(np.asarray(L2(y))) ** 2
    inner = f(seg) * np.tensordot(r3, wt, axes=([2], [0]))

    mid = f(z3 - z2) * np.tensordot(inner * r2_w2[None, :], wt, axes=([1], [0]))
    outer = f(z2 - z1) * np.dot(wt, r2_w1 * mid)
    lead = f(complex(L1(z1))) * f(complex(L1(z2))) * f(complex(L1(z3)))
    return float(lead * outer) if modulus else complex(lead * outer)


def _clear_triples(tt, seed, count, margin=0.1):
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        t = Triple(*rng.uniform(-1.0, 1.0, 6).view(np.complex128).tolist())
        try:
            jacobian.check_triple_clear(tt, t, margin)
        except SegmentHitsSingularity:
            continue
        found.append(t)
    return found


def _bits(value):
    return value.hex() if isinstance(value, float) else repr(value)


class TestSlabbedQuadrature:
    """Building the innermost integrand in slabs of whole i-planes gives
    the whole grid's bytes on both paths."""

    @pytest.mark.parametrize("name", ["mixed", "z3z5", "cubic0", "cubic1", "cubic2"])
    def test_equals_whole_grid(self, name, monkeypatch, curve_mixed, curve_z3z5):
        curve = {"mixed": curve_mixed, "z3z5": curve_z3z5}.get(name) or _cubic(int(name[-1]))
        tt = curve.torsion
        for t in _clear_triples(tt, seed=11, count=2):
            for n in (5, 12, 16, 21, 32, 45, 64):
                for modulus in (False, True):
                    expected = _bits(whole_grid_quadrature(tt, t, n, modulus))
                    for slab in (1, 1000, 4096):
                        monkeypatch.setattr(jacobian, "_SLAB_POINTS", slab)
                        got = jacobian._nested_quadrature(tt, t, n, modulus)
                        assert _bits(got) == expected, (t, n, modulus, slab)

    @pytest.mark.parametrize("modulus", [False, True])
    def test_memory_per_pass(self, modulus):
        # The whole n = 128 grid held 134.5 MB (117.7 MB on the modulus
        # path); a slab of one plane holds about 2 MB.
        tt = _cubic(0).torsion
        t = _clear_triples(tt, seed=3, count=1, margin=0.3)[0]
        jacobian._nested_quadrature(tt, t, 16, modulus)
        tracemalloc.start()
        try:
            jacobian._nested_quadrature(tt, t, 128, modulus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
