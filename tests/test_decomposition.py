import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvetorsion import (
    ApertureTooWide,
    EpsNotDivisor,
    SigmaExponents,
    admissible,
    affine_retry,
    classify_regions,
    torsion_triple,
)
from curvetorsion import curves, decomposition, polynomials, reports
from curvetorsion.curves import CurveGamma
from curvetorsion.decomposition import (
    Comparability,
    DegenerateTorsion,
    Region,
)
from curvetorsion.geometry import (
    clip_halfplane,
    dedupe_vertices,
    minimal_arc,
    point_in_polygon,
)
from curvetorsion.polynomials import ComplexPolynomial, roots

from conftest import from_roots, poly, random_curve, validate

EPS16 = 2 * math.pi / 112  # aperture pi/56, a divisor of 2*pi below pi/8
# (z + z^2, z^3, -100 z^2): its first classification has inadmissible regions.
RETRY_CURVE = CurveGamma.from_components(poly(0, 1, 1), poly(0, 0, 0, 1), poly(0, 0, -100))


def full_walk(tt, eps):
    """(regions, ctx, polys): every region of the classification walk, with
    its context and the trimmed L1, L2, L3."""
    ctx, polys = decomposition._setup_walk(tt, eps)
    return list(decomposition._walk(ctx, polys)), ctx, polys


def region_points(region, n, seed=0):
    return region.sample(n, np.random.default_rng(seed))


def is_convex(poly, tol=0.0):
    """All consecutive edge cross products share one sign (up to tol)."""
    n = len(poly)
    if n < 3:
        return False
    sign = 0
    for i in range(n):
        u = poly[(i + 1) % n] - poly[i]
        w = poly[(i + 2) % n] - poly[(i + 1) % n]
        cr = (np.conj(u) * w).imag
        if abs(cr) <= tol:
            continue
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def context(*polys, eps=EPS16):
    """A decomposition context cutting by the roots of each trimmed
    polynomial; with none its working radius is 10."""
    return decomposition._Context.create(
        {q: roots(q) for q in polys}, eps, decomposition._validate_eps(eps))


def sector_cell(ctx, center, theta_range, radial_range):
    """One convexified annular sector cut from the context's square."""
    return decomposition._build_region(
        center, theta_range, radial_range,
        working_half_width=ctx.half_width, clipped=ctx.square)


def d1_cells(q, domain=None, ctx=None):
    """The first decomposition's (region, Comparability) cells of q."""
    return list(decomposition._d1_cells(q, domain, ctx or context(q), "d1:"))


class TestD1:
    def test_pure_power(self):
        q = poly(0, 0, 0, 1)  # z^3
        cells = d1_cells(q)
        assert len(cells) == 112
        for region, comp in cells:
            assert comp.center == 0
            assert comp.k == 3
            assert comp.c == 1.0
            pts = region_points(region, 50)
            assert np.allclose(np.abs(q(pts)), np.abs(pts) ** 3, rtol=1e-12)

    def test_two_roots_near_layer(self):
        q = poly(0, -10, 1)  # z(z - 10)
        cells = d1_cells(q)
        near = [(r, c) for r, c in cells if c.center == 0 and c.k == 1]
        assert near and all(abs(c.c - 10.0) < 1e-9 for _, c in near)
        for region, _ in near[:8]:
            pts = region_points(region, 200)
            pts = pts[np.abs(pts) <= 5.0]
            if pts.size == 0:
                continue
            ratio = np.abs(q(pts)) / (10.0 * np.abs(pts))
            assert np.all(ratio >= 0.5 - 1e-9) and np.all(ratio <= 1.5 + 1e-9)

    def test_two_roots_far_layer(self):
        q = poly(0, -10, 1)
        cells = d1_cells(q)
        far = [(r, c) for r, c in cells if c.k == 2]
        assert far and all(c.c == 1.0 for _, c in far)
        for region, comp in far[:8]:
            pts = region_points(region, 400)
            pts = pts[np.abs(pts - comp.center) >= 20.0]
            if pts.size == 0:
                continue
            ratio = np.abs(q(pts)) / np.abs(pts - comp.center) ** 2
            assert np.all(ratio >= 0.5 - 1e-9) and np.all(ratio <= 2.0 + 1e-9)

    def test_eps_not_divisor(self):
        with pytest.raises(EpsNotDivisor):
            decomposition._validate_eps(1.0)
        # 2 pi / 1e-9 = 6,283,185,307.18: a relative 1e-9 alone would pass it.
        with pytest.raises(EpsNotDivisor):
            decomposition._validate_eps(1e-9)
        assert decomposition._validate_eps(decomposition.TAU / 10**9) == 10**9

    def test_coverage(self):
        q = poly(0, -10, 1)
        cells = d1_cells(q)
        rng = np.random.default_rng(1)
        zs = 30 * (rng.random(2000) * np.exp(2j * np.pi * rng.random(2000)))
        covered = np.zeros(zs.shape, bool)
        for region, _ in cells:
            covered |= region.contains(zs)
        assert covered.all()


def d2_cells(q, b):
    """The second decomposition's (region, kind, Comparability) pieces of
    q around b, on the sector (0, pi/16) at b."""
    ctx = context(q)
    domain = sector_cell(ctx, b, (0.0, math.pi / 16), (0.0, math.inf))
    return list(decomposition._d2_cells(q, b, domain, ctx, "d2:"))


class TestD2:
    def test_pure_power_at_own_root(self):
        b = 1.5 + 0.5j
        q = from_roots(1.0, [(b, 3)])
        cells = d2_cells(q, b)
        assert len(cells) == 1
        _, kind, comp = cells[0]
        assert kind == "gap" and comp.k == 3 and abs(comp.c - 1) < 1e-12

    def test_missing_coefficient_skips_gap_exponent(self):
        # Q(z + b) = z^2 + 1 has no linear term: no gap carries exponent 1
        b = 2.0
        q = from_roots(1.0, [(b + 1j, 1), (b - 1j, 1)])
        cells = d2_cells(q, b)
        gap_exponents = {c.k for _, kind, c in cells if kind == "gap"}
        assert 1 not in gap_exponents
        assert gap_exponents <= {0, 2}

    def test_gap_and_dyadic_structure(self):
        q = poly(0, -1, 1)  # z(z - 1)
        cells = d2_cells(q, 0.0)
        kinds = [(kind, c.k) for _, kind, c in cells]
        assert ("gap", 1) in kinds  # inside the unit radius
        assert ("gap", 2) in kinds  # outside
        assert any(k == "dyadic" for k, _ in kinds)
        for region, kind, comp in cells:
            if kind != "gap":
                continue
            pts = region_points(region, 300)
            denom = comp.c * np.abs(pts) ** comp.k
            ratio = np.abs(q(pts)) / denom
            assert np.all(ratio > 0.2) and np.all(ratio < 5.0)


class TestConvexify:
    def test_disk_sector_triangle(self):
        region = sector_cell(context(), 1j, (0.1, 0.1 + math.pi / 16), (0.0, 2.0))
        assert len(region.polygon) == 3
        assert any(abs(v - 1j) < 1e-9 for v in region.polygon)
        assert is_convex(region.polygon)

    def test_trapezoid_and_containment(self):
        theta = (0.3, 0.3 + math.pi / 16)
        region = sector_cell(context(), 0.0, theta, (1.0, 2.0))
        assert len(region.polygon) == 4
        rng = np.random.default_rng(0)
        r = np.sqrt(rng.uniform(1.0, 4.0, 1000))
        th = rng.uniform(*theta, 1000)
        cell_points = r * np.exp(1j * th)
        assert point_in_polygon(cell_points, region.polygon, tol=1e-9).all()
        # vertices stay within the thickened radii and the sector slack
        B = decomposition.THICKENING
        for v in region.polygon:
            assert 1.0 / B - 1e-12 <= abs(v) <= 2.0 * B + 1e-12

    def test_unbounded_tail(self):
        region = sector_cell(context(), 0.0, (0.0, math.pi / 16), (1.0, math.inf))
        assert region.polygon == ()
        assert region.unbounded
        assert region.radial_range[1] == math.inf
        assert region.sampling_polygon  # truncation for sampling only

    def test_aperture_too_wide(self):
        with pytest.raises(ApertureTooWide):
            sector_cell(context(), 0.0, (0.0, math.pi / 4), (1.0, 2.0))


class TestSigmaTable:
    def test_rows(self):
        assert SigmaExponents.from_exponents("T00", 3, 1, 2).sigma == (1, 0, 3 + 1 - 4)
        assert SigmaExponents.from_exponents("T01", 5, 0, 2).sigma == (0, 2, -4)
        assert SigmaExponents.from_exponents("T10", 0, 2, 1).sigma == (2, 1 - 4, 2 - 2)
        assert SigmaExponents.from_exponents("T11", 0, 0, 3).sigma == (0, 3, -6)

    def test_rows_match_branches(self):
        def branches(region_type, k, k_sub, k_mid):
            if region_type == "T00":
                return (k_sub, k_mid - 2 * k_sub, k + k_sub - 2 * k_mid)
            if region_type == "T10":
                return (k_sub, k_mid - 2 * k_sub, k_sub - 2 * k_mid)
            return (0, k_mid, -2 * k_mid)

        for region_type in decomposition.REGION_TYPES:
            for k, k_sub, k_mid in itertools.product(range(4), range(4), range(4)):
                assert (SigmaExponents.table(region_type, k, k_sub, k_mid)
                        == branches(region_type, k, k_sub, k_mid))
        with pytest.raises(ValueError, match="unknown region type"):
            SigmaExponents.table("T02", 0, 0, 0)

    def test_admissible_examples(self):
        assert admissible(SigmaExponents.from_exponents("T11", 0, 0, 0))
        sig = SigmaExponents("T10", 0, 0, 0, (0, 0, -1))
        assert not admissible(sig)
        sig2 = SigmaExponents("T10", 0, 0, 0, (0, -1, 0))
        assert not admissible(sig2)

    def test_band_boundaries(self):
        # sigma2 + sigma3/2 exactly 0 is admissible; exactly -2 is not
        assert admissible(SigmaExponents("T11", 0, 0, 1, (0, 1, -2)))
        assert not admissible(SigmaExponents("T10", 0, 0, 0, (1, -2, 0)))


@pytest.fixture(scope="module")
def random_cubic():
    """(curve, triple, report) of the seed-0 random cubic, classified once
    for the module: 10,853 regions."""
    curve = random_curve(np.random.default_rng(0), 3)
    tt = torsion_triple(curve)
    return curve, tt, classify_regions(tt)


class TestClassify:
    def test_moment_single_region(self, suite_reports):
        _, _, rep = suite_reports["moment"]
        assert rep.region_count == 1
        region = rep.regions[0]
        assert region.region_type == "T11"
        assert region.sigma.sigma == (0, 0, 0)
        assert region.sigma.k == 0 and region.sigma.k_mid == 0

    def test_z2z4_structure(self, suite_reports):
        _, tt, rep = suite_reports["z2z4"]
        # L1 and L2 are constants, so every region classifies on the
        # constant side; the torsion exponent k = 1 is carried in the
        # comparability data (L3 = 48 z).
        assert {r.region_type for r in rep.regions} == {"T11"}
        for r in rep.regions:
            assert r.sigma.sigma == (0, 0, 0)
            center, k, c = r.comparability["L3"]
            assert center == 0 and k == 1 and abs(c - 48.0) < 1e-9

    def test_z3z5_structure(self, suite_reports):
        _, _, rep = suite_reports["z3z5"]
        assert {r.region_type for r in rep.regions} == {"T10"}
        for r in rep.regions:
            assert r.sigma.sigma == (0, 1, -2)
            assert admissible(r.sigma)
            center, k, c = r.comparability["L3"]
            assert k == 3 and abs(c - 240.0) < 1e-9

    def test_sigma_table_consistency(self, suite_reports):
        for name, (_, _, rep) in suite_reports.items():
            for r in rep.regions:
                assert r.sigma.consistent()

    def test_degenerate_raises(self):
        curve = CurveGamma.from_components(poly(0, 1), poly(0, 0, 1), poly(0))
        with pytest.raises(DegenerateTorsion):
            classify_regions(torsion_triple(curve))

    def test_region_ids_unique(self, suite_reports):
        # The D1 cells of each dyadic piece carry the piece's id, so cells
        # of different pieces at the same vertex, sector and layer differ.
        for name, (_, _, rep) in suite_reports.items():
            ids = [r.region_id for r in rep.regions]
            assert len(set(ids)) == len(ids), name
            # Roots stay logged once per polynomial role, not per piece.
            assert not any("|" in key for key in rep.root_info), name

    def test_region_budget_and_count(self, suite_reports):
        for name, (_, _, rep) in suite_reports.items():
            assert rep.region_count <= decomposition.REGION_BUDGET

    def test_polygons_convex(self, suite_reports):
        _, _, rep = suite_reports["mixed"]
        for r in rep.regions[:300]:
            if r.polygon:
                assert is_convex(r.polygon, tol=1e-12)

    def test_polygon_vertex_invariants(self, suite_reports):
        # vertices stay within the thickened radii and the sector slack
        _, _, rep = suite_reports["mixed"]
        eps = rep.epsilon_used
        for r in rep.regions[:400]:
            if not r.polygon or r.theta_range is None:
                continue
            lo, hi = r.radial_range
            t0, t1 = r.theta_range
            # Walk cells are built with THICKENING, refinement children
            # with the smallest thickening their aperture tolerates.
            B = (decomposition.THICKENING if r.depth == 0
                 else decomposition._child_thickening(r.theta_range))
            for v in r.polygon:
                d = abs(v - r.center)
                assert d >= lo / B - 1e-9 * (1 + lo)
                if math.isfinite(hi):
                    assert d <= hi * B + 1e-9 * (1 + hi)
                if d > 1e-12:
                    rel = (np.angle(v - r.center) - t0) % (2 * math.pi)
                    assert rel <= (t1 - t0) + eps + 1e-9 or rel >= 2 * math.pi - eps - 1e-9

    def test_d1_within_domain_region(self):
        q = poly(2, -3, 1)  # (z-1)(z-2)
        ctx = context(q)
        domain = sector_cell(ctx, 0.0, (0.0, math.pi / 16), (0.5, 4.0))
        cells = d1_cells(q, ctx=ctx)
        clipped = d1_cells(q, domain, ctx)
        assert 0 < len(clipped) < len(cells)
        for region, _ in clipped:
            pts = region_points(region, 100)
            assert domain.contains(pts).all()

    def test_coverage_sampled(self, suite_reports):
        rng = np.random.default_rng(11)
        for name, (_, _, rep) in suite_reports.items():
            zs = 10.0 * np.sqrt(rng.random(2000)) * np.exp(2j * np.pi * rng.random(2000))
            covered = np.zeros(zs.shape, bool)
            for r in rep.regions:
                covered |= r.contains(zs)
                if covered.all():
                    break
            assert covered.all(), f"{name}: {np.count_nonzero(~covered)} uncovered"

    def test_coverage_on_a_random_cubic(self, random_cubic):
        _, _, rep = random_cubic
        rng = np.random.default_rng(12)
        zs = rep.working_radius * np.sqrt(rng.random(4000)) * np.exp(2j * np.pi * rng.random(4000))
        covered = np.zeros(zs.shape, bool)
        for r in rep.regions:
            covered[~covered] = r.contains(zs[~covered])
            if covered.all():
                break
        assert covered.all(), f"{np.count_nonzero(~covered)} of {zs.size} uncovered"

    def test_scaled_curve_classifies_as_the_curve(self, suite_reports):
        # Scaling the curve by a power of two scales L1, L2, L3 and the
        # rounding bound of L3 exactly, so the cut of the plane is the same.
        curve, _, rep = suite_reports["mixed"]
        small = CurveGamma.from_components(*(2.0**-14 * c for c in curve.components))
        scaled = classify_regions(torsion_triple(small))
        assert [r.region_id for r in scaled.regions] == [r.region_id for r in rep.regions]
        assert [r.sampling_polygon for r in scaled.regions] == [
            r.sampling_polygon for r in rep.regions]
        assert [r.apertures for r in scaled.regions] == [r.apertures for r in rep.regions]

    def test_comparability_fresh_samples_within_bound(self, suite_reports, random_cubic):
        for _, tt, rep in [*suite_reports.values(), random_cubic]:
            polys = {"L1": tt.L1, "L2": tt.L2, "L3": tt.L3}
            step = max(1, rep.region_count // 60)
            for i, r in enumerate(rep.regions[::step]):
                pts = r.sample(500, np.random.default_rng([321, i]))
                for nm, (center, k, c) in r.comparability.items():
                    stats = r.comparability_stats.get(nm, {})
                    if "ratio_bound" not in stats:
                        continue
                    ratio = np.abs(np.asarray(polys[nm](pts))) / (
                        c * np.abs(pts - center) ** k
                    )
                    ratio = ratio[np.isfinite(ratio) & (ratio > 0)]
                    assert ratio.max() <= stats["ratio_bound"]
                    assert ratio.min() >= 1.0 / stats["ratio_bound"]


class TestClassifyWalk:
    def test_roots_once_per_distinct_polynomial(self, monkeypatch, curve_z3z5):
        # classify_regions and singular_points share the triple's root sets
        calls = []
        real_roots = curves.roots

        def counting_roots(p, *args, **kwargs):
            calls.append(p)
            return real_roots(p, *args, **kwargs)

        monkeypatch.setattr(curves, "roots", counting_roots)
        tt = torsion_triple(curve_z3z5)
        rep = classify_regions(tt)
        assert len(tt.singular_points) == 1
        nonconstant = {p.trimmed(1e-12) for p in tt.polys() if p.trimmed(1e-12).degree >= 1}
        assert len(nonconstant) == 2
        assert len(calls) == len(nonconstant)
        assert set(calls) == nonconstant
        assert rep.root_info

    def test_walk_reads_the_trimmed_triple(self, monkeypatch, curve_mixed):
        # The triple trims its polynomials once; the walk trims nothing.
        tt = torsion_triple(curve_mixed)
        assert set(tt.root_sets) == {p for p in tt.trimmed if p.degree >= 1}
        calls = []
        real_trimmed = ComplexPolynomial.trimmed

        def counting_trimmed(p, *args):
            calls.append(p)
            return real_trimmed(p, *args)

        monkeypatch.setattr(ComplexPolynomial, "trimmed", counting_trimmed)
        _, _, polys = full_walk(tt, None)
        assert calls == []
        assert tuple(polys.values()) == tt.trimmed

    def test_no_dynamic_region_attributes(self, suite_reports):
        names = {f.name for f in dataclasses.fields(Region)}
        for curve, _, rep in suite_reports.values():
            for r in rep.regions:
                assert set(vars(r)) == names
                # derived values are read from their owners, never stored
                assert not {"region_type", "polygon", "band_scale"} & set(vars(r))
                assert r.region_type == r.sigma.region_type
                assert r.polygon == (() if r.unbounded else r.sampling_polygon)
            payload = reports.decomposition_json(rep, curve.to_json())
            assert payload["thickening_B"] == decomposition.THICKENING
            assert payload["dyadic_factor"] == decomposition.DYADIC_FACTOR
            assert payload["cluster_tol"] == polynomials.CLUSTER_TOL
            assert payload["region_budget"] == decomposition.REGION_BUDGET
            assert not any("band_scale" in r for r in payload["regions"])

    def test_all_four_types_on_retry_curve(self):
        regions, _, _ = full_walk(torsion_triple(RETRY_CURVE), math.pi / 8)
        assert {r.region_type for r in regions} == {"T00", "T01", "T10", "T11"}
        for r in regions:
            assert r.sigma.consistent()
            assert r.sigma.region_type == r.region_type
            assert list(r.comparability) == ["L3", "L1", "L2"]
            assert all(isinstance(v, Comparability) for v in r.comparability.values())
            k1 = r.comparability["L1"].k
            assert r.sigma.k_sub == (0 if r.region_type == "T01" else k1)
            assert r.sigma.k == r.comparability["L3"].k
            assert r.sigma.k_mid == r.comparability["L2"].k
        # the convention matters: some T01 region has a nonzero L1 exponent
        assert any(r.comparability["L1"].k > 0 for r in regions if r.region_type == "T01")


class TestContains:
    """``Region.contains`` is membership in the sampling polygon."""

    def test_sampled_points_inside(self, suite_reports):
        for name, (_, _, rep) in suite_reports.items():
            for i, r in enumerate(rep.regions):
                pts = r.sample(50, np.random.default_rng([77, i]))
                assert r.contains(pts).all(), (name, r.region_id)

    def test_points_beyond_each_edge_outside(self, suite_reports):
        for name, (_, _, rep) in suite_reports.items():
            for r in rep.regions:
                v = np.asarray(r.sampling_polygon)
                edge = np.roll(v, -1) - v
                # Counterclockwise, so the outward normal is -i times the edge.
                beyond = v + 0.5 * edge - 1e-6j * edge / np.abs(edge)
                assert not r.contains(beyond).any(), (name, r.region_id)


class TestClippedPolygon:
    """Children are cut from their parent's polygon only."""

    def test_clip_count_on_retry_curve(self, monkeypatch):
        calls = []
        real_clip = decomposition.clip_halfplane

        def counting_clip(poly, anchor, normal):
            calls.append(len(poly))
            return real_clip(poly, anchor, normal)

        monkeypatch.setattr(decomposition, "clip_halfplane", counting_clip)
        full_walk(torsion_triple(RETRY_CURVE), math.pi / 8)
        assert 0 < len(calls) < 8000


@pytest.fixture(scope="module")
def retry_run():
    """The retry curve classified, then retried with its refinements and
    the regions passed to the batched boundary measurement counted."""
    rep = classify_regions(torsion_triple(RETRY_CURVE))
    counts = {"refined": 0, "measured": 0}
    real_refine = decomposition._refine_regions
    real_measure = decomposition._measure

    def counting_refine(*args):
        counts["refined"] += 1
        return real_refine(*args)

    def counting_measure(regions, *args):
        counts["measured"] += len(regions)
        return real_measure(regions, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomposition, "_refine_regions", counting_refine)
        mp.setattr(decomposition, "_measure", counting_measure)
        retried = affine_retry(RETRY_CURVE, rep)
    return rep, retried, counts


class TestAffineRetry:
    def test_already_admissible_is_identity(self, suite_reports):
        curve, _, rep = suite_reports["z3z5"]
        curve2, matrix, rep2 = affine_retry(curve, rep)
        assert curve2 is curve and rep2 is rep
        assert np.array_equal(matrix, np.eye(3))

    def test_retry_removes_bad_exponents(self, retry_run):
        # L1 = 1 + 2z, L2 = 6z(1 + z), L3 = 1200: the layer around the L1
        # root classifies as type T10 with k1 = 1, which is inadmissible.
        rep, (curve2, matrix, rep2), _ = retry_run
        assert any(r.region_type == "T10" and r.sigma.k_sub == 1 for r in rep.regions)
        assert rep.inadmissible()
        accepted = rep2.excluded_exponents_log[-1]
        expected = np.eye(3)
        expected[tuple(accepted["unit"])] += accepted["delta"]
        assert np.array_equal(matrix, expected)
        assert abs(np.linalg.det(matrix)) > 1e-12
        assert not torsion_triple(curve2).degenerate
        assert not rep2.inadmissible()
        assert not any(r.region_type == "T10" and r.sigma.k_sub == 1 for r in rep2.regions)
        assert rep2.excluded_exponents_log
        assert rep2.excluded_exponents_log[-1]["outcome"] == "accepted"
        validate(reports.decomposition_json(rep2, curve2.to_json()), "decomposition.schema.json")

    def test_only_the_accepted_candidate_is_finished(self, retry_run):
        # Rejected candidates are judged on their walk regions alone.
        _, (_, _, rep2), counts = retry_run
        log = rep2.excluded_exponents_log
        assert [e["outcome"] for e in log] == ["inadmissible", "inadmissible", "accepted"]
        assert not any("inadmissible_count" in e for e in log)
        assert counts == {"refined": 1, "measured": rep2.region_count}
        assert rep2.region_count == 56

    def test_decompose_stops_each_rejected_walk_early(self, monkeypatch):
        # The curve and the two rejected candidates stop at their 4th walk
        # region, the first inadmissible one; the accepted candidate walks
        # all 56.  Walked whole, the four walks drew 14,098 regions.
        drawn = []
        real = SigmaExponents.from_exponents

        def counting(*args):
            drawn.append(args)
            return real(*args)

        monkeypatch.setattr(SigmaExponents, "from_exponents", counting)
        used, rep = decomposition.decompose(RETRY_CURVE)
        assert len(drawn) == 68
        assert rep.excluded_exponents_log[-1] == {
            "delta": 0.01, "unit": [0, 2], "outcome": "accepted"}
        assert used is not RETRY_CURVE and not rep.inadmissible()

    def test_decompose_finishes_an_admissible_walk(self, suite_reports):
        curve, _, rep = suite_reports["z3z5"]
        used, rep2 = decomposition.decompose(curve)
        assert used is curve
        assert (reports.canonical_json(reports.decomposition_json(rep2))
                == reports.canonical_json(reports.decomposition_json(rep)))

    def test_decompose_is_affine_retry_without_the_first_finish(self, retry_run):
        rep, (curve2, _, rep2), _ = retry_run
        used, rep3 = decomposition.decompose(RETRY_CURVE, seed=rep.seed)
        assert used.to_json() == curve2.to_json()
        assert (reports.canonical_json(reports.decomposition_json(rep3))
                == reports.canonical_json(reports.decomposition_json(rep2)))

    @settings(max_examples=200, deadline=None, database=None)
    @given(k=st.integers(0, 60), k_sub=st.integers(0, 60), k_mid=st.integers(0, 60),
           i=st.integers(1, 4))
    def test_excluded_exponent_families_are_inadmissible(self, k, k_sub, k_mid, i):
        # The families a retry once excluded on top of admissible(): T10 with
        # k_sub = 1 (band -1.5); T00 with 2 k_mid = k + k_sub + 1 (sigma3 =
        # -1); T00 with 3 k_sub = k + i (band -i/2).  T10 with 2 k_mid =
        # -1 - k_sub has no nonnegative member.
        sigmas = [SigmaExponents.from_exponents("T10", k, 1, k_mid)]
        if (k + k_sub) % 2:
            sigmas.append(SigmaExponents.from_exponents("T00", k, k_sub, (k + k_sub + 1) // 2))
        if 3 * k_sub >= i:
            sigmas.append(SigmaExponents.from_exponents("T00", 3 * k_sub - i, k_sub, k_mid))
        assert not any(admissible(sig) for sig in sigmas)


# Per-region references: the measurement bodies before they were batched.


def _reference_grid(region, n_samples):
    poly = region.sampling_polygon
    n = len(poly)
    per_edge = max(6, n_samples // n)
    ts = np.arange(per_edge, dtype=np.float64) / per_edge
    pts = np.concatenate([poly[i] + (poly[(i + 1) % n] - poly[i]) * ts for i in range(n)])
    return pts, 64.0 * 2.220446049250313e-16 * (np.max(np.abs(pts)) + 1e-30)


def _reference_values_above_noise(poly, pts, pos_err):
    vals = np.asarray(poly(pts))
    swing = np.abs(np.asarray(poly.derivative()(pts))) * pos_err
    noise = polynomials._eval_error_bound(poly.coeffs, pts)
    return vals, np.abs(vals) > 32.0 * noise + 8.0 * swing


def reference_apertures(region, polys):
    pts, pos_err = _reference_grid(region, decomposition._REFINE_SAMPLES)
    out = {}
    for name, poly in polys.items():
        if poly.degree <= 0:
            out[name] = 0.0
            continue
        vals, kept = _reference_values_above_noise(poly, pts, pos_err)
        nz = vals[kept]
        out[name] = 0.0 if nz.size == 0 else minimal_arc(np.angle(nz))[0]
    return out


def reference_comparability(region, polys):
    stats = {}
    pts, pos_err = _reference_grid(region, decomposition._REFINE_SAMPLES)
    for name, (center, k, c) in region.comparability.items():
        poly = polys[name]
        if c == 0.0 or poly.degree < 0:
            stats[name] = {"zero": True}
            continue
        vals, kept = _reference_values_above_noise(poly, pts, pos_err)
        vals = np.abs(vals)
        denom = c * np.abs(pts - center) ** k
        good = (denom > 0) & (np.abs(pts - center) > 4.0 * pos_err) & kept
        ratio = vals[good] / denom[good]
        ratio = ratio[np.isfinite(ratio) & (ratio > 0)]
        if ratio.size == 0:
            stats[name] = {"zero": True}
            continue
        lo, hi = float(np.min(ratio)), float(np.max(ratio))
        stats[name] = {"min_ratio": lo, "max_ratio": hi, "ratio_bound": 1.25 * max(hi, 1.0 / lo)}
    return stats


def reference_refine(regions, polys, ctx):
    """Last-in first-out refinement, one region measured at a time."""
    limits = {n: (max(p.degree, 0) + 1) * ctx.eps for n, p in polys.items()}
    out = []
    queue = list(regions)
    while queue:
        region = queue.pop()
        region.apertures = reference_apertures(region, polys)
        if not any(region.apertures[n] > decomposition._REFINE_MARGIN * b
                   for n, b in limits.items()):
            out.append(region)
            continue
        if (region.depth >= decomposition._REFINE_DEPTH_CAP
                or len(out) + len(queue) >= decomposition.REGION_BUDGET):
            region.sector_flag = True
            out.append(region)
            continue
        children = decomposition._split_region(region, ctx)
        if not children:
            region.sector_flag = True
            out.append(region)
            continue
        queue.extend(children)
    return out


def _refined(regions):
    return [(r.region_id, r.depth, r.sector_flag, r.apertures) for r in regions]


def _refine_mixed(curve):
    """The mixed curve's walk regions refined, and fresh walk regions with
    the context and polynomials for a reference run."""
    walked, ctx, polys = full_walk(curve.torsion, None)
    got = decomposition._refine_regions(walked, polys, ctx)
    return got, full_walk(curve.torsion, None)[0], ctx, polys


class TestBatchedMeasurement:
    @pytest.fixture(scope="class")
    def measured_sets(self, suite_reports, retry_run):
        """(polys, regions, reference apertures, reference stats) for every
        suite curve and for the retry curve before and after its retry;
        the regions are copies of the walk regions and the refined ones, at
        most about a thousand of each curve."""
        rep, (curve2, _, rep2), _ = retry_run
        triples = [tt for _, tt, _ in suite_reports.values()]
        triples += [torsion_triple(RETRY_CURVE), torsion_triple(curve2)]
        reports = [r for _, _, r in suite_reports.values()] + [rep, rep2]
        out = []
        for tt, report in zip(triples, reports):
            walked, _, polys = full_walk(tt, report.epsilon_used)
            regions = walked + report.regions
            regions = [dataclasses.replace(r) for r in regions[::1 + len(regions) // 1000]]
            out.append((
                polys,
                regions,
                [reference_apertures(r, polys) for r in regions],
                [reference_comparability(r, polys) for r in regions],
            ))
        return out

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_apertures_and_stats_match_per_region_reference(self, monkeypatch,
                                                            measured_sets, chunk):
        if chunk is not None:
            monkeypatch.setattr(decomposition, "_CHUNK_REGIONS", chunk)
        for polys, regions, apertures, stats in measured_sets:
            decomposition._measure(regions, polys)
            assert [r.apertures for r in regions] == apertures
            assert [r.comparability_stats for r in regions] == stats

    def test_one_grid_per_measured_region(self, monkeypatch, curve_mixed):
        # Apertures and comparability extremes come from one boundary grid,
        # so every region the refinement measures is gridded exactly once.
        measured, gridded = [], []
        real_measure = decomposition._measure
        real_grids = decomposition._boundary_grids

        def counting_measure(regions, *args):
            measured.extend(r.region_id for r in regions)
            return real_measure(regions, *args)

        def counting_grids(regions, *args):
            gridded.extend(r.region_id for r in regions)
            return real_grids(regions, *args)

        monkeypatch.setattr(decomposition, "_measure", counting_measure)
        monkeypatch.setattr(decomposition, "_boundary_grids", counting_grids)
        rep = classify_regions(torsion_triple(curve_mixed))
        assert gridded == measured
        assert len(set(measured)) == len(measured) == 4980
        assert rep.region_count == 3872

    # The mixed curve walks to 2,792 regions, 240 of them over their
    # aperture budget, and refines to 3,872.

    @pytest.mark.parametrize("budget", [300])
    def test_budget_hit_keeps_lifo_order(self, monkeypatch, curve_mixed, budget):
        # Below the walk's own region count nothing is split, and the
        # flagged walk regions come out in the reference's order.
        monkeypatch.setattr(decomposition, "REGION_BUDGET", budget)
        got, walked, ctx, polys = _refine_mixed(curve_mixed)
        assert _refined(got) == _refined(reference_refine(walked, polys, ctx))
        assert any(r.sector_flag for r in got)

    def test_budget_hit_flags_whole_level(self, monkeypatch, curve_mixed):
        # Splitting the 240 over-budget walk regions could pass 3,000
        # regions, so all of them are flagged and none is split.
        monkeypatch.setattr(decomposition, "REGION_BUDGET", 3000)
        got, *_ = _refine_mixed(curve_mixed)
        assert len(got) == 2792
        assert sum(r.sector_flag for r in got) == 240
        assert all(r.depth == 0 for r in got)

    def test_default_budget_keeps_lifo_order(self, curve_mixed):
        got, walked, ctx, polys = _refine_mixed(curve_mixed)
        assert _refined(got) == _refined(reference_refine(walked, polys, ctx))
        assert len(got) == 3872
        assert not any(r.sector_flag for r in got)


def test_empty_inputs():
    # the all-zero branch covers no coefficients, and the loops cover no
    # vertices
    zero = ComplexPolynomial([])
    assert zero.coeffs.tolist() == [0j] and zero.degree == -1
    assert zero == ComplexPolynomial([0.0, 0.0])
    assert clip_halfplane((), 1 + 1j, 1j) == ()
    assert clip_halfplane([], 0j, 1) == ()
    assert dedupe_vertices((), 1e-9) == ()
    assert dedupe_vertices([], 0.0) == ()
