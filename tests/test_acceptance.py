"""Acceptance suite: one test class per criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py -v`` to see
them).  Tolerances are fixed here, not configurable."""

import json
import math

import numpy as np
from click.testing import CliRunner

from curvetorsion import (
    BallSpec,
    GridSpec,
    MeasurableSet,
    PQPair,
    Triple,
    ball_measure_check,
    extension,
    geometric_ratio,
    jacobian_direct,
    jacobian_identity_trials,
    norm_ratio_scan,
    pairing,
    torsion_triple,
    verify_region,
    weighted_l1_mass,
)
from curvetorsion.cli import main as cli_main
from curvetorsion.decomposition import admissible
from curvetorsion.geometry import minimal_arc

from conftest import random_curve


def criterion(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {description} {detail}".rstrip())
    assert passed, f"criterion {number}: {description} {detail}"


class TestCriterion1JacobianIdentity:
    def test_integral_identity_on_random_curves(self, rng):
        import time

        start = time.time()
        worst = 0.0
        failures = 0
        for _ in range(20):
            while True:
                curve = random_curve(rng, int(rng.integers(3, 7)))
                if not torsion_triple(curve).degenerate:
                    break
            res = jacobian_identity_trials(curve, 100, int(rng.integers(2**31)))
            worst = max(worst, res["worst_relative_deviation"])
            failures += res["failures"] + (100 - res["trials"])
        elapsed = time.time() - start
        criterion(1, "jacobian integral identity on 20 curves x 100 triples",
                  failures == 0 and worst <= 1e-6,
                  f"worst={worst:.3e} elapsed={elapsed:.0f}s (target <60s)")


class TestCriterion2MomentClosedForms:
    def test_moment_curve_closed_forms(self, moment_curve, rng):
        tt = torsion_triple(moment_curve)
        ok = (
            np.allclose(tt.L1.coeffs, [1])
            and np.allclose(tt.L2.coeffs, [2])
            and np.allclose(tt.L3.coeffs, [12])
        )
        worst_j = 0.0
        worst_ratio = 0.0
        for _ in range(1000):
            z = rng.normal(size=3) * 2 + 1j * rng.normal(size=3) * 2
            t = Triple(*z)
            v = 6 * (t.z2 - t.z1) * (t.z3 - t.z1) * (t.z3 - t.z2)
            j = jacobian_direct(moment_curve, t)
            worst_j = max(worst_j, abs(j - v) / max(1e-300, abs(v)))
            worst_ratio = max(worst_ratio, abs(geometric_ratio(moment_curve, t).ratio - 0.5))
        criterion(2, "moment-curve closed forms (L=1,2,12; J=6V; ratio=1/2)",
                  ok and worst_j <= 1e-12 and worst_ratio <= 1e-9,
                  f"worst_J_dev={worst_j:.2e} worst_ratio_dev={worst_ratio:.2e}")

    def test_normalized_curve_closed_forms(self, normalized_curve, rng):
        # The stated oracle (cofactor expansion) fixes the expected values:
        # the torsion is identically 1 and J equals half the Vandermonde
        # product, so the geometric ratio is exactly 1/2, matching the
        # moment curve under the ratio's affine invariance.
        tt = torsion_triple(normalized_curve)
        ok = all(np.allclose(p.coeffs, [1]) for p in (tt.L1, tt.L2, tt.L3))
        worst = 0.0
        for _ in range(1000):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            worst = max(worst, abs(geometric_ratio(normalized_curve, Triple(*z)).ratio - 0.5))
        criterion(2, "normalized-curve closed forms (torsion=1; ratio=1/2 by the cofactor oracle)",
                  ok and worst <= 1e-9, f"worst_ratio_dev={worst:.2e}")


class TestCriterion3DecompositionSoundness:
    def test_comparability_and_sigma_consistency(self, suite_reports):
        worst_zone = None
        ok = True
        for name, (curve, tt, rep) in suite_reports.items():
            polys = {"L1": tt.L1, "L2": tt.L2, "L3": tt.L3}
            for i, region in enumerate(rep.regions):
                if not region.sigma.consistent():
                    ok, worst_zone = False, (name, region.region_id, "sigma")
                    break
                pts = region.sample(500, np.random.default_rng([888, i]))
                for lname, (center, k, c) in region.comparability.items():
                    stats = region.comparability_stats.get(lname, {})
                    if "ratio_bound" not in stats:
                        continue
                    ratio = np.abs(np.asarray(polys[lname](pts))) / (
                        c * np.abs(pts - center) ** k
                    )
                    ratio = ratio[np.isfinite(ratio) & (ratio > 0)]
                    if ratio.size and (
                        ratio.max() > stats["ratio_bound"]
                        or ratio.min() < 1.0 / stats["ratio_bound"]
                    ):
                        ok, worst_zone = False, (name, region.region_id, lname)
                        break
                if not ok:
                    break
            if not ok:
                break
        criterion(3, "comparability within logged constants and sigma-table consistency",
                  ok, f"violation={worst_zone}" if worst_zone else "")

    def test_coverage(self, suite_reports):
        rng = np.random.default_rng(2024)
        ok = True
        detail = []
        for name, (_, _, rep) in suite_reports.items():
            zs = 10.0 * np.sqrt(rng.random(10000)) * np.exp(2j * np.pi * rng.random(10000))
            covered = np.zeros(zs.shape, bool)
            for region in rep.regions:
                covered |= region.contains(zs)
                if covered.all():
                    break
            ok &= bool(covered.all())
            detail.append(f"{name}:{covered.mean():.5f}")
        criterion(3, "10^4-point coverage of the working disk", ok, " ".join(detail))


class TestCriterion4GeometricLowerBound:
    def test_positive_minimum_on_admissible_regions(self, suite_reports):
        overall_min = math.inf
        ok = True
        skipped = 0
        for name, (curve, tt, rep) in suite_reports.items():
            for i, region in enumerate(rep.regions):
                if not admissible(region.sigma):
                    skipped += 1
                    continue
                seed = int(np.random.default_rng([4, i]).integers(2**31))
                report = verify_region(curve, region, region.sigma, 10000, seed, tt=tt)
                overall_min = min(overall_min, report.min_ratio)
                if report.min_ratio <= 0:
                    ok = False
        criterion(4, "min geometric ratio over 1e4 triples positive on every admissible region",
                  ok and overall_min > 0,
                  f"overall_min={overall_min:.6g} inadmissible_skipped={skipped}")

    def test_regression_pin(self, suite_reports):
        curve, tt, rep = suite_reports["z2z4"]
        region = rep.regions[0]
        seed = int(np.random.default_rng([4, 0]).integers(2**31))
        report = verify_region(curve, region, region.sigma, 10000, seed, tt=tt)
        criterion(4, "first audited min-ratio regression pin (z,z^2,z^4)",
                  abs(report.min_ratio - 0.49950644518007264) < 1e-9,
                  f"min={report.min_ratio!r}")


class TestCriterion5SectorContainment:
    def test_aperture_budgets(self, suite_reports):
        ok = True
        worst = 0.0
        worst_at = None
        for name, (curve, tt, rep) in suite_reports.items():
            budgets = {
                lname: (max(p.trimmed(1e-12).degree, 0) + 1) * rep.epsilon_used
                for lname, p in (("L1", tt.L1), ("L2", tt.L2), ("L3", tt.L3))
            }
            for i, region in enumerate(rep.regions):
                if region.sector_flag:
                    ok = False
                    worst_at = (name, region.region_id, "flagged")
                    continue
                pts = region.sample(2000, np.random.default_rng([55, i]))
                for lname, p in (("L1", tt.L1), ("L2", tt.L2), ("L3", tt.L3)):
                    pt = p.trimmed(1e-12)
                    if pt.degree <= 0:
                        continue
                    vals = np.asarray(pt(pts))
                    nz = vals[np.abs(vals) > 1e-13 * np.max(np.abs(vals))]
                    aperture, _, _ = minimal_arc(np.angle(nz))
                    frac = aperture / budgets[lname]
                    if frac > worst:
                        worst, worst_at = frac, (name, region.region_id, lname)
                    if frac > 1.0:
                        ok = False
        criterion(5, "aperture of each L_i within (deg+1)*eps on every region",
                  ok, f"worst_fraction={worst:.4f} at={worst_at}")


class TestCriterion6BallMeasure:
    def test_measure_identity(self):
        worst = 0.0
        for k_prime in range(7):
            for x in (0.25, 1.0, 8.0):
                sigma, target = ball_measure_check(BallSpec(x=x, k_prime=k_prime))
                worst = max(worst, abs(sigma - target) / max(1.0, target))
        criterion(6, "weighted ball measure equals x/8 for k' in 0..6, x in {1/4,1,8}",
                  worst <= 1e-12, f"worst_rel_dev={worst:.2e}")


class TestCriterion7PairingRobustness:
    def test_identities_scaling_translation_and_scales(self, moment_curve):
        import time

        start = time.time()
        E = MeasurableSet(kind="ball", center=(0, 0, 0), size=1.0)
        F = MeasurableSet(kind="ball", center=(0, 0, 0), size=1.0)
        rep = pairing(moment_curve, E, F, 1.0, 100_000, seed=17)
        identities = (
            abs(rep.alpha * F.volume - rep.pairing) <= 1e-10 * rep.pairing
            and abs(rep.beta * E.volume - rep.pairing) <= 1e-10 * rep.pairing
        )

        errs = [pairing(moment_curve, E, F, 1.0, n, seed=2).mc_stderr
                for n in (1000, 4000, 16000)]
        halving = all(1.0 <= a / b <= 4.0 for a, b in zip(errs, errs[1:]))

        v = np.array([0.25 - 0.1j, 0.3j, -0.15])
        moved = pairing(moment_curve, E.translate(v), F.translate(v), 1.0, 100_000, seed=18)
        translation = abs(moved.pairing - rep.pairing) <= 3 * (rep.mc_stderr + moved.mc_stderr)

        ratios = []
        for r in (0.5, 1.0, 2.0):
            Er = MeasurableSet(kind="ball", center=(0, 0, 0), size=r)
            ratios.append(pairing(moment_curve, Er, Er, 1.0, 100_000, seed=19).rwt_ratio)
        scales = max(ratios) / min(ratios) < 10.0

        elapsed = time.time() - start
        criterion(7, "pairing identities, stderr halving, translation invariance, multi-scale ratio",
                  identities and halving and translation and scales,
                  f"stderr_ratios={[round(a/b,2) for a,b in zip(errs, errs[1:])]} "
                  f"rwt_by_scale={[round(r,3) for r in ratios]} "
                  f"elapsed={elapsed:.0f}s (target <120s)")


class TestCriterion8ExtensionEndpoint:
    FAMILY = (
        ("plateau", lambda w: np.where(np.abs(w) <= 1.0, 1.0 + 0j, 0j), 1.0),
        ("bump", lambda w: np.exp(-2.0 * np.abs(w) ** 2), 3.0),
        ("ramp", lambda w: w * np.exp(-np.abs(w) ** 2), 3.0),
    )

    def test_pointwise_endpoint_bound(self, moment_curve):
        rng = np.random.default_rng(88)
        violations = 0
        for name, f, support in self.FAMILY:
            mass = weighted_l1_mass(moment_curve, f, 24, support)
            for _ in range(50):
                coords = rng.uniform(-5, 5, 6)
                z = coords[:3] + 1j * coords[3:]
                val = abs(extension(moment_curve, f, z, 24, support,
                                    check_convergence=False))
                if val > mass * (1 + 1e-12):
                    violations += 1
        criterion(8, "extension endpoint |Ef(z)| <= weighted L1 mass (3 functions x 50 points)",
                  violations == 0, f"violations={violations}")

    def test_norm_ratio_scan_executes(self, moment_curve):
        pairs = [PQPair.from_theta(t) for t in (0.25, 0.5, 0.75)]
        pairs.append(PQPair(p=4.0, q=8.0))
        pairs.append(PQPair(p=1.0, q=math.inf))
        grid = GridSpec(half_width=3.0, points_per_axis=3)
        table = norm_ratio_scan(moment_curve, pairs, list(self.FAMILY), grid,
                                n_quad=12, dilations=(0.5, 1.0, 2.0))
        complete = len(table["rows"]) == len(pairs) * 3 * 3
        finite = all(np.isfinite(row["lp_norm"]) and row["lp_norm"] > 0
                     for row in table["rows"])
        endpoint_rows = [row for row in table["rows"] if math.isinf(row["q"])]
        endpoint = all(row["ratio"] <= 1 + 1e-12 for row in endpoint_rows)
        criterion(8, "norm-ratio scan emits complete tables at the stated exponent pairs",
                  complete and finite and endpoint,
                  f"rows={len(table['rows'])}")


class TestCriterion9Determinism:
    def _run_all(self, tmp_path, tag, curve_file_moment, curve_file_z2z4):
        runner = CliRunner()
        out = tmp_path / tag
        cmds = [
            ["analyze", str(curve_file_z2z4), "--seed", "7", "--samples", "200",
             "--out", str(out / "analyze")],
            ["jacobian-check", str(curve_file_moment), "--trials", "40", "--seed", "3",
             "--out", str(out / "jc")],
            ["operator", "pairing", str(curve_file_moment), "--seed", "5",
             "--n-mc", "4000", "--out", str(out / "pairing")],
            ["operator", "ball-measure", "--k-prime", "2", "--x", "1",
             "--out", str(out / "ball")],
            ["operator", "scan", str(curve_file_moment), "--theta", "0.5",
             "--grid-points", "2", "--n-quad", "8", "--out", str(out / "scan")],
            ["operator", "extension-endpoint", str(curve_file_moment), "--seed", "2",
             "--points", "5", "--n-quad", "10", "--out", str(out / "ext")],
        ]
        for cmd in cmds:
            res = runner.invoke(cli_main, cmd)
            assert res.exit_code == 0, (cmd, res.output)
        return out

    def test_byte_identical_reruns(self, tmp_path, moment_curve, curve_z2z4):
        moment_file = tmp_path / "moment.json"
        moment_file.write_text(json.dumps(moment_curve.to_json()))
        z2z4_file = tmp_path / "z2z4.json"
        z2z4_file.write_text(json.dumps(curve_z2z4.to_json()))
        out1 = self._run_all(tmp_path, "run1", moment_file, z2z4_file)
        out2 = self._run_all(tmp_path, "run2", moment_file, z2z4_file)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        same_names = files1 == files2
        same_bytes = all((out1 / f).read_bytes() == (out2 / f).read_bytes() for f in files1)
        criterion(9, "every CLI command is byte-deterministic under fixed seeds",
                  same_names and same_bytes, f"files={len(files1)}")
