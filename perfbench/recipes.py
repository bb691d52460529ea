"""The library calls each CLI command body makes, with a span around every
call into a curvetorsion module.

Each recipe mirrors one command of ``curvetorsion.cli`` step for step and
writes the same files, so the benchmark times what a CLI user runs minus
argument parsing and process start.  ``test_recipes.py`` checks that the
files are byte-identical to the real commands' outputs.  Failures raise
the library's exceptions instead of exiting; the caller counts them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from curvetorsion import reports
from curvetorsion.cli import _scan_family
from curvetorsion.curves import CurveGamma, torsion_triple
from curvetorsion.decomposition import admissible, affine_retry, classify_regions
from curvetorsion.errors import DegenerateTorsion, NonConvergence, SegmentHitsSingularity
from curvetorsion.jacobian import (
    QuadratureSpec,
    Triple,
    check_triple_clear,
    jacobian_direct,
    jacobian_identity_trials,
    jacobian_integral,
)
from curvetorsion.operators import (
    GridSpec,
    MeasurableSet,
    PQPair,
    extension,
    norm_ratio_scan,
    pairing,
    weighted_l1_mass,
)
from curvetorsion.verification import modulus_comparability_check, verify_region

# jacobian-check's defaults, shared by the single-triple calls so both draw
# triples the same way.
NODES = 16
BOX_RADIUS = 1.0
MARGIN = 0.35
TOLERANCE = 1e-6


def _load_curve(path, tracer) -> CurveGamma:
    with tracer.span("curves.parse"):
        with open(path, "r", encoding="utf-8") as fh:
            return CurveGamma.from_json(json.load(fh))


def _torsion(curve, tracer):
    with tracer.span("curves.torsion"):
        return torsion_triple(curve)


def _out_dir(out) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def analyze(curve_file, seed, out, tracer, *, samples=1000):
    """``curvetorsion analyze`` (with retry): decompose, verify, write three
    files."""
    curve = _load_curve(curve_file, tracer)
    tt = _torsion(curve, tracer)
    if tt.degenerate:
        raise DegenerateTorsion("curve torsion vanishes identically")
    with tracer.span("decomposition.classify"):
        report = classify_regions(tt, eps=None, seed=seed)
    initial = report
    used_curve = curve
    if report.inadmissible():
        with tracer.span("decomposition.retry"):
            used_curve, _amap, report = affine_retry(curve, report)
        tt_used = _torsion(used_curve, tracer)
    else:
        tt_used = tt
    entries = []
    skipped = []
    for idx, region in enumerate(report.regions):
        region_seed = int(
            np.random.default_rng([seed & 0x7FFFFFFF, idx]).integers(0, 2**31 - 1)
        )
        if admissible(region.sigma):
            with tracer.span("verification.verify"):
                rep = verify_region(used_curve, region, region.sigma, samples,
                                    region_seed, tt=tt_used)
            entries.append(rep.to_json())
        else:
            skipped.append({"region_id": region.region_id,
                            "reason": "inadmissible",
                            "sigma": list(region.sigma.sigma)})
    with tracer.span("reports.serialize"):
        out_dir = _out_dir(out)
        curve_json = used_curve.to_json()
        reports.write_json(out_dir / "decomposition.json",
                           reports.decomposition_json(report, curve_json))
        reports.write_json(out_dir / "verification.json",
                           reports.verification_json(curve_json, entries, skipped, seed))
        (out_dir / "regions.svg").write_text(reports.svg_region_map(report),
                                             encoding="utf-8")
    return {"initial": initial, "report": report, "entries": entries, "skipped": skipped,
            "files": ["decomposition.json", "verification.json", "regions.svg"]}


def jacobian_check(curve_file, trials, seed, out, tracer):
    """``curvetorsion jacobian-check``: integral versus direct Jacobian."""
    curve = _load_curve(curve_file, tracer)
    tt = _torsion(curve, tracer)
    if tt.degenerate:
        raise DegenerateTorsion("curve torsion vanishes identically")
    with tracer.span("jacobian.identity_trials"):
        result = jacobian_identity_trials(
            curve, trials, seed,
            q=QuadratureSpec(nodes_per_segment=NODES),
            box_radius=BOX_RADIUS, margin=MARGIN,
        )
    with tracer.span("reports.serialize"):
        payload = {
            "schema_version": reports.SCHEMA_VERSION,
            "kind": "jacobian_check",
            "curve": curve.to_json(),
            "nodes": NODES,
            "seed": seed,
            "box_radius": BOX_RADIUS,
            "margin": MARGIN,
            **result,
        }
        reports.write_json(_out_dir(out) / "jacobian_check.json", payload)
    return {"result": result, "files": ["jacobian_check.json"]}


def scan(curve_file, out, tracer, *, thetas=(0.25, 0.5, 0.75), grid_points=4, n_quad=16):
    """``curvetorsion operator scan`` with one dilation and no ``--q-extra``
    rows."""
    curve = _load_curve(curve_file, tracer)
    pairs = [PQPair.from_theta(float(t)) for t in thetas]
    grid = GridSpec(half_width=4.0, points_per_axis=grid_points)
    family = _scan_family()
    with tracer.span("operators.scan"):
        table = norm_ratio_scan(curve, pairs, family, grid, n_quad=n_quad, dilations=(1.0,))
    with tracer.span("reports.serialize"):
        out_dir = _out_dir(out)
        payload = {
            "schema_version": reports.SCHEMA_VERSION,
            "kind": "norm_scan",
            "curve": curve.to_json(),
            "grid": {"half_width": grid.half_width, "points_per_axis": grid_points},
            "n_quad": n_quad,
            "rows": reports.json_sanitize(table["rows"]),
            "flatness": reports.json_sanitize(table["flatness"]),
        }
        reports.write_json(out_dir / "scan.json", payload)
        fields = ["p", "q", "theta", "function", "dilation", "lq_norm", "lp_norm", "ratio"]
        (out_dir / "scan.csv").write_text(
            reports.rows_to_csv(table["rows"], fields), encoding="utf-8"
        )
    evals = len(pairs) * len(family) * grid_points**6
    return {"table": table, "extension_evals": evals, "files": ["scan.json", "scan.csv"]}


def extension_endpoint(curve_file, seed, out, tracer, *, points=50):
    """``curvetorsion operator extension-endpoint``: |E f(z)| against the mass."""
    curve = _load_curve(curve_file, tracer)
    n_quad = 24
    rng = np.random.default_rng(seed)
    rows = []
    violations = 0
    for name, f, support in _scan_family():
        with tracer.span("operators.weighted_l1_mass"):
            mass = weighted_l1_mass(curve, f, n_quad, support)
        coords = rng.uniform(-5.0, 5.0, size=(points, 6))
        zs = coords[:, :3] + 1j * coords[:, 3:]
        for z in zs:
            with tracer.span("operators.extension"):
                val = abs(extension(curve, f, z, n_quad, support,
                                    check_convergence=False))
            ok = val <= mass * (1.0 + 1e-12)
            violations += 0 if ok else 1
            rows.append({"function": name,
                         "z": [[c.real, c.imag] for c in z],
                         "value": val, "mass": mass, "ok": ok})
    with tracer.span("reports.serialize"):
        payload = {
            "schema_version": reports.SCHEMA_VERSION,
            "kind": "extension_endpoint",
            "curve": curve.to_json(),
            "seed": seed,
            "n_quad": n_quad,
            "violations": violations,
            "rows": rows,
        }
        reports.write_json(_out_dir(out) / "extension_endpoint.json", payload)
    return {"rows": rows, "violations": violations, "files": ["extension_endpoint.json"]}


def operator_pairing(curve_file, seed, out, tracer, *, n_mc=100_000):
    """``curvetorsion operator pairing`` with the default unit balls at 0."""
    curve = _load_curve(curve_file, tracer)
    origin = (0j, 0j, 0j)
    E = MeasurableSet(kind="ball", center=origin, size=1.0)
    F = MeasurableSet(kind="ball", center=origin, size=1.0)
    with tracer.span("operators.pairing"):
        rep = pairing(curve, E, F, 1.0, n_mc, seed)
    with tracer.span("reports.serialize"):
        payload = {
            "schema_version": reports.SCHEMA_VERSION,
            "kind": "weak_type",
            "curve": curve.to_json(),
            "seed": seed,
            "disk_radius": 1.0,
            "set_e": E.to_json(),
            "set_f": F.to_json(),
            "report": rep.to_json(),
        }
        out_dir = _out_dir(out)
        reports.write_json(out_dir / "weaktype.json", payload)
        fields = ["pairing", "alpha", "beta", "rwt_ratio", "mc_samples", "mc_stderr",
                  "volume_e", "volume_f", "weak_type_gap"]
        (out_dir / "weaktype.csv").write_text(
            reports.rows_to_csv([rep.to_json()], fields), encoding="utf-8"
        )
    return {"report": rep, "files": ["weaktype.json", "weaktype.csv"]}


def triple_calls(curve_file, n, seed, tracer):
    """Timed single-triple ``jacobian_integral`` and
    ``modulus_comparability_check`` calls on ``n`` seeded admissible triples.

    Triples are drawn like ``jacobian_identity_trials`` draws them and
    screened with the same pole-distance test; excluded triples are
    counted, not called.  Not a CLI command: it measures the two
    nested-quadrature copies call by call.
    """
    curve = _load_curve(curve_file, tracer)
    tt = _torsion(curve, tracer)
    q = QuadratureSpec(nodes_per_segment=NODES)
    rng = np.random.default_rng(seed)
    done = excluded = failures = 0
    worst = 0.0
    moduli_ok = True
    while done < n and done + excluded < 300 * n:
        pts = rng.uniform(-BOX_RADIUS, BOX_RADIUS, 6)
        t = Triple(complex(pts[0], pts[1]), complex(pts[2], pts[3]),
                   complex(pts[4], pts[5]))
        try:
            check_triple_clear(tt, t, MARGIN)
            with tracer.span("jacobian.integral"):
                integral = jacobian_integral(curve, t, q, singularity_margin=MARGIN,
                                             abs_tol=0.1 * TOLERANCE, max_doublings=5, tt=tt)
        except (SegmentHitsSingularity, NonConvergence):
            excluded += 1
            continue
        with tracer.span("jacobian.modulus"):
            lhs, rhs = modulus_comparability_check(curve, None, t, q,
                                                   singularity_margin=MARGIN, tt=tt)
        direct = jacobian_direct(curve, t)
        dev = abs(integral - direct) / max(1.0, abs(direct))
        worst = max(worst, dev)
        failures += dev > TOLERANCE
        moduli_ok &= math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0.0
        done += 1
    return {"calls": done, "excluded": excluded, "failures": failures,
            "worst_relative_deviation": worst, "moduli_ok": moduli_ok}
