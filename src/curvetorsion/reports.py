"""Serialization of reports to canonical JSON, CSV, and SVG region maps.

All writers are deterministic: keys are sorted, floats use repr, nothing
embeds timestamps or environment data, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .decomposition import DYADIC_FACTOR, REGION_BUDGET, THICKENING, DecompositionReport, Region
from .polynomials import CLUSTER_TOL

SCHEMA_VERSION = 1

_SVG_SIZE_PX = 800.0

_TYPE_COLORS = {
    "T00": "#4e79a7",
    "T01": "#f28e2b",
    "T10": "#59a14f",
    "T11": "#e15759",
    None: "#bab0ac",
}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def json_sanitize(obj):
    """Replace non-finite floats with strings so canonical JSON can emit them."""
    if isinstance(obj, dict):
        return {k: json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    return obj


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


def complex_pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _radial_json(radial):
    lo, hi = radial
    return {
        "lo": float(lo),
        "hi": None if math.isinf(hi) else float(hi),
        "unbounded": bool(math.isinf(hi)),
    }


def region_json(region: Region) -> dict:
    sigma = region.sigma
    return {
        "region_id": region.region_id,
        "region_type": region.region_type,
        "center_b": complex_pair(region.center),
        "theta_range": None if region.theta_range is None else [
            float(region.theta_range[0]),
            float(region.theta_range[1]),
        ],
        "radial_range": _radial_json(region.radial_range),
        "polygon": [complex_pair(v) for v in region.polygon],
        "parent_voronoi": int(region.parent_voronoi),
        "unbounded": bool(region.unbounded),
        "sector_flag": bool(region.sector_flag),
        "band_scale": None,
        "sigma": None
        if sigma is None
        else {
            "region_type": sigma.region_type,
            "k": sigma.k,
            "k_sub": sigma.k_sub,
            "k_mid": sigma.k_mid,
            "sigma": list(sigma.sigma),
        },
        "comparability": {
            name: {
                "center": complex_pair(center),
                "exponent": int(k),
                "constant": float(c),
            }
            for name, (center, k, c) in sorted(region.comparability.items())
        },
        "comparability_stats": {
            name: {k: (bool(v) if isinstance(v, bool) else float(v)) for k, v in st.items()}
            for name, st in sorted(region.comparability_stats.items())
        },
        "apertures": {name: float(v) for name, v in sorted(region.apertures.items())},
    }


def decomposition_json(report: DecompositionReport, curve_json: dict | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "decomposition",
        "curve": curve_json,
        "epsilon_used": float(report.epsilon_used),
        "thickening_B": THICKENING,
        "working_radius": float(report.working_radius),
        "dyadic_factor": DYADIC_FACTOR,
        "cluster_tol": CLUSTER_TOL,
        "region_budget": REGION_BUDGET,
        "region_count": int(report.region_count),
        "seed": int(report.seed),
        "excluded_exponents_log": report.excluded_exponents_log,
        "root_info": report.root_info,
        "regions": [region_json(r) for r in report.regions],
    }


def verification_json(curve_json: dict, entries: list, skipped: list, seed: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verification",
        "curve": curve_json,
        "seed": int(seed),
        "reports": entries,
        "skipped": skipped,
    }


def error_json(exc: BaseException) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "error",
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def rows_to_csv(rows: list, fieldnames: list) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k) for k in fieldnames})
    return buf.getvalue()


def _svg_path(points, scale: float, size: float) -> str:
    cmds = []
    for i, v in enumerate(points):
        x = (v.real * scale) + size / 2.0
        y = size / 2.0 - (v.imag * scale)
        cmds.append(f"{'M' if i == 0 else 'L'} {x:.4f} {y:.4f}")
    cmds.append("Z")
    return " ".join(cmds)


def svg_region_map(report: DecompositionReport) -> str:
    """Region map with one path per region, color-coded by type.

    Unbounded regions are drawn with their working-radius truncation; the
    exponent triple rides along as a data attribute on each path.
    """
    size = _SVG_SIZE_PX
    scale = size / (2.0 * 1.25 * report.working_radius)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">'
    ]
    for region in report.regions:
        color = _TYPE_COLORS.get(region.region_type, _TYPE_COLORS[None])
        sigma = "" if region.sigma is None else ",".join(str(s) for s in region.sigma.sigma)
        parts.append(
            f'<path d="{_svg_path(region.sampling_polygon, scale, size)}" fill="{color}" '
            f'fill-opacity="0.55" stroke="#2f2f2f" stroke-width="0.4" '
            f'data-region-id="{region.region_id}" '
            f'data-type="{region.region_type}" data-sigma="{sigma}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
