"""Serialization of reports to canonical JSON, CSV, and SVG region maps.

All writers are deterministic: keys are sorted, floats use repr, nothing
embeds timestamps or environment data, so identical inputs produce
byte-identical files.  Canonical JSON is the text the standard library's
``json`` module writes with ``sort_keys=True, indent=2, allow_nan=False``,
plus a final newline, byte for byte; it is streamed to the file a few
thousand pieces at a time instead of being built whole first.
"""

from __future__ import annotations

import csv
import io
import math
import os
from json.encoder import encode_basestring_ascii as _quote

from .decomposition import (DYADIC_FACTOR, REGION_BUDGET, SQUARE_FACTOR, THICKENING,
                            DecompositionReport, Region)
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


# Pieces of text the JSON encoder holds before it hands them to ``write``.
_PIECES_PER_WRITE = 4096
_LITERALS = {None: "null", True: "true", False: "false"}


def _float_text(x) -> str:
    if not math.isfinite(x):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return float.__repr__(x)


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True or key is False or key is None:
        return _LITERALS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_canonical(obj, write) -> None:
    """Write the canonical JSON text of ``obj`` through ``write``.

    Exact types are dispatched first; subclasses (``numpy.float64`` is a
    ``float``) fall back to ``isinstance`` in the order ``json`` tests them.
    NaN and infinities raise ``ValueError``, any other type ``TypeError``.
    """
    pieces = []
    put = pieces.append

    def flush():
        write("".join(pieces))
        pieces.clear()

    def value(o, depth):
        t = type(o)
        if t is str:
            put(_quote(o))
        elif t is float:
            put(_float_text(o))
        elif t is int:
            put(int.__repr__(o))
        elif o is None or o is True or o is False:
            put(_LITERALS[o])
        elif t is dict:
            mapping(o, depth)
        elif t is list or t is tuple:
            sequence(o, depth)
        elif isinstance(o, str):
            put(_quote(o))
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, float):
            put(_float_text(o))
        elif isinstance(o, (list, tuple)):
            sequence(o, depth)
        elif isinstance(o, dict):
            mapping(o, depth)
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    def sequence(o, depth):
        if not o:
            put("[]")
            return
        inner = "\n" + "  " * (depth + 1)
        sep, comma = "[" + inner, "," + inner
        for item in o:
            put(sep)
            sep = comma
            value(item, depth + 1)
            if len(pieces) >= _PIECES_PER_WRITE:
                flush()
        put(inner[:-2] + "]")

    def mapping(o, depth):
        if not o:
            put("{}")
            return
        inner = "\n" + "  " * (depth + 1)
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(o.items()):
            put(sep)
            sep = comma
            put(_quote(_key_text(key)))
            put(": ")
            value(item, depth + 1)
            if len(pieces) >= _PIECES_PER_WRITE:
                flush()
        put(inner[:-2] + "}")

    value(obj, 0)
    put("\n")
    flush()


def canonical_json(obj) -> str:
    buf = io.StringIO()
    _write_canonical(obj, buf.write)
    return buf.getvalue()


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
    """Stream ``canonical_json(obj)`` to ``path``; a failed write removes
    the partial file and re-raises."""
    with open(path, "w", encoding="utf-8") as fh:
        try:
            _write_canonical(obj, fh.write)
        except BaseException:
            fh.close()
            os.remove(path)
            raise


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


def artifact(kind: str, **fields) -> dict:
    """The envelope every JSON artifact shares: schema version and kind."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def decomposition_json(report: DecompositionReport, curve_json: dict | None = None) -> dict:
    return artifact(
        "decomposition",
        curve=curve_json,
        epsilon_used=float(report.epsilon_used),
        thickening_B=THICKENING,
        working_radius=float(report.working_radius),
        dyadic_factor=DYADIC_FACTOR,
        cluster_tol=CLUSTER_TOL,
        region_budget=REGION_BUDGET,
        region_count=int(report.region_count),
        seed=int(report.seed),
        excluded_exponents_log=report.excluded_exponents_log,
        root_info=report.root_info,
        regions=[region_json(r) for r in report.regions],
    )


def verification_json(curve_json: dict, entries: list, skipped: list, seed: int) -> dict:
    return artifact("verification", curve=curve_json, seed=int(seed), reports=entries,
                    skipped=skipped)


def error_json(exc: BaseException) -> dict:
    return artifact("error", error={"type": type(exc).__name__, "message": str(exc)})


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
    # The working square's width; doubling is exact, so it equals
    # (2 * SQUARE_FACTOR) * r bit for bit.
    scale = size / (2.0 * (SQUARE_FACTOR * report.working_radius))
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
