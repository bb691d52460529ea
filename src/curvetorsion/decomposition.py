"""Decomposition of the complex plane into comparability regions.

Two root-geometry decompositions are chained over the torsion triple
(L1, L2, L3): the first cuts the plane into Voronoi cells, angular sectors,
and half-distance layers of a polynomial's roots, on each of which the
polynomial is comparable to c * |z - b|**k; the second cuts a cell radially
into dyadic annuli around root radii and gap annuli between them.  Chaining
them classifies every region as T00/T01/T10/T11 and attaches the exponent
triple sigma from the classification table.

Annular pieces are convexified: radii are thickened by a factor B and the
curved boundaries replaced by a tangent line (inner) and a chord (outer),
which requires sector apertures of at most pi/8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .curves import CurveGamma, TorsionTriple, affine_apply
from .errors import (
    ApertureTooWide,
    CurveTorsionError,
    DegenerateTorsion,
    EmptyRegion,
    EpsNotDivisor,
    NonConvergence,
    RetriesExhausted,
    RootFindingFailed,
)
from .geometry import (
    clip_halfplane,
    dedupe_vertices,
    minimal_arc,
    point_in_polygon,
    polygon_area,
    sample_fan,
    square_polygon,
)
from .polynomials import _EPS, ComplexPolynomial, _eval_error_bound, _horner_pair

TAU = 2.0 * math.pi

THICKENING = 1.1
DYADIC_FACTOR = 2.0
MAX_APERTURE = math.pi / 8.0
# Half-width of the working square as a multiple of the working radius.
SQUARE_FACTOR = 1.25
_REFINE_DEPTH_CAP = 48
# Boundary points per region for the aperture and comparability measurements.
_REFINE_SAMPLES = 400
# Region count refinement never splits past: a level whose splits could
# take the leaves beyond it is flagged instead.
REGION_BUDGET = 20_000
# Regions per batched boundary measurement; bounds the stacked grids' memory.
_CHUNK_REGIONS = 32
# Candidate perturbation sizes of the affine retry, tried in this order.
_RETRY_DELTAS = (1e-2, 1e-1)

REGION_TYPES = ("T00", "T01", "T10", "T11")

# The classification table: each sigma entry as weights of (k, k_sub, k_mid).
_SIGMA_T1 = ((0, 0, 0), (0, 0, 1), (0, 0, -2))
_SIGMA_ROWS = {
    "T00": ((0, 1, 0), (0, -2, 1), (1, 1, -2)),
    "T01": _SIGMA_T1,
    "T10": ((0, 1, 0), (0, -2, 1), (0, 1, -2)),
    "T11": _SIGMA_T1,
}


@dataclass(frozen=True)
class SigmaExponents:
    """Region classification tag with its exponent triple.

    ``k`` is the torsion exponent from the first decomposition, ``k_sub``
    the L1 exponent (0 when the region type does not use one), ``k_mid``
    the L2 exponent.  ``sigma`` always agrees with the table row for the
    region type.
    """

    region_type: str
    k: int
    k_sub: int
    k_mid: int
    sigma: tuple

    @staticmethod
    def table(region_type: str, k: int, k_sub: int, k_mid: int) -> tuple:
        if region_type not in _SIGMA_ROWS:
            raise ValueError(f"unknown region type {region_type!r}")
        return tuple(a * k + b * k_sub + c * k_mid for a, b, c in _SIGMA_ROWS[region_type])

    @classmethod
    def from_exponents(cls, region_type: str, k: int, k_sub: int, k_mid: int) -> "SigmaExponents":
        if min(k, k_sub, k_mid) < 0:
            raise ValueError("exponents must be nonnegative")
        return cls(
            region_type=region_type,
            k=int(k),
            k_sub=int(k_sub),
            k_mid=int(k_mid),
            sigma=cls.table(region_type, int(k), int(k_sub), int(k_mid)),
        )

    def consistent(self) -> bool:
        return self.sigma == self.table(self.region_type, self.k, self.k_sub, self.k_mid)


def admissible(sig: SigmaExponents) -> bool:
    """Exponent triples the geometric lower bound is proved for."""
    _, s2, s3 = sig.sigma
    band = s2 + s3 / 2.0
    return s3 != -1 and (band < -2.0 or band >= 0.0)


class Comparability(NamedTuple):
    """|L| ~ c * |z - center|**k on a region."""

    center: complex
    k: int
    c: float


@dataclass
class Region:
    """A convex cell of the plane, described around its current center.

    ``sampling_polygon`` is the parent's polygon cut by the cell's own
    linear constraints (Voronoi bisectors, sector edges, convexification
    tangent and chord), near-duplicate vertices merged: the counterclockwise
    convex boundary, for unbounded sector tails its working-square
    truncation.  Children are cut from it.
    """

    center: complex
    theta_range: tuple | None
    radial_range: tuple
    sampling_polygon: tuple
    parent_voronoi: int
    region_id: str
    unbounded: bool
    sigma: SigmaExponents | None = None
    comparability: dict = field(default_factory=dict)
    comparability_stats: dict = field(default_factory=dict)
    apertures: dict = field(default_factory=dict)
    sector_flag: bool = False
    depth: int = 0

    @property
    def region_type(self) -> str | None:
        return None if self.sigma is None else self.sigma.region_type

    @property
    def polygon(self) -> tuple:
        """The convex boundary; empty for unbounded sector tails."""
        return () if self.unbounded else self.sampling_polygon

    def contains(self, z):
        """Membership in the sampling polygon, to a distance of 1e-9 from
        each edge; vectorized."""
        return point_in_polygon(z, self.sampling_polygon, tol=1e-9)

    def sample(self, n: int, rng) -> np.ndarray:
        """n uniform points of the sampling polygon, drawn from its triangle
        fan with one ``rng.random(3 * n)``.  A polygon without positive,
        finite area raises EmptyRegion before any draw."""
        poly = self.sampling_polygon
        if not poly:
            raise EmptyRegion(f"region {self.region_id} has no sampling polygon")
        try:
            return sample_fan(poly, n, rng)
        except RuntimeError as exc:
            raise EmptyRegion(f"region {self.region_id}: {exc}") from exc


@dataclass
class DecompositionReport:
    regions: list
    epsilon_used: float
    working_radius: float
    seed: int
    excluded_exponents_log: list = field(default_factory=list)
    root_info: dict = field(default_factory=dict)

    @property
    def region_count(self) -> int:
        return len(self.regions)

    def inadmissible(self) -> list:
        return [r for r in self.regions if r.sigma is not None and not admissible(r.sigma)]


# ---------------------------------------------------------------------------
# region construction


def _validate_eps(eps: float):
    m = TAU / eps
    # A relative 1e-9 absorbs the roundoff of TAU / eps.  It is capped, since
    # from m = 5e8 on it would reach 1/2 and so pass every eps.
    if abs(m - round(m)) > min(1e-9 * max(1.0, m), 1e-6):
        raise EpsNotDivisor(f"2*pi/eps = {m} is not an integer")
    if eps > MAX_APERTURE + 1e-12:
        raise ApertureTooWide(f"aperture {eps} exceeds pi/8")
    return int(round(m))


def _cut(poly, halfplanes):
    """Clip a polygon by each half plane in order, until it is empty."""
    for anchor, normal in halfplanes:
        if not poly:
            break
        poly = clip_halfplane(poly, anchor, normal)
    return poly


def _build_region(
    center: complex,
    theta_range,
    radial_range,
    *,
    working_half_width: float,
    clipped,
    thickening: float = THICKENING,
    region_id: str = "",
    parent_voronoi: int = 0,
    depth: int = 0,
) -> Region | None:
    """Convexify one annular sector and cut it from ``clipped``: the parent's
    sampling polygon, or at the top the working square or a Voronoi cell.

    Returns None when the cell is empty.  Clipping keeps the square's
    counterclockwise order, so a polygon of negative area is a rounding
    sliver and is dropped with the empty ones.  A full circle (theta_range
    None) adds no half plane.  The tangent/chord construction needs
    cos(aperture / 2) >= 1 / thickening, which holds for apertures up to
    pi/8 with THICKENING = 1.1.
    """
    r_lo, r_hi = float(radial_range[0]), float(radial_range[1])
    if not (r_lo >= 0.0 and r_hi > r_lo):
        return None
    b = complex(center)
    B = float(thickening)
    new = []
    if theta_range is None:
        if r_lo > 0.0 or math.isfinite(r_hi):
            raise ApertureTooWide("full-circle cells must span (0, inf)")
    else:
        t0, t1 = theta_range = float(theta_range[0]), float(theta_range[1])
        aperture = t1 - t0
        if aperture <= 0.0 or aperture > MAX_APERTURE + 1e-12:
            raise ApertureTooWide(f"sector aperture {aperture} outside (0, pi/8]")
        if math.cos(aperture / 2.0) < 1.0 / B:
            raise ApertureTooWide("thickening too small for tangent-chord convexification")
        tm = 0.5 * (t0 + t1)
        e0 = complex(math.cos(t0), math.sin(t0))
        e1 = complex(math.cos(t1), math.sin(t1))
        em = complex(math.cos(tm), math.sin(tm))
        new = [(b, 1j * e0), (b, -1j * e1)]
        if r_lo > 0.0:
            new.append((b + (r_lo / B) * em, em))
        if math.isfinite(r_hi):
            new.append((b + (B * r_hi * math.cos(aperture / 2.0)) * em, -em))

    scale = max(working_half_width, abs(b) + (r_hi if math.isfinite(r_hi) else 0.0), 1e-30)
    poly = dedupe_vertices(_cut(clipped, new), 1e-13 * scale)
    if len(poly) < 3 or polygon_area(poly) <= (1e-14 * scale) ** 2:
        return None

    edge = working_half_width * (1.0 - 1e-9)
    unbounded = not math.isfinite(r_hi) and any(
        abs(v.real) >= edge or abs(v.imag) >= edge for v in poly
    )
    return Region(
        center=b,
        theta_range=theta_range,
        radial_range=(r_lo, r_hi),
        sampling_polygon=poly,
        parent_voronoi=parent_voronoi,
        region_id=region_id,
        unbounded=unbounded,
        depth=depth,
    )


# ---------------------------------------------------------------------------
# first decomposition: Voronoi cells x sectors x half-distance layers


@dataclass
class _Context:
    """Settings of one decomposition call and the root sets it cuts by.

    ``root_sets`` maps each non-constant polynomial, trimmed at TRIM_TOL,
    to its roots; the decompositions take polynomials already trimmed.
    """

    eps: float
    m_sectors: int
    working_radius: float
    root_sets: dict
    root_log: dict = field(default_factory=dict)

    @classmethod
    def create(cls, root_sets: dict, eps: float, m: int) -> "_Context":
        """The working radius is ten times the largest root modulus, and at
        least 10."""
        rmax = max((abs(r) for rs in root_sets.values() for r, _ in rs.roots), default=1.0)
        return cls(eps, m, 10.0 * max(rmax, 1.0), root_sets)

    @property
    def half_width(self) -> float:
        return SQUARE_FACTOR * self.working_radius

    @property
    def square(self) -> tuple:
        return square_polygon(0.0, self.half_width)


def _merge_distances(pairs):
    """(distance, multiplicity) pairs in increasing order, each distance
    within a relative 1e-9 of the last one kept merged into it."""
    merged = []
    for dist, mult in sorted(pairs):
        if merged and dist <= merged[-1][0] * (1.0 + 1e-9):
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((dist, mult))
    return merged


def _far_constant(lead_abs: float, far) -> float:
    """|lead| times each far root's distance to the power of its multiplicity."""
    return math.prod((d**m for d, m in far), start=lead_abs)


def _halfdistance_layers(j: int, locs: np.ndarray, mults, lead_abs: float):
    """Layers (r_lo, r_hi], exponent, constant around root j.

    The exponent on a layer sums the multiplicities of the center and of
    every root whose half distance has been passed; the constant collects
    |lead| times the full distances to the remaining far roots.
    """
    b = locs[j]
    merged = _merge_distances(
        (abs(locs[i] - b), mults[i]) for i in range(len(mults)) if i != j
    )
    layers = []
    k = mults[j]
    lo = 0.0
    for idx in range(len(merged) + 1):
        hi = merged[idx][0] / 2.0 if idx < len(merged) else math.inf
        layers.append((lo, hi, k, _far_constant(lead_abs, merged[idx:])))
        if idx < len(merged):
            k += merged[idx][1]
            lo = hi
    return layers


def _domain_window(b: complex, domain: Region | None, m: int, eps: float):
    """Indices, in increasing order, of the sectors around b that can meet
    the domain."""
    if domain is None:
        return range(m)
    poly = domain.sampling_polygon
    if point_in_polygon(np.asarray([b]), poly, tol=1e-12)[0]:
        return range(m)
    angles = np.angle(np.asarray(poly, dtype=np.complex128) - b)
    aperture, i_lo, _ = minimal_arc(angles)
    start = float(np.mod(angles[i_lo], TAU))
    n0 = math.floor((start - 1.5 * eps) / eps)
    n1 = math.ceil((start + aperture + 1.5 * eps) / eps)
    return sorted({idx % m for idx in range(n0, n1 + 1)})


def _d1_cells(Q, domain, ctx, log_key, id_prefix=""):
    """Cells of the root-geometry decomposition of the trimmed Q, clipped
    to a domain: yields (region, Comparability) with |Q| ~ c * |z - b|**k
    on the region.  Q's roots are logged under ``log_key``; each cell's id
    is ``id_prefix + log_key`` followed by its place in the decomposition."""
    id_prefix += log_key
    eps = ctx.eps
    if Q.degree <= 0:
        # A constant only ever cuts the whole plane, into bare sectors.
        c0 = abs(Q.coeffs[0])
        for n in range(ctx.m_sectors):
            region = _build_region(
                0.0,
                (n * eps, (n + 1) * eps),
                (0.0, math.inf),
                working_half_width=ctx.half_width,
                clipped=ctx.square,
                region_id=f"{id_prefix}s{n}",
            )
            if region is not None:
                yield region, Comparability(0.0, 0, c0)
        return

    rs = ctx.root_sets[Q]
    ctx.root_log[log_key] = {
        "residual": rs.residual,
        "roots": [[complex(r).real, complex(r).imag, int(mu)] for r, mu in rs.roots],
    }
    locs = rs.locations()
    mults = list(rs.multiplicities())
    lead_abs = float(abs(Q.coeffs[-1]))
    m = ctx.m_sectors
    outer = ctx.square if domain is None else domain.sampling_polygon
    for j in range(len(mults)):
        b = locs[j]
        vor = tuple(
            ((locs[i] + b) / 2.0, b - locs[i]) for i in range(len(mults)) if i != j
        )
        voronoi_cell = _cut(outer, vor)
        layers = _halfdistance_layers(j, locs, mults, lead_abs)
        for n in _domain_window(b, domain, m, eps):
            theta = (n * eps, (n + 1) * eps)
            for li, (lo, hi, k, c) in enumerate(layers):
                region = _build_region(
                    b,
                    theta,
                    (lo, hi),
                    working_half_width=ctx.half_width,
                    clipped=voronoi_cell,
                    region_id=f"{id_prefix}v{j}.s{n}.l{li}",
                    parent_voronoi=j,
                )
                if region is not None:
                    yield region, Comparability(complex(b), int(k), float(c))


# ---------------------------------------------------------------------------
# second decomposition: dyadic and gap annuli around a center


def _radial_structure(Q, b, ctx):
    """Gap/dyadic radial intervals of the trimmed Q around b.

    Returns list of (lo, hi, kind, exponent, constant); a dyadic band's
    constant is its radius.
    """
    rs = ctx.root_sets[Q]
    lead_abs = float(abs(Q.coeffs[-1]))
    radii = []
    m0 = 0
    scale0 = max(1.0, max((abs(r - b) for r, _ in rs.roots), default=1.0))
    for r, mu in rs.roots:
        rho = abs(r - b)
        if rho <= 1e-9 * scale0:
            m0 += mu
        else:
            radii.append((rho, mu))
    merged = _merge_distances(radii)
    A = DYADIC_FACTOR
    chains = []
    for rho, _ in merged:
        if chains and rho <= chains[-1][1] * A * A:
            chains[-1] = (chains[-1][0], rho)
        else:
            chains.append((rho, rho))

    far = list(merged)  # (radius, mult) not yet absorbed
    intervals = []
    inside = m0
    edge = 0.0

    for lo_r, hi_r in chains:
        gap_hi = lo_r / A
        if gap_hi > edge:
            intervals.append((edge, gap_hi, "gap", inside, _far_constant(lead_abs, far)))
        intervals.append((max(edge, lo_r / A), hi_r * A, "dyadic", 0, math.sqrt(lo_r * hi_r)))
        consumed = 0
        while far and far[0][0] <= hi_r * (1.0 + 1e-12):
            consumed += far.pop(0)[1]
        inside += consumed
        edge = hi_r * A
    intervals.append((edge, math.inf, "gap", inside, _far_constant(lead_abs, far)))
    return [iv for iv in intervals if iv[1] > iv[0]]


def _d2_cells(Q, b, domain: Region, ctx, id_prefix):
    """Radial pieces of a sector domain centered at b by the trimmed Q:
    yields (region, kind, Comparability) with kind "gap", "dyadic" or, for
    a constant Q and the whole domain, "const".  A dyadic band's constant
    is its radius."""
    if Q.degree <= 0:
        yield domain, "const", Comparability(b, 0, float(abs(Q.coeffs[0])))
        return
    d_lo, d_hi = domain.radial_range
    for idx, (lo, hi, kind, k, c) in enumerate(_radial_structure(Q, complex(b), ctx)):
        lo2, hi2 = max(lo, d_lo), min(hi, d_hi)
        if hi2 <= lo2:
            continue
        region = _build_region(
            complex(b),
            domain.theta_range,
            (lo2, hi2),
            working_half_width=ctx.half_width,
            clipped=domain.sampling_polygon,
            region_id=f"{domain.region_id}|{id_prefix}{kind[0]}{idx}",
            parent_voronoi=domain.parent_voronoi,
        )
        if region is not None:
            yield region, kind, Comparability(b, int(k), float(c))


# ---------------------------------------------------------------------------
# pipeline


class _Grids(NamedTuple):
    """Boundary grids of a batch of regions, stacked.

    ``pts`` holds each region's points in turn, its first at ``starts``;
    ``seg`` is the batch index of every point's region and ``pos_err`` the
    vertex position error of that region.
    """

    pts: np.ndarray
    starts: np.ndarray
    seg: np.ndarray
    pos_err: np.ndarray


def _boundary_grids(regions, n_samples: int) -> _Grids:
    """About n_samples points along each region's sampling polygon, at
    least six per edge, and the position error of its vertices."""
    n_verts = np.array([len(r.sampling_polygon) for r in regions])
    verts = np.array([v for r in regions for v in r.sampling_polygon], dtype=np.complex128)
    first = np.cumsum(n_verts) - n_verts
    nxt = np.arange(1, verts.size + 1)
    nxt[first + n_verts - 1] = first
    per_edge = np.maximum(6, n_samples // n_verts)
    reps = np.repeat(per_edge, n_verts)
    step = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    ts = step / np.repeat(reps, reps)
    pts = np.repeat(verts, reps) + np.repeat(verts[nxt] - verts, reps) * ts
    counts = n_verts * per_edge
    starts = np.cumsum(counts) - counts
    pos_err = 64.0 * _EPS * (np.maximum.reduceat(np.abs(pts), starts) + 1e-30)
    seg = np.repeat(np.arange(len(regions)), counts)
    return _Grids(pts, starts, seg, pos_err[seg])


def _values_above_noise(poly: ComplexPolynomial, grids: _Grids):
    """Values of poly at boundary points, and the mask of those kept.

    Boundary vertices carry clipping roundoff; near a root of the
    polynomial the resulting value is pure noise with a random argument,
    so values are kept only when they dominate both the evaluation error
    and the value swing of a vertex-position error.  One Horner pass gives
    the values, bitwise ``poly(grids.pts)``, and the derivative.
    """
    vals, dvals = _horner_pair(poly.coeffs, grids.pts)
    swing = np.abs(dvals) * grids.pos_err
    return vals, np.abs(vals) > 32.0 * _eval_error_bound(poly.coeffs, grids.pts) + 8.0 * swing


def _minimal_arcs(angles: np.ndarray, seg: np.ndarray, n: int) -> np.ndarray:
    """``geometry.minimal_arc``'s aperture of each of n groups of angles in
    [0, 2 pi], with 0 for fewer than two; ``seg`` (sorted) names each
    angle's group.

    Each group is a row padded past 2 pi and sorted; the widest gap, the
    wrap-around one included, is left out of the cover.
    """
    counts = np.bincount(seg, minlength=n)
    first = np.cumsum(counts) - counts
    rows = np.full((n, max(int(counts.max(initial=0)), 1)), 2.0 * TAU)
    rows[seg, np.arange(seg.size) - first[seg]] = angles
    rows.sort(axis=1)
    inner = np.diff(rows, axis=1)
    inner[np.arange(inner.shape[1]) >= counts[:, None] - 1] = -np.inf
    wrap = rows[:, 0] + TAU - rows[np.arange(n), np.maximum(counts - 1, 0)]
    widest = np.maximum(inner.max(axis=1, initial=-np.inf), wrap)
    return np.where(counts > 1, TAU - widest, 0.0)


def _measure(regions, polys: dict):
    """Argument apertures and comparability extremes of each polynomial
    over each region's boundary, stored in ``region.apertures`` and
    ``region.comparability_stats``; one boundary grid and one evaluation
    per polynomial for each _CHUNK_REGIONS regions.

    The argument of a zero-free analytic function on a convex cell takes
    its extremes on the boundary, and so does the log of
    |L| / (c |z - b|**k), which is harmonic there (roots and centers sit
    at corners at worst), so the boundary grid bounds every interior
    sample.  Corner points at roundoff level are skipped.  A zero
    constant, a zero polynomial or no usable point gives
    ``{"zero": True}``.
    """
    for start in range(0, len(regions), _CHUNK_REGIONS):
        batch = regions[start:start + _CHUNK_REGIONS]
        grids = _boundary_grids(batch, _REFINE_SAMPLES)
        arcs, extremes = {}, {}
        for name, poly in polys.items():
            vals, kept = _values_above_noise(poly, grids)
            arcs[name] = (np.zeros(len(batch)) if poly.degree <= 0 else _minimal_arcs(
                np.mod(np.angle(vals[kept]), TAU), grids.seg[kept], len(batch))).tolist()
            comps = [r.comparability[name] for r in batch]
            center = np.array([comp.center for comp in comps], dtype=np.complex128)[grids.seg]
            k = np.array([comp.k for comp in comps])[grids.seg]
            c = np.array([comp.c for comp in comps], dtype=np.float64)[grids.seg]
            dist = np.abs(grids.pts - center)
            # Grouped by k, every power takes numpy's scalar-exponent path.
            power = np.empty_like(dist)
            for kk in {comp.k for comp in comps}:
                sel = k == kk
                power[sel] = dist[sel] ** kk
            denom = c * power
            good = (denom > 0) & (dist > 4.0 * grids.pos_err) & kept
            ratio = np.full(dist.shape, np.nan)
            np.divide(np.abs(vals), denom, out=ratio, where=good)
            valid = np.isfinite(ratio) & (ratio > 0)
            extremes[name] = list(zip(
                np.logical_or.reduceat(valid, grids.starts).tolist(),
                np.minimum.reduceat(np.where(valid, ratio, np.inf), grids.starts).tolist(),
                np.maximum.reduceat(np.where(valid, ratio, -np.inf), grids.starts).tolist(),
            ))
        for i, region in enumerate(batch):
            region.apertures = {name: arcs[name][i] for name in polys}
            stats = {}
            for name in region.comparability:
                found, lo, hi = extremes[name][i]
                stats[name] = {
                    "min_ratio": lo,
                    "max_ratio": hi,
                    "ratio_bound": 1.25 * max(hi, 1.0 / lo),
                } if found else {"zero": True}
            region.comparability_stats = stats


def _child_thickening(theta_range) -> float:
    """Smallest thickening the tangent-chord construction tolerates.

    Refinement children stay inside their parent, so they do not need the
    full overlap thickening of the original cells; keeping it would put a
    floor of (B - 1/B) * r on the radial extent and stall the refinement.
    """
    aperture = theta_range[1] - theta_range[0]
    need = 1.0 / math.cos(aperture / 2.0)
    return max(1.002, 1.001 * need + 0.001)


def _split_region(region: Region, ctx):
    """Split one region into two children (radial first, angular when tight)."""
    r_lo, r_hi = region.radial_range
    eps = ctx.eps
    if not math.isfinite(r_hi):
        mid = ctx.working_radius / 16.0 if r_lo == 0.0 else 4.0 * r_lo
        children_spec = [((r_lo, mid), region.theta_range), ((mid, math.inf), region.theta_range)]
    elif r_lo == 0.0:
        children_spec = [((0.0, r_hi / 4.0), region.theta_range), ((r_hi / 4.0, r_hi), region.theta_range)]
    elif r_hi / r_lo > 1.0 + 0.75 * eps:
        mid = math.sqrt(r_lo * r_hi)
        children_spec = [((r_lo, mid), region.theta_range), ((mid, r_hi), region.theta_range)]
    else:
        t0, t1 = region.theta_range
        tm = 0.5 * (t0 + t1)
        children_spec = [((r_lo, r_hi), (t0, tm)), ((r_lo, r_hi), (tm, t1))]
    children = []
    for i, (radial, theta) in enumerate(children_spec):
        child = _build_region(
            region.center,
            theta,
            radial,
            thickening=_child_thickening(theta),
            working_half_width=ctx.half_width,
            clipped=region.sampling_polygon,
            region_id=f"{region.region_id}.r{i}",
            parent_voronoi=region.parent_voronoi,
            depth=region.depth + 1,
        )
        if child is not None:
            child.sigma = region.sigma
            child.comparability = dict(region.comparability)
            children.append(child)
    return children


_REFINE_MARGIN = 0.98


def _refine_regions(regions, polys: dict, ctx):
    """Bisect regions until every boundary aperture fits its budget.

    A small margin below the budget absorbs the discretization gap between
    the boundary grid used here and whatever sampling a later check uses.
    The refinement tree is built a level at a time: each level is measured
    in one ``_measure`` call, which also stores the comparability extremes
    that a leaf keeps, and each region over its budget becomes a
    (region, kids) node.  Regions at the depth cap or without children are
    flagged.  When splitting a level's over-budget regions could take the
    leaves past REGION_BUDGET, those regions are all flagged instead and
    the tree stops.  The leaves are returned in the order of a last-in first-out
    walk of the finished tree.
    """
    limits = {
        name: _REFINE_MARGIN * ((max(poly.degree, 0) + 1) * ctx.eps)
        for name, poly in polys.items()
    }
    nodes = [(region, []) for region in regions]
    level, leaves = nodes, 0
    while level:
        _measure([region for region, _ in level], polys)
        over = [(region, kids) for region, kids in level
                if any(region.apertures[name] > limit for name, limit in limits.items())]
        stop = leaves + len(level) + len(over) > REGION_BUDGET
        for region, kids in over:
            if not stop and region.depth < _REFINE_DEPTH_CAP:
                kids.extend((child, []) for child in _split_region(region, ctx))
            if not kids:
                region.sector_flag = True
        leaves += sum(not kids for _, kids in level)
        level = [kid for _, kids in over for kid in kids]

    out, stack = [], nodes
    while stack:
        region, kids = stack.pop()
        if kids:
            stack.extend(kids)
        else:
            out.append(region)
    return out


def _split_by(Q, b, domain: Region, ctx: _Context, name: str):
    """Pieces of a domain on which |Q| ~ c * |z - center|**k.

    Gap annuli around b lie on the T0 side.  Dyadic bands, re-decomposed
    around the roots of Q, and the whole domain for a constant Q lie on
    the T1 side.  Yields (region, Comparability, on_T1_side).
    """
    for piece, kind, comp in _d2_cells(Q, b, domain, ctx, f"{name}:"):
        if kind == "dyadic":
            # The piece's id keeps the cells of different pieces apart.
            for region, cell_comp in _d1_cells(Q, piece, ctx, f"{name}i:", f"{piece.region_id}|"):
                yield region, cell_comp, True
        else:
            yield piece, comp, kind == "const"


def _setup_walk(tt: TorsionTriple, eps: float | None):
    """The setup of a classification walk: returns (ctx, polys), the
    decomposition context and the trimmed L1, L2, L3."""
    if tt.degenerate:
        raise DegenerateTorsion("curve torsion vanishes identically")
    polys = dict(zip(("L1", "L2", "L3"), tt.trimmed))
    d = max(max(p.degree, 0) for p in polys.values())
    if eps is None:
        m = 28 * (d + 1)
        eps = TAU / m
    else:
        m = _validate_eps(eps)
    try:
        root_sets = tt.root_sets
    except NonConvergence as exc:
        raise RootFindingFailed(str(exc)) from exc
    return _Context.create(root_sets, eps, m), polys


def _walk(ctx: _Context, polys: dict):
    """The classification walk of ``classify_regions``, before refinement:
    yields the regions with their type, sigma and comparability."""
    L1, L2, L3 = polys.values()
    if max(p.degree for p in polys.values()) <= 0:
        whole = _build_region(
            0.0, None, (0.0, math.inf),
            working_half_width=ctx.half_width,
            clipped=ctx.square, region_id="all",
        )
        whole.sigma = SigmaExponents.from_exponents("T11", 0, 0, 0)
        whole.comparability = {
            name: Comparability(0j, 0, float(abs(p.coeffs[0]))) for name, p in polys.items()
        }
        yield whole
        return
    for cell3, comp3 in _d1_cells(L3, None, ctx, "L3:"):
        for piece1, comp1, t1 in _split_by(L1, comp3.center, cell3, ctx, "L1"):
            for region, comp2, t2 in _split_by(L2, comp1.center, piece1, ctx, "L2"):
                rtype = REGION_TYPES[2 * t1 + t2]
                # The T01 sigma row drops k_sub, T11 keeps it; both keep k1 in "L1".
                k_sub = 0 if rtype == "T01" else comp1.k
                region.sigma = SigmaExponents.from_exponents(rtype, comp3.k, k_sub, comp2.k)
                region.comparability = {"L3": comp3, "L1": comp1, "L2": comp2}
                yield region


def _admissible_walk(ctx: _Context, polys: dict) -> list | None:
    """The walk's regions, or None at its first inadmissible region."""
    regions = []
    for region in _walk(ctx, polys):
        if not admissible(region.sigma):
            return None
        regions.append(region)
    return regions


def _finish(regions, ctx: _Context, polys: dict, seed: int) -> DecompositionReport:
    """Refine and measure the walk's regions, and report them."""
    return DecompositionReport(
        regions=_refine_regions(regions, polys, ctx),
        epsilon_used=ctx.eps,
        working_radius=ctx.working_radius,
        seed=seed,
        root_info=ctx.root_log,
    )


def classify_regions(tt: TorsionTriple, eps: float | None = None, *,
                     seed: int = 0) -> DecompositionReport:
    """Full classification pipeline over the torsion triple, in two stages.

    1. Walk: the torsion polynomial is decomposed first; each cell is then
       split radially by the L1 root radii into gap pieces (T0 side) and
       dyadic bands (T1 side, re-decomposed around L1 roots), and each of
       those is split again by L2 into T00/T01/T10/T11 regions carrying the
       sigma triple from the classification table.  A polynomial with no
       roots at all is classified on the constant side (type x1) with
       exponent 0.  T01 regions record ``sigma.k_sub = 0`` (their table row
       has no L1 exponent); their L1 comparability keeps the measured
       exponent.
    2. Refine: regions are bisected, a tree level at a time, until the
       sampled argument aperture of each L_i fits the budget
       (deg L_i + 1) * eps; regions at the depth cap are flagged, and so is
       every over-budget region of a level whose splits could take the
       report past REGION_BUDGET regions.  Children keep their parent's
       sigma, so the walk already decides admissibility.  The boundary
       grid that measures a region's apertures also gives its
       comparability ratio extremes.

    The walk runs whole, so inadmissible regions are reported too.
    ``eps`` None picks 2*pi / (28 * (d + 1)) for the largest degree d.
    Raises RootFindingFailed when a root extraction of the triple fails.
    """
    ctx, polys = _setup_walk(tt, eps)
    return _finish(_walk(ctx, polys), ctx, polys, seed)


def decompose(curve: CurveGamma, eps: float | None = None, *,
              seed: int = 0) -> tuple[CurveGamma, DecompositionReport]:
    """Classify ``curve``, or its first ``affine_retry`` candidate when a
    walk region is inadmissible; returns (curve used, report).

    The curve's walk stops at its first inadmissible region; a walk with
    none is finished, otherwise no report of the curve itself is built.
    """
    ctx, polys = _setup_walk(curve.torsion, eps)
    regions = _admissible_walk(ctx, polys)
    if regions is not None:
        return curve, _finish(regions, ctx, polys, seed)
    used, _matrix, report = _retry_candidates(curve, eps, seed)
    return used, report


def affine_retry(curve: CurveGamma, report: DecompositionReport):
    """Perturb the curve until every region classifies admissibly.

    Candidate matrices are I + delta * E_ij over the standard matrix units
    in row-major order for each delta in _RETRY_DELTAS (determinant 1 or
    1 + delta, so none is singular), applied in a fixed
    order so retried reports are reproducible.  Each candidate is walked
    at the sector width ``classify_regions`` picks from the degrees and
    judged on its walk regions, which already carry every sigma; its walk
    stops at the first inadmissible region.  ``excluded_exponents_log``
    records each candidate's delta, unit and outcome.  Only the accepted
    candidate is refined and measured, with the report's seed.  Returns
    (curve, matrix, report) for the first fully admissible classification;
    the identity when the input report is already admissible.

    A candidate whose walk would raise only after its first inadmissible
    region is logged ``inadmissible``, not ``failed``.  At a validated eps
    the walk's region construction does not raise, so no known curve
    shows this.

    Raises
    ------
    RetriesExhausted
        When no candidate in the family yields an admissible report.
    """
    if all(admissible(r.sigma) for r in report.regions):
        return curve, np.eye(3), report
    return _retry_candidates(curve, None, report.seed)


def _retry_candidates(curve: CurveGamma, eps: float | None, seed: int):
    """The candidate loop of ``affine_retry`` and ``decompose``."""
    log = []
    for delta in _RETRY_DELTAS:
        for i in range(3):
            for j in range(3):
                mat = np.eye(3, dtype=np.complex128)
                mat[i, j] += delta
                candidate = {"delta": delta, "unit": [i, j]}
                curve2 = affine_apply(curve, mat)
                tt2 = curve2.torsion
                if tt2.degenerate:
                    log.append({**candidate, "outcome": "degenerate"})
                    continue
                try:
                    ctx, polys = _setup_walk(tt2, eps)
                    regions = _admissible_walk(ctx, polys)
                except CurveTorsionError as exc:
                    log.append({**candidate, "outcome": f"failed:{type(exc).__name__}"})
                    continue
                if regions is None:
                    log.append({**candidate, "outcome": "inadmissible"})
                    continue
                log.append({**candidate, "outcome": "accepted"})
                rep2 = _finish(regions, ctx, polys, seed)
                rep2.excluded_exponents_log = log
                return curve2, mat, rep2
    raise RetriesExhausted(
        f"no admissible classification after {len(log)} perturbations"
    )
