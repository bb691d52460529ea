"""Convex polygon plumbing on the complex plane.

Polygons are tuples of complex vertices in counterclockwise order.  Half
planes are (anchor, normal) pairs meaning Re(conj(normal) * (z - anchor)) >= 0.
"""

from __future__ import annotations

import math

import numpy as np


def clip_halfplane(poly, anchor: complex, normal: complex):
    """Sutherland-Hodgman clip of a convex polygon against one half plane.

    The output keeps the input's vertex order, so a counterclockwise
    polygon stays counterclockwise up to rounding on slivers.  Works in
    Python ``complex``, with each vertex's half-plane value
    Re(conj(normal) * (v - anchor)) computed once.  This changes no bit
    against numpy scalars: Python's complex product and numpy's scalar one
    both evaluate (ac - bd, ad + bc) rounding every product and sum on its
    own, with no fused multiply-add (numpy's SIMD array loops can round
    differently), so each value and each intersection point equals what
    the same formula and lerp give on numpy scalar vertices.  Returns
    Python ``complex`` vertices.
    """
    pts = [complex(v) for v in poly]
    anchor = complex(anchor)
    w = complex(normal).conjugate()
    vals = [((v - anchor) * w).real for v in pts]
    out = []
    n = len(pts)
    for i in range(n):
        j = (i + 1) % n
        a, b = pts[i], pts[j]
        fa, fb = vals[i], vals[j]
        if fa >= 0.0:
            out.append(a)
            if fb < 0.0:
                t = fa / (fa - fb)
                out.append(a + t * (b - a))
        elif fb >= 0.0:
            t = fa / (fa - fb)
            out.append(a + t * (b - a))
    return tuple(out)


def polygon_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    v = np.array([*poly, poly[0]], dtype=np.complex128)
    p = np.conj(v[:-1])
    p *= v[1:]
    return float(0.5 * np.sum(p.imag))


def dedupe_vertices(poly, tol: float):
    out = []
    for v in poly:
        if not out or abs(v - out[-1]) > tol:
            out.append(v)
    if len(out) > 1 and abs(out[0] - out[-1]) <= tol:
        out.pop()
    return tuple(out)


def point_in_polygon(z, poly, tol: float = 0.0):
    """Membership in a CCW convex polygon: a point is inside when its signed
    distance to every edge is at least -tol; vectorized over z."""
    zz = np.asarray(z, dtype=np.complex128)
    inside = np.ones(zz.shape, dtype=bool)
    n = len(poly)
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        edge = b - a
        inside &= ((zz - a) * np.conj(1j * edge)).real >= -tol * abs(edge)
    return inside


def square_polygon(center: complex, half_width: float):
    c = complex(center)
    h = float(half_width)
    return (
        c + complex(-h, -h),
        c + complex(h, -h),
        c + complex(h, h),
        c + complex(-h, h),
    )


def sample_fan(poly, n: int, rng):
    """Uniform points inside a convex polygon, drawn exactly from the fan of
    triangles (v0, v[i], v[i+1]) by Turk's square-root map (G. Turk,
    "Generating random points in triangles", Graphics Gems, 1990).

    One ``rng.random(3 * n)`` draw: the first n values pick a triangle by
    cumulative area, the other 2n map into it.  Nothing is rejected, so the
    cost does not grow as the polygon thins.  Raises ``RuntimeError`` when
    the polygon has no positive, finite area.
    """
    v = np.asarray(poly, dtype=np.complex128)
    a = v[0]
    e1 = v[1:-1] - a
    e2 = v[2:] - a
    # Rounding can make a near-collinear triangle's area slightly negative.
    areas = np.maximum(e1.real * e2.imag - e1.imag * e2.real, 0.0)
    cum = np.cumsum(areas)
    total = float(cum[-1]) if cum.size else 0.0
    if not 0.0 < total < math.inf:
        raise RuntimeError("the polygon has no area to sample")
    u = rng.random(3 * n)
    pick = u[:n]
    pick *= total
    k = np.searchsorted(cum, pick, side="right")
    # u * total can round up to total itself.
    np.minimum(k, cum.size - 1, out=k)
    s = np.sqrt(u[n:2 * n])
    t = u[2 * n:]
    out = e1[k]
    out *= 1.0 - t
    out += t * e2[k]
    out *= s
    out += a
    return out


def minimal_arc(angles: np.ndarray):
    """Smallest circular arc covering all angles.

    Returns (aperture, idx_lo, idx_hi) where the indices point into the
    input array at the two extreme samples of the covering arc.  The cover
    is the complement of the largest gap between consecutive sorted angles.
    """
    a = np.mod(np.asarray(angles, dtype=np.float64), 2.0 * np.pi)
    n = a.size
    if n == 0:
        raise ValueError("no angles supplied")
    if n == 1:
        return 0.0, 0, 0
    order = np.argsort(a, kind="stable")
    s = a[order]
    gaps = np.diff(s, append=s[0] + 2.0 * np.pi)
    kmax = int(np.argmax(gaps))
    aperture = float(2.0 * np.pi - gaps[kmax])
    idx_lo = int(order[(kmax + 1) % n])
    idx_hi = int(order[kmax])
    return aperture, idx_lo, idx_hi


def dist_point_segment(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = (ab * np.conj(ab)).real
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a) * np.conj(ab)).real / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


@np.errstate(over="ignore", invalid="ignore")
def dist_point_triangle(p: complex, a: complex, b: complex, c: complex) -> float:
    """Distance from p to the (possibly degenerate) triangle hull of a, b, c.

    NaN when an edge's squared length or a cross product with p overflows:
    the distance is then not known, and a NaN compares as not clear.
    """
    cross = lambda u, v: (np.conj(u) * v).imag
    edges = (b - a, c - b, a - c)
    d1, d2, d3 = (cross(e, p - v) for e, v in zip(edges, (a, b, c)))
    if not np.isfinite([d1, d2, d3, *((e * np.conj(e)).real for e in edges)]).all():
        return math.nan
    if (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0):
        area = abs(cross(b - a, c - a))
        span = max(abs(b - a), abs(c - b), abs(a - c), 1e-300)
        if area > 1e-14 * span * span:
            return 0.0
    return min(
        dist_point_segment(p, a, b),
        dist_point_segment(p, b, c),
        dist_point_segment(p, c, a),
    )


def _dist_points_segments(p, a, b):
    """``dist_point_segment`` vectorized over broadcast arrays."""
    ab = b - a
    denom = ab.real * ab.real + ab.imag * ab.imag
    pa = p - a
    dot = pa.real * ab.real + pa.imag * ab.imag
    t = np.divide(dot, denom, out=np.zeros_like(dot), where=denom != 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    return np.abs(pa - t * ab)


# Relative slack by which a vector distance must clear the margin.
_SCREEN_RTOL = 1e-9


@np.errstate(over="ignore", invalid="ignore")
def _hulls_within(p, a, b, c, margin: float) -> np.ndarray:
    """Which triangle hulls (a[k], b[k], c[k]) come clearly within
    ``margin`` of one of the points ``p``, in one vectorized pass.

    A conservative screen ahead of ``dist_point_triangle``.  A point
    strictly inside every edge counts as distance 0, any other point as its
    distance to the nearest edge.  Where the scalar test rounds differently
    or calls the triangle degenerate, its distance exceeds this one by at
    most about 1e-13 times the coordinates' size.  A hull is flagged only
    when a distance is below ``margin`` by _SCREEN_RTOL times the margin
    plus the coordinates' size, which covers that: rounding can only leave
    a hull unflagged, never flag one that the scalar test keeps clear.
    An edge's squared length or a cross product that overflows, which makes
    the scalar distance NaN, flags the hull here too.
    """
    p = np.asarray(p, dtype=np.complex128)[None, :]
    a, b, c = (np.asarray(v, dtype=np.complex128)[:, None] for v in (a, b, c))
    dist = np.minimum(_dist_points_segments(p, a, b), _dist_points_segments(p, b, c))
    np.minimum(dist, _dist_points_segments(p, c, a), out=dist)
    pos = neg = finite = True
    for u, v in ((b - a, p - a), (c - b, p - b), (a - c, p - c)):
        cross = u.real * v.imag - u.imag * v.real
        pos = pos & (cross > 0.0)
        neg = neg & (cross < 0.0)
        finite = finite & np.isfinite(cross) & np.isfinite(u.real * u.real + u.imag * u.imag)
    dist[pos | neg] = 0.0
    reach = np.abs(p) + np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    clear = finite & (dist >= margin - _SCREEN_RTOL * (margin + reach))
    return ~np.all(clear, axis=1)
