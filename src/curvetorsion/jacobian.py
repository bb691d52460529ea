"""Jacobian of the three-fold sum map: direct determinant and the exact
nested line-integral representation.

The integral form writes the Jacobian as the product of the first torsion
polynomial at the three points times a triple line integral of rational
combinations of the torsion triple along straight segments.  Segments must
stay away from zeros of L1 and L2 (the integrand divides by their squares),
which is checked before any quadrature runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import CurveGamma, TorsionTriple
from .errors import NonConvergence, SegmentHitsSingularity
from .geometry import _hulls_within, dist_point_triangle
from .polynomials import _det3_entries, gauss_legendre

_REL_TOL = 1e-6
_IDENTITY_TOL = 1e-6
# Identity trials give up after this many draws per requested trial.
_MAX_ATTEMPTS_FACTOR = 300
# Identity-trial attempts drawn and screened together.
_TRIAL_BLOCK = 256
# Grid points per slab of whole i-planes in the nested quadrature: 64 KiB
# per complex temporary, under glibc's default 128 KiB mmap threshold.
_SLAB_POINTS = 4096

class Triple(NamedTuple):
    """Three sample points in the plane."""

    z1: complex
    z2: complex
    z3: complex


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre node count per segment."""

    nodes_per_segment: int = 16

    def __post_init__(self):
        if self.nodes_per_segment < 4:
            raise ValueError("nodes_per_segment must be at least 4")


def _interleaved_jacobian(curve: CurveGamma, pts: np.ndarray) -> np.ndarray:
    """Jacobian of the triples (pts[0::3], pts[1::3], pts[2::3]).

    Each derivative is evaluated once on the whole array and then sliced;
    the values are bitwise those of evaluating each strided slice on its own.
    """
    derivs = [d(pts) for d in curve.derivatives]
    return _det3_entries(*([d[k::3] for d in derivs] for k in range(3)))


def jacobian_direct(curve: CurveGamma, t: Triple) -> complex:
    """Determinant of the derivative columns at the three points."""
    return complex(_interleaved_jacobian(curve, np.array(t, dtype=np.complex128))[0])


def check_triple_clear(tt: TorsionTriple, t: Triple, margin: float = 1e-6) -> float:
    """Distance from the nearest L1/L2 zero to the triangle hull of the triple.

    All integration segments (the two outer ones and the inner family they
    sweep) lie inside the hull, so one distance test covers them all.

    Raises SegmentHitsSingularity below the margin.
    """
    best = math.inf
    for p in tt.singular_points:
        best = min(best, dist_point_triangle(p, t.z1, t.z2, t.z3))
        if best < margin:
            raise SegmentHitsSingularity(
                f"integrand pole within {best:.3e} of an integration segment"
            )
    return best


def _outer_segments(z1: complex, z2: complex, z3: complex, n: int):
    """The n-node Gauss-Legendre rule mapped to [0, 1] and its nodes on the
    two outer segments.

    Returns (tau, wt, w1, w2): nodes tau and weights wt on [0, 1], and the
    points w1 = z1 + (z2 - z1) tau and w2 = z2 + (z3 - z2) tau.
    """
    x, w = gauss_legendre(n)
    tau = 0.5 * (x + 1.0)
    return tau, 0.5 * w, z1 + (z2 - z1) * tau, z2 + (z3 - z2) * tau


def _nested_quadrature(tt: TorsionTriple, t: Triple, n: int, modulus: bool = False):
    """One pass of the tensorized three-level Gauss-Legendre rule.

    With ``modulus`` every factor is replaced by its modulus and the result
    is a float; otherwise it is the complex integral.

    The innermost integrand is built and summed in slabs of whole i-planes,
    so a pass holds at most max(_SLAB_POINTS, n^2) grid points at a time
    when 4 divides n (every doubling from 12 or 16 nodes), and at most
    max(_SLAB_POINTS, 4 n^2) otherwise, not n^3.  The result is
    bit-identical to building the grid at once for every n divisible by 4
    and every n below 78.
    """
    f = abs if modulus else (lambda v: v)
    z1, z2, z3 = map(complex, t)
    tau, wt, w1, w2 = _outer_segments(z1, z2, z3, n)

    L1, L2, L3 = tt.L1, tt.L2, tt.L3
    r2_w1 = f(np.asarray(L2(w1))) / f(np.asarray(L1(w1))) ** 2
    r2_w2 = f(np.asarray(L2(w2))) / f(np.asarray(L1(w2))) ** 2

    seg = w2[None, :] - w1[:, None]
    # OpenBLAS's gemv sums (i, j) rows in groups of four and rounds the
    # leftover rows differently, so every slab but the last spans a multiple
    # of four rows, each in the group it has in the whole grid.  (For n not
    # divisible by 4 from n = 78 on, even the whole grid's bytes change with
    # OpenBLAS's thread count, and a slab's may differ from them.)
    step = 4 // math.gcd(n, 4)
    rows = max(step, _SLAB_POINTS // (n * n) // step * step)
    summed = np.empty((n, n), dtype=float if modulus else complex)
    for i in range(0, n, rows):
        s = slice(i, i + rows)
        y = w1[s, None, None] + seg[s, :, None] * tau[None, None, :]
        r3 = f(np.asarray(L1(y))) * f(np.asarray(L3(y))) / f(np.asarray(L2(y))) ** 2
        summed[s] = np.tensordot(r3, wt, axes=([2], [0]))
    inner = f(seg) * summed

    mid = f(z3 - z2) * np.tensordot(inner * r2_w2[None, :], wt, axes=([1], [0]))
    outer = f(z2 - z1) * np.dot(wt, r2_w1 * mid)
    lead = f(complex(L1(z1))) * f(complex(L1(z2))) * f(complex(L1(z3)))
    return float(lead * outer) if modulus else complex(lead * outer)


def jacobian_integral(curve: CurveGamma, t: Triple, q: QuadratureSpec, *,
                      singularity_margin: float = 1e-6,
                      abs_tol: float = 0.0,
                      max_doublings: int = 4,
                      tt: TorsionTriple | None = None) -> complex:
    """Jacobian via the nested line-integral representation.

    Node counts double until two consecutive evaluations agree to
    _REL_TOL relative (or, when set, the absolute floor ``abs_tol``);
    failure to stabilize within ``max_doublings`` raises NonConvergence.
    Raises SegmentHitsSingularity when a zero of L1 or L2 lies within
    ``singularity_margin`` of the swept segments.  ``tt`` defaults to
    ``curve.torsion``.  Each pass builds its n^3 grid in slabs of whole
    i-planes (``_nested_quadrature``), so a doubling scales the memory held
    by about 4 once n^2 exceeds _SLAB_POINTS, not by 8.
    """
    if tt is None:
        tt = curve.torsion
    check_triple_clear(tt, t, singularity_margin)
    n = q.nodes_per_segment
    prev = _nested_quadrature(tt, t, n)
    for _ in range(max_doublings):
        n *= 2
        cur = _nested_quadrature(tt, t, n)
        if abs(cur - prev) <= max(_REL_TOL * max(abs(cur), 1e-12), abs_tol):
            return cur
        prev = cur
    raise NonConvergence(
        f"quadrature not stable to {_REL_TOL} after doubling to {n} nodes"
    )


def jacobian_identity_trials(curve: CurveGamma, n_trials: int, seed: int, *,
                             q: QuadratureSpec | None = None,
                             box_radius: float = 1.0,
                             margin: float = 0.3):
    """Integral-versus-direct Jacobian over random admissible triples.

    Triples are drawn uniformly from a box and rejected when an L1/L2 zero
    comes within ``margin`` of their triangle hull (the exclusion count is
    reported).  A trial passes when the relative deviation
    |integral - direct| / max(1, |direct|) is at most _IDENTITY_TOL.
    Returns a dict with pass/fail counts, the exclusion count, and the
    worst relative deviation.
    """
    rng = np.random.default_rng(seed)
    q = q or QuadratureSpec(nodes_per_segment=12)
    passes = failures = excluded = 0
    worst = 0.0
    attempts = 0
    cap = _MAX_ATTEMPTS_FACTOR * n_trials
    try:
        poles = curve.torsion.singular_points
    except (SegmentHitsSingularity, NonConvergence):
        # check_triple_clear would exclude every draw, so none is made.
        excluded = attempts = cap
    while passes + failures < n_trials and attempts < cap:
        # One draw of 6k values is k draws of 6, so the triples are the
        # per-attempt ones; the screen only skips draws check_triple_clear
        # would reject, and every other draw is decided by it.
        k = min(_TRIAL_BLOCK, cap - attempts)
        block = rng.uniform(-box_radius, box_radius, 6 * k).view(np.complex128).reshape(k, 3)
        hit = _hulls_within(poles, block[:, 0], block[:, 1], block[:, 2], margin)
        for row, screened in zip(block.tolist(), hit.tolist()):
            if passes + failures >= n_trials:
                break
            attempts += 1
            if screened:
                excluded += 1
                continue
            t = Triple(*row)
            try:
                integral = jacobian_integral(
                    curve, t, q, singularity_margin=margin,
                    abs_tol=0.1 * _IDENTITY_TOL, max_doublings=5,
                )
            except (SegmentHitsSingularity, NonConvergence):
                excluded += 1
                continue
            direct = jacobian_direct(curve, t)
            dev = abs(integral - direct) / max(1.0, abs(direct))
            worst = max(worst, dev)
            if dev <= _IDENTITY_TOL:
                passes += 1
            else:
                failures += 1
    return {
        "trials": passes + failures,
        "passes": passes,
        "failures": failures,
        "excluded_count": excluded,
        "worst_relative_deviation": worst,
    }
