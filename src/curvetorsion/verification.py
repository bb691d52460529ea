"""Sampling verifier for the geometric Jacobian lower bound, and the
modulus-inside comparability of the nested integral.

The geometric ratio compares |Jacobian| against the product of the cube
roots of the torsion moduli and the pairwise point distances; region
verifiers aggregate the ratio over reproducibly sampled triples and record
the worst witness for replay.  ``verify_region`` and ``geometric_ratio``
evaluate through one function, ``_interleaved_values``, so a witness
replayed on the machine that stored it matches bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurveGamma, TorsionTriple
from .decomposition import Region, SigmaExponents, admissible
from .errors import DegenerateTriple, EmptyRegion
from .jacobian import (
    QuadratureSpec,
    Triple,
    _interleaved_jacobian,
    _nested_quadrature,
    check_triple_clear,
    jacobian_direct,
)
from .polynomials import _eval_error_bound

# Multiple of the Horner bound on L3_magnitude that covers the rounding of
# L3's coefficients in the cofactor expansion as well as of its evaluation.
_L3_ROUNDING = 8.0


@dataclass(frozen=True)
class RatioSample:
    """One triple with its Jacobian modulus, lower-bound value, and ratio."""

    triple: Triple
    jacobian_mod: float
    bound_value: float
    ratio: float

    def to_json(self) -> dict:
        return {**vars(self), "triple": [[z.real, z.imag] for z in self.triple]}


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated ratio statistics over one region."""

    region_id: str
    n_samples: int
    min_ratio: float
    median_ratio: float
    max_ratio: float
    worst_witness: RatioSample
    excluded_count: int
    exploratory: bool = False

    def to_json(self) -> dict:
        return {**vars(self), "worst_witness": self.worst_witness.to_json()}


def _interleaved_values(curve: CurveGamma, tt: TorsionTriple, pts: np.ndarray):
    """(bound, Jacobian) of the triples (pts[0::3], pts[1::3], pts[2::3]).

    The bound is |L3(z1) L3(z2) L3(z3)|**(1/3) times the three pairwise
    distances.  L3 is evaluated once on the whole array and then sliced, as
    ``jacobian_direct``'s kernel does with each derivative; the values are
    bitwise those of evaluating each strided slice on its own.  A value of
    L3 within its rounding of 0 counts as 0, so its triple's bound is 0.
    """
    l3 = tt.L3(pts)
    l3[np.abs(l3) <= _L3_ROUNDING * _eval_error_bound(tt.L3_magnitude.coeffs, pts)] = 0.0
    z1, z2, z3 = (pts[k::3] for k in range(3))
    dist = np.abs(z2 - z1) * np.abs(z3 - z1) * np.abs(z3 - z2)
    bound = np.abs(l3[0::3] * l3[1::3] * l3[2::3]) ** (1.0 / 3.0) * dist
    return bound, _interleaved_jacobian(curve, pts)


def geometric_ratio(curve: CurveGamma, t: Triple) -> RatioSample:
    """|Jacobian| over the torsion/distance lower-bound product.

    Evaluated by ``verify_region``'s evaluator on the 3-point array, so a
    stored witness recomputes bit for bit.  Raises DegenerateTriple for
    coincident points or a torsion value within rounding of 0 at any of
    the three points.
    """
    if t.z1 == t.z2 or t.z2 == t.z3 or t.z1 == t.z3:
        raise DegenerateTriple("triple has coincident points")
    bound, jac = _interleaved_values(curve, curve.torsion, np.array(t, dtype=np.complex128))
    bound = float(bound[0])
    if bound == 0.0:
        raise DegenerateTriple("torsion vanishes at a sample point")
    jac = float(np.abs(jac[0]))
    return RatioSample(triple=t, jacobian_mod=jac, bound_value=bound, ratio=jac / bound)


def verify_region(curve: CurveGamma, region: Region, sig: SigmaExponents,
                  n: int, seed: int, *, exploratory: bool = False,
                  tt: TorsionTriple | None = None) -> VerificationReport:
    """Sample n triples uniformly from the region and aggregate the ratio.

    Inadmissible exponent triples are refused unless ``exploratory`` is
    set, in which case the report carries the flag and asserts nothing.
    Deterministic for a fixed (seed, n).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not exploratory and not admissible(sig):
        raise ValueError(
            "region is inadmissible; pass exploratory=True to sample it anyway"
        )
    if tt is None:
        tt = curve.torsion
    rng = np.random.default_rng(seed)
    pts = region.sample(3 * n, rng)
    bound, jac = _interleaved_values(curve, tt, pts)
    jac = np.abs(jac)
    # A coincident pair, or an L3 value at rounding level, makes the bound 0.
    good = (bound > 0.0) & np.isfinite(jac)
    excluded = int(n - int(np.count_nonzero(good)))
    if not np.any(good):
        raise EmptyRegion("every sampled triple was excluded")
    ratios = jac[good] / bound[good]
    order = int(np.argmin(ratios))
    idx = np.flatnonzero(good)[order]
    witness = RatioSample(
        triple=Triple(*map(complex, pts[3 * idx:3 * idx + 3])),
        jacobian_mod=float(jac[idx]),
        bound_value=float(bound[idx]),
        ratio=float(ratios[order]),
    )
    return VerificationReport(
        region_id=region.region_id,
        n_samples=n,
        min_ratio=witness.ratio,
        median_ratio=float(np.median(ratios)),
        max_ratio=float(np.max(ratios)),
        worst_witness=witness,
        excluded_count=excluded,
        exploratory=exploratory,
    )


def modulus_comparability_check(curve: CurveGamma, region: Region | None,
                              t: Triple, q: QuadratureSpec, *,
                              singularity_margin: float = 1e-6,
                              tt: TorsionTriple | None = None):
    """|Jacobian| against the modulus-inside nested integral.

    The two sides are comparable on decomposition regions; both values are
    returned for ratio reporting (the region argument is carried for
    report context only).  Raises SegmentHitsSingularity like the integral
    Jacobian does.
    """
    if tt is None:
        tt = curve.torsion
    if t.z1 == t.z2 and t.z2 == t.z3:
        return 0.0, 0.0
    check_triple_clear(tt, t, singularity_margin)
    lhs = abs(jacobian_direct(curve, t))
    rhs = _nested_quadrature(tt, t, q.nodes_per_segment, modulus=True)
    return lhs, rhs
