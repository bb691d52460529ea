"""Curves in C^3, their torsion triple, and the linear action on curves.

A curve is a triple of complex polynomials.  The torsion triple consists of
the first component's derivative, the 2x2 Wronskian-type determinant of the
first two components, and the full 3x3 determinant of the derivative frame;
the affine arclength weight is the cube root of the last one's modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SegmentHitsSingularity
from .polynomials import ComplexPolynomial, det2, det3, roots

# Coefficient-residue factor below which a computed determinant counts as
# identically zero (cancellation in the cofactor expansion is exact in theory
# but rounded in practice).
_ZERO_DET_REL = 1e-10

# Relative size below which trailing coefficients of the torsion triple are
# dropped before its roots are taken.
TRIM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CurveGamma:
    """Polynomial curve (P1, P2, P3) with a degree bound N.

    Raises ValueError for a component count other than three, a
    non-finite coefficient, or a degree bound below the largest degree.
    """

    components: tuple
    degree_bound: int

    def __post_init__(self):
        if len(self.components) != 3:
            raise ValueError("a curve needs exactly three components")
        comps = tuple(
            c if isinstance(c, ComplexPolynomial) else ComplexPolynomial(c)
            for c in self.components
        )
        if not all(np.isfinite(c.coeffs).all() for c in comps):
            raise ValueError("curve coefficients must be finite")
        object.__setattr__(self, "components", comps)
        max_deg = max(c.degree for c in comps)
        if self.degree_bound < max(max_deg, 1):
            raise ValueError("degree_bound is below the largest component degree")

    @classmethod
    def from_components(cls, p1, p2, p3, degree_bound: int | None = None) -> "CurveGamma":
        comps = tuple(
            c if isinstance(c, ComplexPolynomial) else ComplexPolynomial(c)
            for c in (p1, p2, p3)
        )
        n = max(max(c.degree for c in comps), 1) if degree_bound is None else degree_bound
        return cls(components=comps, degree_bound=n)

    @cached_property
    def torsion(self) -> "TorsionTriple":
        return torsion_triple(self)

    def __call__(self, z):
        """Evaluate the curve; returns shape (..., 3) for array input."""
        zz = np.asarray(z, dtype=np.complex128)
        vals = np.stack([np.asarray(c(zz)) for c in self.components], axis=-1)
        return vals

    @cached_property
    def derivatives(self) -> tuple:
        """(P1', P2', P3'), built once."""
        return tuple(c.derivative() for c in self.components)

    def derivative_frame(self):
        """Rows (P_i', P_i'', P_i''') as a 3x3 polynomial matrix."""
        rows = []
        for d1 in self.derivatives:
            d2 = d1.derivative()
            d3 = d2.derivative()
            rows.append((d1, d2, d3))
        return rows

    def to_json(self) -> dict:
        return {
            "N": int(self.degree_bound),
            "components": [c.to_json() for c in self.components],
        }

    @classmethod
    def from_json(cls, data) -> "CurveGamma":
        comps = [ComplexPolynomial.from_json(c) for c in data["components"]]
        return cls(components=tuple(comps), degree_bound=int(data["N"]))


@dataclass(frozen=True)
class TorsionTriple:
    """L1 = P1', L2 = 2x2 leading minor, L3 = full derivative determinant.

    ``L3_magnitude`` is the permanent of the frame's coefficient moduli: its
    coefficients bound those of every product the cofactor expansion sums,
    so it sets the scale of L3's rounding at each point.
    """

    L1: ComplexPolynomial
    L2: ComplexPolynomial
    L3: ComplexPolynomial
    L3_magnitude: ComplexPolynomial
    degenerate: bool

    def polys(self):
        return (self.L1, self.L2, self.L3)

    @cached_property
    def trimmed(self) -> tuple:
        """(L1, L2, L3) trimmed at TRIM_TOL, built once."""
        return tuple(poly.trimmed(TRIM_TOL) for poly in self.polys())

    @cached_property
    def root_sets(self) -> dict:
        """Roots of each non-constant polynomial of ``trimmed``, computed once.

        Keyed by the trimmed polynomial, so equal polynomials share one
        entry.  Raises NonConvergence when a root extraction fails.
        """
        out = {}
        for p in self.trimmed:
            if p.degree >= 1 and p not in out:
                out[p] = roots(p)
        return out

    @cached_property
    def singular_points(self) -> tuple:
        """Zeros of L1 and L2, the poles of the nested Jacobian integrand.

        Raises SegmentHitsSingularity when L1 or L2 vanishes identically.
        """
        pts = []
        for p in self.trimmed[:2]:
            if p.degree >= 1:
                pts.extend(r for r, _ in self.root_sets[p].roots)
            elif p.degree < 0:
                raise SegmentHitsSingularity(
                    "an integrand denominator polynomial vanishes identically"
                )
        return tuple(pts)


def torsion_triple(curve: CurveGamma) -> TorsionTriple:
    """Build the torsion triple of a curve.

    A degenerate curve (L3 with all coefficients at cancellation level) is
    returned flagged, not rejected.
    """
    frame = curve.derivative_frame()
    l1 = frame[0][0]
    l2 = det2([[frame[0][0], frame[0][1]], [frame[1][0], frame[1][1]]])
    l3 = det3(frame)
    scale = 1.0
    for j in range(3):
        col_max = max(frame[i][j].max_coeff() for i in range(3))
        scale *= max(col_max, 1.0)
    degenerate = l3.max_coeff() < _ZERO_DET_REL * scale
    if degenerate:
        l3 = ComplexPolynomial([0.0])
    (a, b, c), (d, e, f), (g, h, i) = (
        [ComplexPolynomial(np.abs(p.coeffs)) for p in row] for row in frame
    )
    magnitude = a * (e * i + f * h) + b * (d * i + f * g) + c * (d * h + e * g)
    return TorsionTriple(L1=l1, L2=l2, L3=l3, L3_magnitude=magnitude,
                         degenerate=degenerate)


def lambda_weight(tt: TorsionTriple, z):
    """Affine arclength weight |L3(z)|**(1/3); vectorized over z."""
    return np.abs(np.asarray(tt.L3(np.asarray(z, dtype=np.complex128)))) ** (1.0 / 3.0)


def affine_apply(curve: CurveGamma, matrix) -> CurveGamma:
    """Apply the 3x3 ``matrix`` componentwise: component i of the result is
    the sum over j of matrix[i, j] times component j."""
    comps = []
    for i in range(3):
        acc = ComplexPolynomial([0j])
        for j in range(3):
            acc = acc + matrix[i, j] * curve.components[j]
        comps.append(acc)
    return CurveGamma.from_components(*comps, degree_bound=curve.degree_bound)
