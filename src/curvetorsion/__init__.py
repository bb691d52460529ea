"""Torsion decompositions, Jacobian identities, and operator estimates for
three-dimensional complex polynomial curves."""

from .curves import (
    AffineMap3,
    CurveGamma,
    TorsionTriple,
    affine_apply,
    lambda_weight,
    normalize_at_origin,
    offspring_curve,
    torsion_triple,
)
from .decomposition import (
    D1Cell,
    D2Cell,
    DecompositionReport,
    Region,
    SigmaExponents,
    admissible,
    affine_retry,
    classify_regions,
    convexify,
    d1_decompose,
    d2_decompose,
    decompose,
)
from .errors import (
    AllSamplesZero,
    ApertureTooWide,
    CurveTorsionError,
    DegenerateTorsion,
    DegenerateTriple,
    DegreeZero,
    EmptyRegion,
    EpsNotDivisor,
    NonConvergence,
    RetriesExhausted,
    RootFindingFailed,
    SegmentHitsSingularity,
    SingularAtOrigin,
    ZeroVolume,
)
from .jacobian import (
    QuadratureSpec,
    Triple,
    jacobian_direct,
    jacobian_identity_trials,
    jacobian_integral,
    phi_alt,
    phi_sum,
    sector_contained,
)
from .operators import (
    BallSpec,
    GridSpec,
    MeasurableSet,
    PQPair,
    WeakTypeReport,
    ball_measure_check,
    convolve,
    extension,
    norm_ratio_scan,
    pairing,
    weighted_l1_mass,
    weighted_lp_norm,
)
from .polynomials import ComplexPolynomial, RootSet, det2, det3, roots
from .verification import (
    RatioSample,
    VerificationReport,
    geometric_ratio,
    modulus_comparability_check,
    triple_integral_bound_check,
    verify_region,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap3", "AllSamplesZero", "ApertureTooWide", "BallSpec",
    "ComplexPolynomial", "CurveGamma", "CurveTorsionError", "D1Cell", "D2Cell",
    "DecompositionReport", "DegenerateTorsion", "DegenerateTriple",
    "DegreeZero", "EmptyRegion", "EpsNotDivisor", "GridSpec", "MeasurableSet",
    "NonConvergence", "PQPair", "QuadratureSpec", "RatioSample", "Region",
    "RetriesExhausted", "RootFindingFailed", "RootSet",
    "SegmentHitsSingularity", "SigmaExponents", "SingularAtOrigin",
    "TorsionTriple", "Triple", "VerificationReport", "WeakTypeReport",
    "ZeroVolume", "admissible", "affine_apply", "affine_retry",
    "ball_measure_check", "classify_regions", "convexify", "convolve",
    "d1_decompose", "d2_decompose", "decompose", "det2", "det3", "extension",
    "geometric_ratio", "jacobian_direct", "jacobian_identity_trials", "jacobian_integral",
    "lambda_weight", "modulus_comparability_check", "norm_ratio_scan",
    "normalize_at_origin", "offspring_curve", "pairing", "phi_alt", "phi_sum",
    "roots", "sector_contained", "torsion_triple", "weighted_l1_mass", "weighted_lp_norm",
    "triple_integral_bound_check", "verify_region",
]
