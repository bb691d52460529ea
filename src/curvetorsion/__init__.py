"""Torsion decompositions, Jacobian identities, and operator estimates for
three-dimensional complex polynomial curves."""

from .curves import (
    CurveGamma,
    TorsionTriple,
    affine_apply,
    lambda_weight,
    torsion_triple,
)
from .decomposition import (
    DecompositionReport,
    Region,
    SigmaExponents,
    admissible,
    affine_retry,
    classify_regions,
    decompose,
)
from .errors import (
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
    ZeroVolume,
)
from .jacobian import (
    QuadratureSpec,
    Triple,
    jacobian_direct,
    jacobian_identity_trials,
    jacobian_integral,
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
    verify_region,
)

__version__ = "0.1.0"

__all__ = [
    "ApertureTooWide", "BallSpec", "ComplexPolynomial",
    "CurveGamma", "CurveTorsionError", "DecompositionReport",
    "DegenerateTorsion", "DegenerateTriple", "DegreeZero", "EmptyRegion",
    "EpsNotDivisor", "GridSpec", "MeasurableSet", "NonConvergence", "PQPair",
    "QuadratureSpec", "RatioSample", "Region", "RetriesExhausted",
    "RootFindingFailed", "RootSet", "SegmentHitsSingularity", "SigmaExponents",
    "TorsionTriple", "Triple", "VerificationReport", "WeakTypeReport",
    "ZeroVolume", "admissible", "affine_apply", "affine_retry",
    "ball_measure_check", "classify_regions", "convolve", "decompose", "det2",
    "det3", "extension", "geometric_ratio", "jacobian_direct",
    "jacobian_identity_trials", "jacobian_integral", "lambda_weight",
    "modulus_comparability_check", "norm_ratio_scan", "pairing", "roots",
    "torsion_triple", "verify_region", "weighted_l1_mass", "weighted_lp_norm",
]
